"""Canonical tag-length-value encoding for every signed payload, protocol
message, and persisted artifact, plus the length-prefixed framing used on
the client-insurer channel and in every file, with the one reader and the
one durable writer of those files.

Layout of one TLV item: tag (1 byte) || length (4-byte big-endian) || value.
Compound records nest TLV items in a fixed field order, so every encoding
is an injective function of the abstract value.

Each compound layout is declared once, as a field table: a `Record` of
ordered (attribute name, field kind) pairs from which both the encoder and
the decoder are derived.  Decoders accept only canonical encodings, so
decode followed by encode returns the input bytes.
"""

import contextlib
import errno
import os
import struct
import warnings
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, NamedTuple

from . import crypto
from .errors import CorruptionError, EncodingError, ParameterError

# Tag table. Published so independent implementations can interoperate.
TAG_UINT = 0x01          # 8-byte big-endian unsigned integer
TAG_BYTES = 0x02         # opaque byte string
TAG_TEXT = 0x03          # ASCII text
TAG_INT = 0x05           # variable-length unsigned big-endian integer
TAG_LIST = 0x04          # concatenation of TLV items

TAG_SIGNED_PAYLOAD = 0x10
TAG_VOUCHER = 0x11
TAG_GROUP_PARAMS = 0x12
TAG_CHAMELEON_SIG = 0x13
TAG_TRAPDOOR_PROOF = 0x14
TAG_CONTRACT = 0x15
TAG_TRANSCRIPT = 0x16
TAG_EVIDENCE = 0x17
TAG_INCLUSION_PROOF = 0x18
TAG_CLAIM = 0x19
TAG_ROLLBACK_DELTA = 0x1A
TAG_CYCLE_RECORD = 0x1B
TAG_PUBKEY = 0x1C
TAG_CHAMELEON_PUB = 0x1D
TAG_PAIR = 0x1E

# Request/response endpoint ids for the framed channel.  0x22 was the
# begin-cycle request answered with the whole list; it is retired.
REQ_REGISTER = 0x21
REQ_ACK_CERTS = 0x23
REQ_SUBMIT_VOUCHERS = 0x24
REQ_LOOKUP_RECORD = 0x25
REQ_BEGIN_CYCLE_DELTA = 0x26
RESP_OK = 0x2E
RESP_ERR = 0x2F

# Persistence record tags.  The two *_LIST events carry a whole list; they
# are replayed from older logs and never written.
LOG_SETUP = 0x31
LOG_REGISTER = 0x32
LOG_UPDATE_CERTS_LIST = 0x33
LOG_BEGIN_CYCLE_LIST = 0x34
LOG_ACK_CERTS = 0x35
LOG_SUBMIT_VOUCHERS = 0x36
LOG_SNAPSHOT = 0x37
LOG_BEGIN_CYCLE = 0x38
LOG_UPDATE_CERTS = 0x39

_MAX_LEN = 0xFFFFFFFF
_HEADER = struct.Struct(">BI")
_LENGTH = struct.Struct(">I")
_U64_ITEM = struct.Struct(">BIQ")
_DIGEST_ENTRY = struct.Struct(">II32s")

SIGNED_PAYLOAD_LABELS = ("Certificates", "Vouchers")
CYCLEID_LEN = 32
DIGEST_LEN = 32


def pack(tag: int, payload: bytes) -> bytes:
    if len(payload) > _MAX_LEN:
        raise EncodingError("payload too large for a 4-byte length")
    return _HEADER.pack(tag, len(payload)) + payload


def unpack(data: bytes, offset: int = 0) -> tuple[int, bytes, int]:
    """Decode one TLV item starting at offset; returns (tag, value, end)."""
    if offset + 5 > len(data):
        raise EncodingError("truncated TLV header")
    tag = data[offset]
    (length,) = struct.unpack_from(">I", data, offset + 1)
    end = offset + 5 + length
    if end > len(data):
        raise EncodingError("truncated TLV value")
    return tag, data[offset + 5 : end], end


def unpack_exact(data: bytes, expected_tag: int) -> bytes:
    """Decode a single TLV item that must span the whole buffer."""
    tag, value, end = unpack(data)
    if tag != expected_tag:
        raise EncodingError(f"expected tag 0x{expected_tag:02x}, got 0x{tag:02x}")
    if end != len(data):
        raise EncodingError("trailing bytes after TLV item")
    return value


def fields(payload: bytes, *expected_tags: int) -> list[bytes]:
    """Split a compound payload into exactly the expected ordered fields."""
    return _split(payload, [(tag, None) for tag in expected_tags])


def _split(data: bytes, parsers) -> list:
    """Parse data as exactly one item per (tag, parse) pair, in order."""
    values = []
    offset = 0
    try:
        for tag, parse in parsers:
            got, length = _HEADER.unpack_from(data, offset)
            if got != tag:
                raise EncodingError(f"expected field tag 0x{tag:02x}, got 0x{got:02x}")
            start = offset + 5
            offset = start + length
            value = data[start:offset]
            if len(value) != length:
                raise EncodingError("truncated TLV value")
            values.append(value if parse is None else parse(value))
    except struct.error:
        raise EncodingError("truncated TLV header") from None
    if offset != len(data):
        raise EncodingError("trailing bytes after last field")
    return values


def iter_items(payload: bytes):
    offset = 0
    while offset < len(payload):
        tag, value, offset = unpack(payload, offset)
        yield tag, value


def u64(value: int) -> bytes:
    if not 0 <= value < 1 << 64:
        raise EncodingError("value out of u64 range")
    return struct.pack(">Q", value)


def decode_u64(data: bytes) -> int:
    if len(data) != 8:
        raise EncodingError("u64 field must be 8 bytes")
    return struct.unpack(">Q", data)[0]


def u32(value: int) -> bytes:
    if not 0 <= value < 1 << 32:
        raise EncodingError("value out of u32 range")
    return struct.pack(">I", value)


def varint(value: int) -> bytes:
    """Canonical unsigned big-endian integer: minimal length, 0 = empty."""
    if value < 0:
        raise EncodingError("negative integer")
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def decode_varint(data: bytes) -> int:
    if data and data[0] == 0:
        raise EncodingError("non-minimal integer encoding")
    return int.from_bytes(data, "big")


def text(value: str) -> bytes:
    try:
        return value.encode("ascii")
    except UnicodeEncodeError as exc:
        raise EncodingError(f"non-ASCII text: {exc}") from exc


def decode_text(data: bytes) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"non-ASCII text field: {exc}") from exc


def encode_list(items: list[bytes]) -> bytes:
    """A TAG_LIST item of byte strings, each wrapped in a TAG_BYTES item."""
    size = 5 * len(items) + sum(map(len, items))
    try:
        headers = list(map(_HEADER.pack, repeat(TAG_BYTES), map(len, items)))
        head = _HEADER.pack(TAG_LIST, size)
    except struct.error:
        raise EncodingError("payload too large for a 4-byte length") from None
    return b"".join(chain((head,), chain.from_iterable(zip(headers, items))))


def decode_list(payload: bytes) -> list[bytes]:
    """The byte strings of a TAG_LIST payload: the value of the list's
    item, without its header."""
    return _list_items(payload, TAG_BYTES, None)


def _list_items(payload: bytes, item_tag: int, parse) -> list:
    out = []
    offset = 0
    size = len(payload)
    header = _HEADER.unpack_from
    try:
        while offset < size:
            tag, length = header(payload, offset)
            if tag != item_tag:
                raise EncodingError(f"unexpected list item tag 0x{tag:02x}")
            start = offset + 5
            offset = start + length
            if offset > size:
                raise EncodingError("truncated TLV value")
            out.append(payload[start:offset])
    except struct.error:
        raise EncodingError("truncated TLV header") from None
    return out if parse is None else [parse(value) for value in out]


# ---------------------------------------------------------------------------
# Field tables
# ---------------------------------------------------------------------------


class Kind(NamedTuple):
    """How one field's value maps to one TLV item: item(value) returns the
    whole item, parse(payload) the value (None: the payload is the value)."""

    tag: int
    item: Callable
    parse: Callable | None


def _u64_item(value: int) -> bytes:
    try:
        return _U64_ITEM.pack(TAG_UINT, 8, value)
    except struct.error:
        raise EncodingError("value out of u64 range") from None


def _parse_bool(data: bytes) -> bool:
    value = decode_u64(data)
    if value > 1:
        raise EncodingError("boolean field must be 0 or 1")
    return value == 1


def _parse_opt_u64(data: bytes) -> int | None:
    value = decode_u64(data)
    return None if value == 0 else value - 1


def _parse_opt_bool(data: bytes) -> bool | None:
    value = decode_u64(data)
    if value > 2:
        raise EncodingError("optional boolean field must be 0, 1 or 2")
    return None if value == 0 else value == 2


def _parse_digest(data: bytes) -> bytes:
    if len(data) != DIGEST_LEN:
        raise EncodingError("digest field must be 32 bytes")
    return data


U64 = Kind(TAG_UINT, _u64_item, decode_u64)
BYTES = Kind(TAG_BYTES, lambda v: pack(TAG_BYTES, v), None)
DIGEST = Kind(TAG_BYTES, BYTES.item, _parse_digest)
TEXT = Kind(TAG_TEXT, lambda v: pack(TAG_TEXT, text(v)), decode_text)
VARINT = Kind(TAG_INT, lambda v: pack(TAG_INT, varint(v)), decode_varint)
BOOL = Kind(TAG_UINT, lambda v: _u64_item(1 if v else 0), _parse_bool)
# Optional scalars: None is 0 (or empty), a value v is v + 1 (False 1, True 2).
OPT_U64 = Kind(TAG_UINT, lambda v: _u64_item(0 if v is None else v + 1), _parse_opt_u64)
OPT_BOOL = Kind(
    TAG_UINT, lambda v: _u64_item(0 if v is None else 1 + bool(v)), _parse_opt_bool
)
OPT_BYTES = Kind(TAG_BYTES, lambda v: pack(TAG_BYTES, v or b""), lambda b: b or None)
# Lists of byte strings go through encode_list/decode_list, looked up at call
# time, so wrappers installed on those two functions see every such list.
BYTES_LIST = Kind(TAG_LIST, lambda v: encode_list(v), lambda b: decode_list(b))
BYTES_TUPLE = Kind(TAG_LIST, BYTES_LIST.item, lambda b: tuple(decode_list(b)))


def list_of(kind: Kind, key=None) -> Kind:
    """A TAG_LIST of items of one kind, decoded as a tuple.

    With key, the value is a dict {key(item): item} instead, encoded in
    strictly increasing key order; the decoder rejects any other order.
    """

    def parse_items(data: bytes):
        out = _list_items(data, kind.tag, kind.parse)
        if key is None:
            return tuple(out)
        keys = [key(value) for value in out]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise EncodingError("list entries must be strictly sorted by key")
        return dict(zip(keys, out))

    def encode(values) -> bytes:
        if key is not None:
            values = [values[k] for k in sorted(values)]
        return pack(TAG_LIST, b"".join(map(kind.item, values)))

    return Kind(TAG_LIST, encode, parse_items)


class Record:
    """A record type's field table: ordered (attribute name, kind) pairs.

    encode reads the named attributes and decode passes the field values to
    constructor in table order.  With constructor None the value is a plain
    tuple in table order and the names only document the fields.  A Record
    is itself a kind, for records nested in other records; with tag None it
    is a bare field sequence, used through encode_body and decode_body.
    """

    def __init__(self, tag: int | None, constructor, *fields: tuple[str, Kind]):
        self.tag = tag
        self.item = self.encode
        self.parse = self.decode_body
        names = [name for name, _ in fields]
        self._items = tuple(kind.item for _, kind in fields)
        self._parsers = tuple((kind.tag, kind.parse) for _, kind in fields)
        if constructor is None:
            self._make = lambda *values: values
            self._values = tuple
        else:
            self._make = constructor
            getter = attrgetter(*names)
            self._values = getter if len(names) > 1 else lambda obj: (getter(obj),)

    def _encode_items(self, value) -> list[bytes]:
        return [item(v) for item, v in zip(self._items, self._values(value))]

    def encode_body(self, value) -> bytes:
        return b"".join(self._encode_items(value))

    def encode_parts(self, value) -> list[bytes]:
        """The record's item in parts, its header and then each field's
        item, which a frame writer joins with its frame header in one copy."""
        items = self._encode_items(value)
        size = sum(map(len, items))
        if size > _MAX_LEN:
            raise EncodingError("payload too large for a 4-byte length")
        return [_HEADER.pack(self.tag, size), *items]

    def encode(self, value) -> bytes:
        return b"".join(self.encode_parts(value))

    def decode_body(self, body: bytes):
        return self._make(*_split(body, self._parsers))

    def decode(self, data: bytes):
        return self.decode_body(unpack_exact(data, self.tag))


def pair(*fields: tuple[str, Kind]) -> Record:
    """A TAG_PAIR item holding a tuple of fields."""
    return Record(TAG_PAIR, None, *fields)


def optional(record: Record) -> Kind:
    """A record field that may be None, encoded as the record's empty item."""
    empty = pack(record.tag, b"")
    return Kind(
        record.tag,
        lambda value: empty if value is None else record.encode(value),
        lambda data: record.decode_body(data) if data else None,
    )


def codec(tag: int, *fields: tuple[str, Kind]):
    """Class decorator: CODEC, to_bytes and from_bytes from one field table."""

    def attach(cls):
        record = cls.CODEC = Record(tag, cls, *fields)

        def to_bytes(self) -> bytes:
            return record.encode(self)

        def from_bytes(cls, data: bytes):
            return record.decode(data)

        cls.to_bytes = to_bytes
        cls.from_bytes = classmethod(from_bytes)
        return cls

    return attach


# ---------------------------------------------------------------------------
# Signed payloads and the certificate-list digest
# ---------------------------------------------------------------------------

_SIGNED_PAYLOAD = Record(
    TAG_SIGNED_PAYLOAD,
    None,
    ("label", TEXT),
    ("customer", U64),
    ("cycleid", BYTES),
    ("timestamp", U64),
    ("body_digest", BYTES),
)


def _check_signed_payload(label: str, cycleid: bytes, body_digest: bytes) -> None:
    if label not in SIGNED_PAYLOAD_LABELS:
        raise EncodingError(f"unknown payload label {label!r}")
    if len(cycleid) != CYCLEID_LEN:
        raise EncodingError("cycleid must be 32 bytes")
    if len(body_digest) != DIGEST_LEN:
        raise EncodingError("body digest must be 32 bytes")


def encode_signed_payload(
    label: str, customer: int, cycleid: bytes, timestamp: int, body_digest: bytes
) -> bytes:
    """The byte string both parties sign during an update cycle.

    For "Certificates" the digest commits to the ordered list C; for
    "Vouchers" it is the Merkle root over the cycle's vouchers.
    """
    _check_signed_payload(label, cycleid, body_digest)
    return _SIGNED_PAYLOAD.encode((label, customer, cycleid, timestamp, body_digest))


def decode_signed_payload(data: bytes) -> tuple[str, int, bytes, int, bytes]:
    value = _SIGNED_PAYLOAD.decode(data)
    _check_signed_payload(value[0], value[2], value[4])
    return value


def cert_list_digest(certs: list[bytes], hashes: list[bytes] | None = None) -> bytes:
    """Order-sensitive digest of the insurer's certificate list.

    hashes, when given, holds crypto.hash_h of each certificate, so that a
    caller that keeps them hashes each certificate only once.
    """
    if not certs:
        raise ParameterError("certificate list must not be empty")
    if hashes is None:
        hashes = map(crypto.hash_h, certs)
    try:
        acc = b"".join(
            map(_DIGEST_ENTRY.pack, range(len(certs)), map(len, certs), hashes)
        )
    except struct.error:
        raise EncodingError("certificate list entry out of u32 range") from None
    return crypto.hash_h(acc)


# ---------------------------------------------------------------------------
# Codecs for crypto types
# ---------------------------------------------------------------------------

PUBLIC_KEY = Record(TAG_PUBKEY, crypto.PublicKey, ("scheme_id", U64), ("data", BYTES))
GROUP_PARAMS = Record(
    TAG_GROUP_PARAMS, crypto.GroupParams, ("p", VARINT), ("q", VARINT), ("g", VARINT)
)
CHAMELEON_PUBLIC = Record(
    TAG_CHAMELEON_PUB, crypto.ChameleonPublicKey, ("params", GROUP_PARAMS), ("y", VARINT)
)
CHAMELEON_SIGNATURE = Record(
    TAG_CHAMELEON_SIG,
    crypto.ChameleonSignature,
    ("r", VARINT),
    ("inner_sig", BYTES),
    ("context", BYTES),
)
TRAPDOOR_PROOF = Record(
    TAG_TRAPDOOR_PROOF, crypto.TrapdoorProof, ("u", VARINT), ("c", VARINT), ("z", VARINT)
)


# ---------------------------------------------------------------------------
# Framing: 4-byte big-endian length prefix over a reliable byte stream
# ---------------------------------------------------------------------------


def frame(payload: bytes) -> bytes:
    return _frames([payload])


def _frames(payloads: list) -> bytes:
    """The frames of payloads back to back, joined in one copy.  A payload
    is a byte string, or a list of the parts it joins, such as
    Record.encode_parts gives."""
    parts = []
    for payload in payloads:
        if isinstance(payload, bytes):
            payload = (payload,)
        size = sum(map(len, payload))
        if size > _MAX_LEN:
            raise EncodingError("frame payload too large")
        parts.append(_LENGTH.pack(size))
        parts += payload
    return b"".join(parts)


def read_frame(read_exact, limit: int | None = None) -> bytes:
    """Read one frame via read_exact(n) -> exactly n bytes (or raises).  A
    header that announces more than limit bytes raises EncodingError
    before any of the body is read."""
    header = read_exact(4)
    (length,) = _LENGTH.unpack(header)
    if limit is not None and length > limit:
        raise EncodingError(f"frame of {length} bytes exceeds the limit of {limit}")
    if length == 0:
        return b""
    return read_exact(length)


def iter_frames(data: bytes):
    """Yield the payload of each frame in a buffer of back-to-back frames.

    Stops at a clean end; a partial frame raises EncodingError with its
    byte offset.
    """
    offset = 0
    size = len(data)
    while offset < size:
        end = offset + 4
        if end <= size:
            end += _LENGTH.unpack_from(data, offset)[0]
        if end > size:
            raise EncodingError(f"partial frame at byte offset {offset}")
        yield data[offset + 4 : end]
        offset = end


def read_log(path: str) -> list[tuple[int, bytes]]:
    """(byte offset, payload) of each whole frame in an append-only log
    file.  A partial last frame, left by a crash mid-append, is cut off the
    file and reported with warnings.warn."""
    with open(path, "rb") as fh:
        data = fh.read()
    frames = []
    whole = 0
    try:
        for payload in iter_frames(data):
            frames.append((whole, payload))
            whole += 4 + len(payload)
    except EncodingError:
        warnings.warn(f"{path}: dropped a partial frame of {len(data) - whole} "
                      f"bytes at byte offset {whole}", RuntimeWarning)
        os.truncate(path, whole)
    return frames


def append_frames(path: str, payloads: list) -> None:
    """Append frames to the file at path, which must exist, in one write,
    and fsync it; no frames, no write.  A failed append is cut back off the
    file, so no later append lands behind torn bytes; if the cut fails too,
    CorruptionError."""
    data = _frames(payloads)
    if not data:
        return
    with open(path, "r+b", buffering=0) as fh:
        start = fh.seek(0, os.SEEK_END)
        try:
            _write_durably(fh, data, path)
        except BaseException:
            try:
                os.ftruncate(fh.fileno(), start)
            except OSError as exc:
                raise CorruptionError(
                    f"{path}: a failed append could not be cut off: {exc}"
                ) from exc
            raise


def replace_frames(path: str, payloads: list) -> None:
    """Write frames to path + ".tmp", fsync it, rename it over path and
    fsync the directory.  This is how a file is created: whole, with its
    first frames.  If any step fails, a file that did not exist before is
    not left behind."""
    tmp = path + ".tmp"
    existed = os.path.exists(path)
    try:
        with open(tmp, "wb", buffering=0) as fh:
            _write_durably(fh, _frames(payloads), path)
        os.replace(tmp, path)
        fd = os.open(os.path.dirname(path) or os.curdir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        for leftover in (tmp,) if existed else (tmp, path):
            with contextlib.suppress(OSError):
                os.unlink(leftover)
        raise


def _write_durably(fh, data: bytes, path: str) -> None:
    """One write of data, all of it, then an fsync (through the os module,
    so a benchmark can stand it in)."""
    if fh.write(data) != len(data):
        raise OSError(errno.EIO, f"short write to {path}")
    os.fsync(fh.fileno())


def decode_frame(decode, path: str, offset: int, payload: bytes):
    """decode(payload) for a whole frame of the log at path.  A frame that
    does not decode is corruption, not a crash leftover: its EncodingError
    is raised as CorruptionError naming the frame's byte offset."""
    try:
        return decode(payload)
    except EncodingError as exc:
        raise CorruptionError(f"{path}: frame at byte offset {offset}: {exc}") from exc


def only_frame(data: bytes) -> bytes:
    """The payload of a buffer that holds exactly one frame."""
    frames = list(iter_frames(data))
    if len(frames) != 1:
        raise EncodingError(f"expected one frame, found {len(frames)}")
    return frames[0]
