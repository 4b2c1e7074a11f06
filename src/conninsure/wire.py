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

Decoders read any bytes-like buffer in place: each field is parsed at its
offset into the buffer, and only a leaf value (a byte string, text or
integer) is copied out, once; no decoded value holds a view of the buffer.
The functions that slice a payload out of a buffer (iter_frames, unpack,
unpack_exact) give a payload of _VIEW_MIN bytes or more as a memoryview of
the buffer, and a smaller one as a copy.  So a large file or response,
such as a whole certificate list, is decoded where it was read, and each
certificate in it is copied once.
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
from .errors import CIError, CorruptionError, EncodingError, ParameterError

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

# Persistence record tags.  The two *_LIST events carry a whole list,
# SNAPSHOT the whole state, and ACK_CERTS and SUBMIT_VOUCHERS a chameleon
# hash in full where their *_HCH successors carry its hash_h; those five
# are read from older logs and never written.
LOG_SETUP = 0x31
LOG_REGISTER = 0x32
LOG_UPDATE_CERTS_LIST = 0x33
LOG_BEGIN_CYCLE_LIST = 0x34
LOG_ACK_CERTS = 0x35
LOG_SUBMIT_VOUCHERS = 0x36
LOG_SNAPSHOT = 0x37
LOG_BEGIN_CYCLE = 0x38
LOG_UPDATE_CERTS = 0x39
LOG_ACK_CERTS_HCH = 0x3A
LOG_SUBMIT_VOUCHERS_HCH = 0x3B

_MAX_LEN = 0xFFFFFFFF
_HEADER = struct.Struct(">BI")
_LENGTH = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_DIGEST_ENTRY = struct.Struct(">II32s")

SIGNED_PAYLOAD_LABELS = ("Certificates", "Vouchers")
CYCLEID_LEN = 32
DIGEST_LEN = 32


def pack(tag: int, payload: bytes) -> bytes:
    if len(payload) > _MAX_LEN:
        raise EncodingError("payload too large for a 4-byte length")
    return _HEADER.pack(tag, len(payload)) + payload


def unpack(data, offset: int = 0) -> tuple[int, bytes | memoryview, int]:
    """Decode one TLV item starting at offset; returns (tag, value, end)."""
    tag, start, end = _item(data, offset, len(data))
    return tag, _payload(data, start, end), end


def unpack_exact(data, expected_tag: int) -> bytes | memoryview:
    """Decode a single TLV item that must span the whole buffer."""
    return _payload(data, 5, _exact(data, expected_tag))


# A payload of this many bytes or more is sliced out of its buffer as a
# view, read in place; a smaller one is copied, since one copy of a small
# payload costs less than reading each of its fields through a view.
_VIEW_MIN = 64 << 10


def _payload(buf, start: int, end: int) -> bytes | memoryview:
    """buf[start:end], the payload of a frame or item."""
    if end - start < _VIEW_MIN:
        return buf[start:end]
    return memoryview(buf)[start:end]


def _exact(data, expected_tag: int) -> int:
    """The end of the value of the one TLV item that spans data."""
    tag, _, end = _item(data, 0, len(data))
    if tag != expected_tag:
        raise EncodingError(f"expected tag 0x{expected_tag:02x}, got 0x{tag:02x}")
    if end != len(data):
        raise EncodingError("trailing bytes after TLV item")
    return end


def _item(buf, offset: int, end: int) -> tuple[int, int, int]:
    """(tag, value start, value end) of the TLV item at offset, which must
    end by end."""
    if offset + 5 > end:
        raise EncodingError("truncated TLV header")
    tag, length = _HEADER.unpack_from(buf, offset)
    offset += 5
    if offset + length > end:
        raise EncodingError("truncated TLV value")
    return tag, offset, offset + length


def fields(payload, *expected_tags: int) -> list[bytes]:
    """Split a compound payload into exactly the expected ordered fields."""
    return _split(payload, 0, len(payload), [(tag, None) for tag in expected_tags])


def _split(buf, start: int, end: int, parsers) -> list:
    """Parse buf[start:end] as exactly one item per (tag, parse) pair, in
    order, each by parse(buf, value start, value end); parse None copies
    the value out as bytes (from a buffer other than bytes, through a
    view)."""
    values = []
    offset = start
    view = type(buf) is not bytes
    if view:
        buf = memoryview(buf)
    for tag, parse in parsers:
        if offset + 5 > end:
            raise EncodingError("truncated TLV header")
        got, length = _HEADER.unpack_from(buf, offset)
        if got != tag:
            raise EncodingError(f"expected field tag 0x{tag:02x}, got 0x{got:02x}")
        first = offset + 5
        offset = first + length
        if offset > end:
            raise EncodingError("truncated TLV value")
        if parse is not None:
            values.append(parse(buf, first, offset))
        else:
            values.append(buf[first:offset].tobytes() if view else buf[first:offset])
    if offset != end:
        raise EncodingError("trailing bytes after last field")
    return values


def _bytes(buf, start: int, end: int) -> bytes:
    """buf[start:end] as bytes of its own: a slice of bytes already is
    one, a slice of another buffer (a view) is copied out."""
    value = buf[start:end]
    return value if type(value) is bytes else bytes(value)


def iter_items(payload):
    offset = 0
    while offset < len(payload):
        tag, start, offset = _item(payload, offset, len(payload))
        yield tag, _bytes(payload, start, offset)


def u64(value: int) -> bytes:
    if not 0 <= value < 1 << 64:
        raise EncodingError("value out of u64 range")
    return struct.pack(">Q", value)


def decode_u64(data) -> int:
    return _parse_u64(data, 0, len(data))


def _parse_u64(buf, start: int, end: int) -> int:
    if end - start != 8:
        raise EncodingError("u64 field must be 8 bytes")
    return _U64.unpack_from(buf, start)[0]


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


def decode_varint(data) -> int:
    return _parse_varint(data, 0, len(data))


def _parse_varint(buf, start: int, end: int) -> int:
    if end > start and buf[start] == 0:
        raise EncodingError("non-minimal integer encoding")
    return int.from_bytes(buf[start:end], "big")


def text(value: str) -> bytes:
    try:
        return value.encode("ascii")
    except UnicodeEncodeError as exc:
        raise EncodingError(f"non-ASCII text: {exc}") from exc


def _parse_text(buf, start: int, end: int) -> str:
    try:
        return str(buf[start:end], "ascii")
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


def decode_list(payload, start: int = 0, end: int | None = None) -> list[bytes]:
    """The byte strings of a TAG_LIST payload, the value of the list's item
    without its header: payload[start:end], read in place."""
    return _list_items(payload, start, len(payload) if end is None else end, TAG_BYTES, None)


def _list_items(buf, start: int, end: int, item_tag: int, parse) -> list:
    """The items of buf[start:end], each of item_tag, as _split parses them.
    Every item's header is checked before any item is parsed."""
    out = []
    header = _HEADER.unpack_from
    offset = start
    view = type(buf) is not bytes
    if view:
        buf = memoryview(buf)
    while offset < end:
        if offset + 5 > end:
            raise EncodingError("truncated TLV header")
        tag, length = header(buf, offset)
        if tag != item_tag:
            raise EncodingError(f"unexpected list item tag 0x{tag:02x}")
        first = offset + 5
        offset = first + length
        if offset > end:
            raise EncodingError("truncated TLV value")
        if parse is not None:
            out.append((first, offset))
        else:
            out.append(buf[first:offset].tobytes() if view else buf[first:offset])
    return out if parse is None else [parse(buf, s, e) for s, e in out]


# ---------------------------------------------------------------------------
# Field tables
# ---------------------------------------------------------------------------


class Kind(NamedTuple):
    """How one field's value maps to one TLV item: item(value) returns the
    whole item, parse(buf, start, end) the value of the item whose value
    is buf[start:end] (None: that value, copied out as bytes)."""

    tag: int
    item: Callable
    parse: Callable | None


def _parse_bool(buf, start: int, end: int) -> bool:
    value = _parse_u64(buf, start, end)
    if value > 1:
        raise EncodingError("boolean field must be 0 or 1")
    return value == 1


def _parse_opt_u64(buf, start: int, end: int) -> int | None:
    value = _parse_u64(buf, start, end)
    return None if value == 0 else value - 1


def _parse_opt_bool(buf, start: int, end: int) -> bool | None:
    value = _parse_u64(buf, start, end)
    if value > 2:
        raise EncodingError("optional boolean field must be 0, 1 or 2")
    return None if value == 0 else value == 2


def _parse_digest(buf, start: int, end: int) -> bytes:
    if end - start != DIGEST_LEN:
        raise EncodingError("digest field must be 32 bytes")
    return _bytes(buf, start, end)


U64 = Kind(TAG_UINT, lambda v: pack(TAG_UINT, u64(v)), _parse_u64)
BYTES = Kind(TAG_BYTES, lambda v: pack(TAG_BYTES, v), None)
DIGEST = Kind(TAG_BYTES, BYTES.item, _parse_digest)
TEXT = Kind(TAG_TEXT, lambda v: pack(TAG_TEXT, text(v)), _parse_text)
VARINT = Kind(TAG_INT, lambda v: pack(TAG_INT, varint(v)), _parse_varint)
BOOL = Kind(TAG_UINT, lambda v: U64.item(1 if v else 0), _parse_bool)
# Optional scalars: None is 0 (or empty), a value v is v + 1 (False 1, True 2).
OPT_U64 = Kind(TAG_UINT, lambda v: U64.item(0 if v is None else v + 1), _parse_opt_u64)
OPT_BOOL = Kind(
    TAG_UINT, lambda v: U64.item(0 if v is None else 1 + bool(v)), _parse_opt_bool
)
OPT_BYTES = Kind(
    TAG_BYTES, lambda v: pack(TAG_BYTES, v or b""), lambda b, s, e: _bytes(b, s, e) or None
)
# Lists of byte strings go through encode_list/decode_list, looked up at call
# time, so wrappers installed on those two functions see every such list.
BYTES_LIST = Kind(TAG_LIST, lambda v: encode_list(v), lambda b, s, e: decode_list(b, s, e))
BYTES_TUPLE = Kind(TAG_LIST, BYTES_LIST.item, lambda b, s, e: tuple(decode_list(b, s, e)))


def list_of(kind: Kind, key=None) -> Kind:
    """A TAG_LIST of items of one kind, decoded as a tuple.

    With key, the value is a dict {key(item): item} instead, encoded in
    strictly increasing key order; the decoder rejects any other order.
    """

    def parse_items(buf, start: int, end: int):
        out = _list_items(buf, start, end, kind.tag, kind.parse)
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

    def parse(self, buf, start: int, end: int):
        """The value whose fields are buf[start:end]."""
        values = _split(buf, start, end, self._parsers)
        try:
            return self._make(*values)
        except ParameterError as exc:  # a value the record type refuses
            raise EncodingError(str(exc)) from exc

    def decode_body(self, body):
        return self.parse(body, 0, len(body))

    def decode(self, data):
        return self.parse(data, 5, _exact(data, self.tag))


def pair(*fields: tuple[str, Kind]) -> Record:
    """A TAG_PAIR item holding a tuple of fields."""
    return Record(TAG_PAIR, None, *fields)


def optional(record: Record) -> Kind:
    """A record field that may be None, encoded as the record's empty item."""
    empty = pack(record.tag, b"")
    return Kind(
        record.tag,
        lambda value: empty if value is None else record.encode(value),
        lambda buf, start, end: record.parse(buf, start, end) if end > start else None,
    )


def codec(tag: int, *fields: tuple[str, Kind]):
    """Class decorator: CODEC, to_bytes and from_bytes from one field table."""

    def attach(cls):
        record = cls.CODEC = Record(tag, cls, *fields)

        def to_bytes(self) -> bytes:
            return record.encode(self)

        def from_bytes(cls, data):
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
    """Yield the payload of each frame in a buffer of back-to-back frames
    (a large one as a view of data, see _VIEW_MIN).

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
        yield _payload(data, offset + 4, end)
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


def read_first_frame(path: str) -> bytes:
    """The payload of the first frame of the file at path.  Nothing after
    that frame is read, and the file is never changed, so this is safe on a
    log that another process appends to.  A file with no whole first frame
    is EncodingError."""
    with open(path, "rb") as fh:

        def read_exact(n: int) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise EncodingError(f"{path}: no whole first frame")
            return data

        return read_frame(read_exact)


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
    first frames, and readable and writable by its owner only (mode 0600,
    whatever the umask, also over a leftover .tmp), since these files hold
    signing keys and trapdoors.  If any step fails, a file that did not
    exist before is not left behind."""
    tmp = path + ".tmp"
    existed = os.path.exists(path)
    try:
        with open(tmp, "wb", buffering=0, opener=_private) as fh:
            os.fchmod(fh.fileno(), 0o600)
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


def _private(path: str, flags: int) -> int:
    return os.open(path, flags, 0o600)


def _write_durably(fh, data: bytes, path: str) -> None:
    """One write of data, all of it, then an fsync (through the os module,
    so a benchmark can stand it in)."""
    if fh.write(data) != len(data):
        raise OSError(errno.EIO, f"short write to {path}")
    os.fsync(fh.fileno())


def decode_frame(decode, path: str, offset: int, payload: bytes):
    """decode(payload) for a whole frame of the log at path.  A frame that
    decode refuses is corruption, not a crash leftover: its error, whatever
    its kind, is raised as CorruptionError naming the frame's byte offset."""
    try:
        return decode(payload)
    except CIError as exc:
        raise CorruptionError(f"{path}: frame at byte offset {offset}: {exc}") from exc


def only_frame(data: bytes) -> bytes:
    """The payload of a buffer that holds exactly one frame."""
    frames = list(iter_frames(data))
    if len(frames) != 1:
        raise EncodingError(f"expected one frame, found {len(frames)}")
    return frames[0]


def read_single_frame(path: str, decode):
    """decode(payload) of the file at path, which must hold exactly one
    frame.  Its EncodingError names the file."""
    try:
        with open(path, "rb") as fh:
            return decode(only_frame(fh.read()))
    except EncodingError as exc:
        raise EncodingError(f"{path}: {exc}") from exc
