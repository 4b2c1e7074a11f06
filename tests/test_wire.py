"""TLV encoding: injectivity, golden vectors, the certificate-list digest,
and framing."""

import hashlib
import os
import stat
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conninsure import crypto, wire
from conninsure.errors import EncodingError, ParameterError
from support import load_hex_fixture

payload_tuples = st.tuples(
    st.sampled_from(["Certificates", "Vouchers"]),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.binary(min_size=32, max_size=32),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.binary(min_size=32, max_size=32),
)


class TestSignedPayload:
    @given(payload_tuples)
    @settings(max_examples=1000, deadline=None)
    def test_roundtrip(self, tup):
        encoded = wire.encode_signed_payload(*tup)
        assert wire.decode_signed_payload(encoded) == tup

    @given(payload_tuples, payload_tuples)
    @settings(max_examples=300, deadline=None)
    def test_injective(self, a, b):
        ea = wire.encode_signed_payload(*a)
        eb = wire.encode_signed_payload(*b)
        assert (ea == eb) == (a == b)

    def test_distinct_cycleids_distinct_encodings(self):
        base = ("Certificates", 1, b"\x01" * 32, 7, b"\x00" * 32)
        other = ("Certificates", 1, b"\x02" * 32, 7, b"\x00" * 32)
        assert wire.encode_signed_payload(*base) != wire.encode_signed_payload(*other)

    def test_golden_file(self):
        """Known-answer vector frozen when the format was published."""
        encoded = wire.encode_signed_payload(
            "Certificates", 1, b"\x00" * 32, 0, b"\x00" * 32
        )
        assert encoded == load_hex_fixture("signed_payload_golden.hex")

    def test_golden_structure_independent_encoder(self):
        """Rebuild the golden vector with raw struct calls, no wire helpers."""

        def tlv(tag, value):
            return bytes([tag]) + struct.pack(">I", len(value)) + value

        body = (
            tlv(0x03, b"Certificates")
            + tlv(0x01, struct.pack(">Q", 1))
            + tlv(0x02, b"\x00" * 32)
            + tlv(0x01, struct.pack(">Q", 0))
            + tlv(0x02, b"\x00" * 32)
        )
        assert tlv(0x10, body) == load_hex_fixture("signed_payload_golden.hex")

    def test_unknown_label_rejected(self):
        with pytest.raises(EncodingError):
            wire.encode_signed_payload("Nonsense", 1, b"\x00" * 32, 0, b"\x00" * 32)

    def test_bad_cycleid_length_rejected(self):
        with pytest.raises(EncodingError):
            wire.encode_signed_payload("Vouchers", 1, b"\x00" * 31, 0, b"\x00" * 32)


class TestTagDisjointness:
    def test_one_type_does_not_parse_as_another(self):
        payload = wire.encode_signed_payload(
            "Certificates", 1, b"\x00" * 32, 0, b"\x00" * 32
        )
        with pytest.raises(EncodingError):
            wire.unpack_exact(payload, wire.TAG_VOUCHER)

    def test_trailing_bytes_rejected(self):
        item = wire.pack(wire.TAG_BYTES, b"abc")
        with pytest.raises(EncodingError):
            wire.unpack_exact(item + b"\x00", wire.TAG_BYTES)

    def test_truncation_rejected(self):
        item = wire.pack(wire.TAG_BYTES, b"abcdef")
        with pytest.raises(EncodingError):
            wire.unpack(item[:-2])


class TestCertListDigest:
    def test_order_sensitivity(self):
        a, b = b"cert-a", b"cert-b"
        assert wire.cert_list_digest([a, b]) != wire.cert_list_digest([b, a])

    def test_single_cert_formula(self):
        cert = b"one-cert-der-bytes"
        inner = (
            b"\x00\x00\x00\x00"
            + struct.pack(">I", len(cert))
            + hashlib.sha256(b"\x68" + cert).digest()
        )
        expected = hashlib.sha256(b"\x68" + inner).digest()
        assert wire.cert_list_digest([cert]) == expected

    def test_stable_across_reserialization(self):
        certs = [b"der-1", b"der-2"]
        digest = wire.cert_list_digest(certs)
        copied = [bytes(c) for c in certs]
        assert wire.cert_list_digest(copied) == digest

    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            wire.cert_list_digest([])

    def test_carried_hashes_give_the_same_digest(self):
        certs = [b"der-%d" % i * (i + 1) for i in range(5)]
        hashes = [hashlib.sha256(b"\x68" + c).digest() for c in certs]
        assert wire.cert_list_digest(certs, hashes) == wire.cert_list_digest(certs)


class TestListCodec:
    def test_one_pass_layout(self):
        items = [b"", b"a", b"bc" * 300]
        encoded = wire.encode_list(items)
        expected = b"".join(wire.pack(wire.TAG_BYTES, item) for item in items)
        assert encoded == wire.pack(wire.TAG_LIST, expected)
        assert wire.decode_list(wire.unpack_exact(encoded, wire.TAG_LIST)) == items
        assert wire.encode_list([]) == wire.pack(wire.TAG_LIST, b"")

    @pytest.mark.parametrize("payload", [
        b"\x02\x00\x00",                          # truncated header
        b"\x02\x00\x00\x00\x05abc",                 # truncated value
        b"\x03\x00\x00\x00\x01a",                   # wrong item tag
    ])
    def test_malformed_payload_rejected(self, payload):
        with pytest.raises(EncodingError):
            wire.decode_list(payload)


class TestU64Item:
    @pytest.mark.parametrize("value, payload", [
        (0, b"\x00" * 8), ((1 << 64) - 1, b"\xff" * 8),
    ])
    def test_bounds_encode_as_tag_length_value(self, value, payload):
        assert wire.U64.item(value) == bytes([wire.TAG_UINT]) + b"\x00\x00\x00\x08" + payload

    @pytest.mark.parametrize("value", [-1, 1 << 64])
    def test_out_of_range_refused(self, value):
        with pytest.raises(EncodingError, match="value out of u64 range"):
            wire.U64.item(value)


class TestCryptoCodecs:
    def test_public_key_roundtrip(self, insurer_keypair):
        blob = wire.PUBLIC_KEY.encode(insurer_keypair.public)
        assert wire.PUBLIC_KEY.decode(blob) == insurer_keypair.public

    def test_group_params_roundtrip(self):
        blob = wire.GROUP_PARAMS.encode(crypto.GROUP_2048_256)
        assert wire.GROUP_PARAMS.decode(blob) == crypto.GROUP_2048_256

    def test_chameleon_signature_roundtrip(self):
        sig = crypto.ChameleonSignature(12345, b"inner", b"ctx")
        blob = wire.CHAMELEON_SIGNATURE.encode(sig)
        assert wire.CHAMELEON_SIGNATURE.decode(blob) == sig

    def test_trapdoor_proof_roundtrip(self):
        proof = crypto.TrapdoorProof(3, 2, 10)
        blob = wire.TRAPDOOR_PROOF.encode(proof)
        assert wire.TRAPDOOR_PROOF.decode(blob) == proof

    @given(st.integers(min_value=0, max_value=2**512))
    @settings(max_examples=200, deadline=None)
    def test_varint_roundtrip(self, n):
        assert wire.decode_varint(wire.varint(n)) == n

    def test_non_minimal_varint_rejected(self):
        with pytest.raises(EncodingError):
            wire.decode_varint(b"\x00\x01")


class TestFraming:
    def test_roundtrip(self):
        buf = wire.frame(b"hello")

        offset = 0

        def read_exact(n):
            nonlocal offset
            out = buf[offset : offset + n]
            offset += n
            return out

        assert wire.read_frame(read_exact) == b"hello"

    def test_length_prefix_layout(self):
        assert wire.frame(b"abc")[:4] == struct.pack(">I", 3)

    def test_iter_frames_stops_at_clean_end(self):
        buf = wire.frame(b"one") + wire.frame(b"") + wire.frame(b"three")
        assert list(wire.iter_frames(buf)) == [b"one", b"", b"three"]
        assert list(wire.iter_frames(b"")) == []

    @pytest.mark.parametrize("cut", [1, 3, 5])
    def test_iter_frames_reports_partial_frame_offset(self, cut):
        buf = wire.frame(b"one") + wire.frame(b"three")
        with pytest.raises(EncodingError, match="offset 7"):
            list(wire.iter_frames(buf[:-cut]))

    def test_only_frame_requires_exactly_one(self):
        assert wire.only_frame(wire.frame(b"x")) == b"x"
        for buf in (b"", wire.frame(b"x") * 2):
            with pytest.raises(EncodingError):
                wire.only_frame(buf)

    def test_replace_makes_a_file_only_its_owner_reads(self, tmp_path, permissive_umask):
        """Whatever the umask, and also over a leftover .tmp that others
        can read, a replaced file is mode 0600."""
        path = tmp_path / "log"
        wire.replace_frames(str(path), [b"x"])
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        leftover = tmp_path / "log.tmp"
        leftover.write_bytes(b"junk")
        assert stat.S_IMODE(os.stat(leftover).st_mode) == 0o644
        wire.replace_frames(str(path), [b"y"])
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert path.read_bytes() == wire.frame(b"y")
        assert not leftover.exists()

    def test_read_first_frame_reads_no_further(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(wire.frame(b"first") + wire.frame(b"second")[:3])
        assert wire.read_first_frame(str(path)) == b"first"
        for torn in (b"", wire.frame(b"first")[:6]):
            path.write_bytes(torn)
            with pytest.raises(EncodingError, match="no whole first frame"):
                wire.read_first_frame(str(path))

    def test_a_record_in_parts_writes_its_frame(self, tmp_path):
        """A payload given as Record.encode_parts writes the bytes of the
        record's encoding, framed, by append and by replace."""
        record = wire.pair(("n", wire.U64), ("certs", wire.BYTES_LIST))
        value = (7, [b"a" * 300, b"", b"b"])
        assert b"".join(record.encode_parts(value)) == record.encode(value)
        path = str(tmp_path / "log")
        wire.replace_frames(path, [record.encode_parts(value), b"x"])
        wire.append_frames(path, [b"y", record.encode_parts(value)])
        with open(path, "rb") as fh:
            frames = list(wire.iter_frames(fh.read()))
        assert frames == [record.encode(value), b"x", b"y", record.encode(value)]


# A record of a u64 and a list of byte strings, and an item of it.
_RECORD = wire.pair(("n", wire.U64), ("certs", wire.BYTES_LIST))
_N = wire.U64.item(7)
_CERTS = wire.encode_list([b"abc", b"de"])
_LIST_ITEMS = _CERTS[5:]


@pytest.mark.parametrize("wrap", [bytes, memoryview])
class TestRefusals:
    """Each decoder refuses a truncated header, a truncated value and
    trailing bytes with the same EncodingError message, whether it reads
    bytes or a view of a larger buffer."""

    def test_unpack(self, wrap):
        item = wire.pack(wire.TAG_BYTES, b"abcdef")
        for data, message in [
            (item[:4], "truncated TLV header"),
            (item[:-1], "truncated TLV value"),
        ]:
            with pytest.raises(EncodingError, match=f"^{message}$"):
                wire.unpack(wrap(data))
        with pytest.raises(EncodingError, match="^trailing bytes after TLV item$"):
            wire.unpack_exact(wrap(item + b"\x00"), wire.TAG_BYTES)
        assert wire.unpack(wrap(item + b"\x00")) == (wire.TAG_BYTES, b"abcdef", len(item))

    @pytest.mark.parametrize("body, message", [
        (_N + _CERTS[:4], "truncated TLV header"),
        (_N + _CERTS[:-1], "truncated TLV value"),
        (_N + _CERTS + b"\x00", "trailing bytes after last field"),
        (_N, "truncated TLV header"),
    ])
    def test_record_field_split(self, wrap, body, message):
        with pytest.raises(EncodingError, match=f"^{message}$"):
            _RECORD.decode_body(wrap(body))
        with pytest.raises(EncodingError, match=f"^{message}$"):
            _RECORD.decode(wrap(wire.pack(wire.TAG_PAIR, body)))

    def test_field_past_its_record_is_truncated(self, wrap):
        """A nested record's last field that runs on into the bytes after
        the record is refused, though the buffer holds those bytes."""
        outer = wire.pair(("inner", _RECORD), ("tail", wire.BYTES))
        inner = wire.pack(wire.TAG_PAIR, _N + _CERTS)
        short = inner[:1] + struct.pack(">I", len(_N + _CERTS) - 1) + inner[5:]
        with pytest.raises(EncodingError, match="^truncated TLV value$"):
            outer.decode_body(wrap(short + wire.pack(wire.TAG_BYTES, b"")))

    @pytest.mark.parametrize("items, message", [
        (_LIST_ITEMS + b"\x02\x00", "truncated TLV header"),
        (_LIST_ITEMS[:-1], "truncated TLV value"),
        (_LIST_ITEMS + b"\x03\x00\x00\x00\x00", "unexpected list item tag 0x03"),
    ])
    def test_list_items(self, wrap, items, message):
        with pytest.raises(EncodingError, match=f"^{message}$"):
            wire.decode_list(wrap(items))
        listed = wire.pack(wire.TAG_LIST, items)
        with pytest.raises(EncodingError, match=f"^{message}$"):
            _RECORD.decode_body(wrap(_N + listed))

    def test_list_item_past_the_list_is_truncated(self, wrap):
        """A list whose last item runs on into the next field is refused."""
        cut = wire.pack(wire.TAG_LIST, _LIST_ITEMS)[:1] + struct.pack(">I", len(_LIST_ITEMS) - 1)
        body = cut + _LIST_ITEMS + _N
        record = wire.pair(("certs", wire.BYTES_LIST), ("n", wire.U64))
        with pytest.raises(EncodingError, match="^truncated TLV value$"):
            record.decode_body(wrap(body))

    def test_iter_frames(self, wrap):
        first = wire.frame(b"one")
        for data, offset in [
            (first + b"\x00\x00", 7),
            (first + wire.frame(b"three")[:-1], 7),
            (first + b"\x00", 7),
        ]:
            with pytest.raises(EncodingError, match=f"^partial frame at byte offset {offset}$"):
                list(wire.iter_frames(wrap(data)))
        with pytest.raises(EncodingError, match="^expected one frame, found 2$"):
            wire.only_frame(wrap(first + wire.frame(b"")))
        assert list(wire.iter_frames(wrap(first + first))) == [b"one", b"one"]
