"""TLV encoding: injectivity, golden vectors, the certificate-list digest,
and framing."""

import hashlib
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
