"""Handshake fragment: client_random layout, signed_params byte exactness,
evidence extraction, and the mitm path."""

import struct
from datetime import datetime, timezone

import pytest

from conninsure import crypto, tlssim
from conninsure.errors import EvidenceError, KeyFormatError
from conninsure.model import Voucher
from conninsure.rand import RandomSource
from support import load_hex_fixture

CYCLEID = bytes(range(32))


def _voucher(domain="bob.example.org", r=b"\x21" * 32):
    return Voucher(7, domain, CYCLEID, r)


class TestClientHello:
    def test_length(self):
        assert len(tlssim.client_hello(_voucher(), 1_700_000_000)) == 32

    def test_random_bytes_embed_voucher_hash(self):
        v = _voucher()
        out = tlssim.client_hello(v, 1_700_000_000)
        assert out[4:] == crypto.hash_h28(v.to_bytes())

    def test_gmt_unix_time_prefix(self):
        out = tlssim.client_hello(_voucher(), 1_700_000_123)
        assert out[:4] == struct.pack(">I", 1_700_000_123)

    def test_distinct_r_distinct_randoms(self):
        rng = RandomSource(3)
        seen = set()
        for _ in range(100):
            v = _voucher(r=rng.bytes(32))
            seen.add(tlssim.client_hello(v, 0)[4:])
        assert len(seen) == 100


class TestSignedParamsLayout:
    def test_golden_blob(self):
        """Bit-exact known answer for the signed byte string."""
        blob = tlssim.signed_params_bytes(
            bytes(range(32)),
            bytes(range(32, 64)),
            tlssim.encode_server_dh_params(23, 4, 18),
        )
        assert blob == load_hex_fixture("signed_params_golden.hex")

    def test_golden_blob_independent_encoder(self):
        """Same bytes from a from-scratch struct encoder."""

        def vec(n):
            raw = n.to_bytes((n.bit_length() + 7) // 8 or 1, "big")
            return struct.pack(">H", len(raw)) + raw

        blob = bytes(range(32)) + bytes(range(32, 64)) + vec(23) + vec(4) + vec(18)
        assert blob == load_hex_fixture("signed_params_golden.hex")

    def test_exact_concatenation(self):
        cr, sr, dh = b"\x01" * 32, b"\x02" * 32, b"\x03\x04"
        assert tlssim.signed_params_bytes(cr, sr, dh) == cr + sr + dh


class TestServerKeyExchange:
    def test_honest_transcript_verifies(self, rng):
        server = tlssim.SimServer.create("bob.example.org", rng=rng, now=1000)
        v = _voucher()
        transcript = server.handshake(tlssim.client_hello(v, 1000), 1000, rng)
        assert tlssim.verify_transcript_signature(server.presented_cert, transcript)

    def test_flipped_dh_byte_fails(self, rng):
        server = tlssim.SimServer.create("bob.example.org", rng=rng, now=1000)
        transcript = server.handshake(tlssim.client_hello(_voucher(), 1000), 1000, rng)
        dh = bytearray(transcript.server_dh_params)
        dh[-1] ^= 1
        tampered = type(transcript)(
            transcript.client_random,
            transcript.server_random,
            bytes(dh),
            transcript.signature,
            transcript.hash_alg,
            transcript.sig_alg,
        )
        assert not tlssim.verify_transcript_signature(server.presented_cert, tampered)

    def test_explicit_randoms_op(self, rng):
        server = tlssim.SimServer.create("bob.example.org", rng=rng, now=1000)
        cr, sr = b"\x0a" * 32, b"\x0b" * 32
        transcript = server.key_exchange(cr, sr, rng)
        assert transcript.client_random == cr and transcript.server_random == sr
        assert tlssim.verify_transcript_signature(server.presented_cert, transcript)

    def test_rsa_server(self, rng):
        server = tlssim.SimServer.create(
            "bob.example.org", crypto.SCHEME_RSA_SHA256, rng, now=1000
        )
        transcript = server.handshake(tlssim.client_hello(_voucher(), 1000), 1000, rng)
        assert (transcript.hash_alg, transcript.sig_alg) == (4, 1)
        assert tlssim.verify_transcript_signature(server.presented_cert, transcript)

    def test_ed25519_alg_ids(self, rng):
        server = tlssim.SimServer.create("bob.example.org", rng=rng, now=1000)
        transcript = server.handshake(tlssim.client_hello(_voucher(), 1000), 1000, rng)
        assert (transcript.hash_alg, transcript.sig_alg) == (8, 7)


def _ec_cert() -> bytes:
    """A self-signed certificate on an EC P-256 key, which no scheme uses."""
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "bob.example.org")])
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(1)
        .not_valid_before(datetime(2020, 1, 1, tzinfo=timezone.utc))
        .not_valid_after(datetime(2030, 1, 1, tzinfo=timezone.utc))
        .sign(key, hashes.SHA256())
    )
    return cert.public_bytes(serialization.Encoding.DER)


class TestUnsupportedCertificateKey:
    def test_cert_public_key_refuses_it(self):
        with pytest.raises(KeyFormatError):
            tlssim.cert_public_key(_ec_cert())

    def test_transcript_signature_does_not_verify(self, rng):
        server = tlssim.SimServer.create("bob.example.org", rng=rng, now=1000)
        transcript = server.handshake(tlssim.client_hello(_voucher(), 1000), 1000, rng)
        assert not tlssim.verify_transcript_signature(_ec_cert(), transcript)


class TestExtractEvidence:
    def test_honest_handshake_stored(self, rng):
        server = tlssim.SimServer.create("bob.example.org", rng=rng, now=1000)
        v = _voucher()
        transcript = server.handshake(tlssim.client_hello(v, 1000), 1000, rng)
        evidence = tlssim.extract_evidence(transcript, v, server.presented_cert)
        assert evidence.voucher == v
        tlssim.validate_evidence(evidence)

    def test_mitm_substituted_cert_still_yields_evidence(self, rng):
        """The insurance case: a valid signature under the rogue certificate."""
        server = tlssim.SimServer.create("bob.example.org", rng=rng, now=1000)
        rogue_cert, rogue_key = tlssim.make_self_signed_cert(
            "bob.example.org", rng=rng, now=1000
        )
        server.substitute(rogue_cert, rogue_key, crypto.SCHEME_ED25519)
        assert server.behavior == "mitm"
        v = _voucher()
        transcript = server.handshake(tlssim.client_hello(v, 1000), 1000, rng)
        evidence = tlssim.extract_evidence(transcript, v, server.presented_cert)
        assert evidence.cert_bob == rogue_cert

    def test_replay_with_other_voucher_rejected(self, rng):
        server = tlssim.SimServer.create("bob.example.org", rng=rng, now=1000)
        v = _voucher()
        transcript = server.handshake(tlssim.client_hello(v, 1000), 1000, rng)
        other = _voucher(r=b"\x22" * 32)
        with pytest.raises(EvidenceError):
            tlssim.extract_evidence(transcript, other, server.presented_cert)

    def test_wrong_cert_rejected(self, rng):
        server = tlssim.SimServer.create("bob.example.org", rng=rng, now=1000)
        other_cert, _ = tlssim.make_self_signed_cert("eve.example.org", rng=rng, now=1000)
        v = _voucher()
        transcript = server.handshake(tlssim.client_hello(v, 1000), 1000, rng)
        with pytest.raises(EvidenceError):
            tlssim.extract_evidence(transcript, v, other_cert)

    def test_cross_module_h28_roundtrip(self, rng):
        """client_random bytes 4..32 equal hash_h28 of the voucher encoding."""
        server = tlssim.SimServer.create("bob.example.org", rng=rng, now=1000)
        v = _voucher()
        transcript = server.handshake(tlssim.client_hello(v, 1234), 1234, rng)
        evidence = tlssim.extract_evidence(transcript, v, server.presented_cert)
        assert evidence.transcript.client_random[4:] == crypto.hash_h28(v.to_bytes())
