"""Byte-exact simulation of the TLS 1.2 DHE handshake fragment that turns
web servers into unwitting voucher signers: a ClientHello random carrying
the voucher hash, and a ServerKeyExchange whose signed_params structure
covers it.

Only the signed fragment is simulated; record-layer encryption and key
derivation are out of scope.  The signature input is exactly
client_random(32) || server_random(32) || ServerDHParams, where each DH
vector carries a 2-byte big-endian length prefix (RFC 5246 section 7.4.3).
"""

import struct
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from . import crypto
from .errors import EncodingError, EvidenceError, KeyFormatError, ParameterError
from .model import HandshakeTranscript, Voucher, VoucherEvidence
from .rand import DEFAULT, RandomSource

# (HashAlgorithm, SignatureAlgorithm) ids from the TLS registries:
# sha256=4 / rsa=1, intrinsic=8 / ed25519=7.
SIG_ALG_BY_SCHEME = {
    crypto.SCHEME_ED25519: (8, 7),
    crypto.SCHEME_RSA_SHA256: (4, 1),
}
SCHEME_BY_SIG_ALG = {v: k for k, v in SIG_ALG_BY_SCHEME.items()}


def client_hello(voucher: Voucher, now: int) -> bytes:
    """ClientHello random: 4-byte gmt_unix_time || 28-byte voucher hash."""
    return struct.pack(">I", now & 0xFFFFFFFF) + crypto.hash_h28(voucher.to_bytes())


def _dh_vector(value: int) -> bytes:
    blob = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    if len(blob) > 0xFFFF:
        raise EncodingError("DH vector exceeds 2^16-1 bytes")
    return struct.pack(">H", len(blob)) + blob


def encode_server_dh_params(p: int, g: int, ys: int) -> bytes:
    """ServerDHParams: opaque dh_p, dh_g, dh_Ys, each length-prefixed."""
    return _dh_vector(p) + _dh_vector(g) + _dh_vector(ys)


def signed_params_bytes(
    client_random: bytes, server_random: bytes, server_dh_params: bytes
) -> bytes:
    """The exact byte string the server signs: no more, no less."""
    return client_random + server_random + server_dh_params


# ---------------------------------------------------------------------------
# Certificates for simulated servers
# ---------------------------------------------------------------------------


def make_self_signed_cert(
    domain: str,
    scheme_id: int = crypto.SCHEME_ED25519,
    rng: RandomSource = DEFAULT,
    now: int = 0,
) -> tuple[bytes, bytes]:
    """Generate (certificate DER, secret key bytes) for one domain, valid a year."""
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.x509.oid import NameOID

    # A voucher carries its domain as ASCII text, and a common name holds 1
    # to 64 characters.  The checks come before any draw from rng, so that
    # seeded runs keep their bytes.
    if not domain.isascii():
        raise ParameterError(f"domain {domain!r} is not ASCII")
    if not 1 <= len(domain) <= 64:
        raise ParameterError(f"domain {domain!r} is not 1 to 64 characters long")
    secret = crypto.generate_sig_keypair(scheme_id, rng).secret
    key = crypto.private_key(scheme_id, secret)
    # Ed25519 takes no separate hash; RSA certificates are signed over SHA-256.
    cert_hash = hashes.SHA256() if scheme_id == crypto.SCHEME_RSA_SHA256 else None
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, domain)])
    not_before = datetime.fromtimestamp(now, tz=timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(int.from_bytes(rng.bytes(16), "big") | 1)
        .not_valid_before(not_before)
        .not_valid_after(not_before + timedelta(days=365))
        .add_extension(x509.SubjectAlternativeName([x509.DNSName(domain)]), False)
        .sign(key, cert_hash)
    )
    return cert.public_bytes(serialization.Encoding.DER), secret


def cert_public_key(cert_der: bytes) -> crypto.PublicKey:
    """Extract the subject public key of a DER certificate as a PublicKey."""
    from cryptography import x509

    return crypto.public_key(x509.load_der_x509_certificate(cert_der).public_key())


def verify_transcript_signature(cert_der: bytes, transcript: HandshakeTranscript) -> bool:
    """Check the ServerKeyExchange signature under the certificate's key."""
    scheme = SCHEME_BY_SIG_ALG.get((transcript.hash_alg, transcript.sig_alg))
    if scheme is None:
        return False
    try:
        public = cert_public_key(cert_der)
    except (KeyFormatError, ValueError):
        return False
    if public.scheme_id != scheme:
        return False
    blob = signed_params_bytes(
        transcript.client_random, transcript.server_random, transcript.server_dh_params
    )
    return crypto.verify(public, blob, transcript.signature)


# ---------------------------------------------------------------------------
# Simulated server
# ---------------------------------------------------------------------------


@dataclass
class _Identity:
    scheme_id: int
    cert_der: bytes
    secret: bytes


class SimServer:
    """Stand-in for a TLS 1.2 web server; oblivious to the voucher protocol.

    In mitm mode the server presents a substituted certificate whose key
    the attacker controls but whose subject is the impersonated domain.
    """

    def __init__(
        self,
        domain: str,
        cert_der: bytes,
        secret: bytes,
        scheme_id: int = crypto.SCHEME_ED25519,
        dh_group: crypto.GroupParams = crypto.GROUP_2048_256,
    ):
        self.domain = domain
        self._honest = _Identity(scheme_id, cert_der, secret)
        self._presented = self._honest
        self.dh_group = dh_group

    @classmethod
    def create(
        cls,
        domain: str,
        scheme_id: int = crypto.SCHEME_ED25519,
        rng: RandomSource = DEFAULT,
        now: int = 0,
        dh_group: crypto.GroupParams = crypto.GROUP_2048_256,
    ) -> "SimServer":
        cert, secret = make_self_signed_cert(domain, scheme_id, rng, now)
        return cls(domain, cert, secret, scheme_id, dh_group)

    @property
    def presented_cert(self) -> bytes:
        return self._presented.cert_der

    def substitute(self, cert_der: bytes, secret: bytes, scheme_id: int) -> None:
        """Switch to an attacker-controlled key pair (mitm behavior)."""
        self._presented = _Identity(scheme_id, cert_der, secret)

    def restore(self) -> None:
        self._presented = self._honest

    def _sign(self, blob: bytes) -> bytes:
        ident = self._presented
        keypair = crypto.SigKeyPair(
            crypto.PublicKey(ident.scheme_id, b""), ident.secret
        )
        return crypto.sign(keypair, blob)

    def key_exchange(
        self, client_random: bytes, server_random: bytes, rng: RandomSource = DEFAULT
    ) -> HandshakeTranscript:
        """ServerKeyExchange over explicit randoms (the server role of the op)."""
        group = self.dh_group
        x = 1 + rng.below(group.q - 1)
        dh_params = encode_server_dh_params(
            group.p, group.g, crypto.modexp(group.g, x, group.p)
        )
        blob = signed_params_bytes(client_random, server_random, dh_params)
        hash_alg, sig_alg = SIG_ALG_BY_SCHEME[self._presented.scheme_id]
        return HandshakeTranscript(
            client_random=client_random,
            server_random=server_random,
            server_dh_params=dh_params,
            signature=self._sign(blob),
            hash_alg=hash_alg,
            sig_alg=sig_alg,
        )

    def handshake(
        self, client_random: bytes, now: int, rng: RandomSource = DEFAULT
    ) -> HandshakeTranscript:
        server_random = struct.pack(">I", now & 0xFFFFFFFF) + rng.bytes(28)
        return self.key_exchange(client_random, server_random, rng)


# ---------------------------------------------------------------------------
# Evidence extraction
# ---------------------------------------------------------------------------


def embeds_voucher(transcript: HandshakeTranscript, voucher: Voucher) -> bool:
    """Whether the ClientHello random carries the voucher hash, as client_hello puts it."""
    return transcript.client_random[4:] == crypto.hash_h28(voucher.to_bytes())


def validate_evidence(evidence) -> None:
    """Raise EvidenceError unless the evidence invariants hold."""
    transcript = evidence.transcript
    if not embeds_voucher(transcript, evidence.voucher):
        raise EvidenceError("client_random does not embed the voucher hash")
    if not verify_transcript_signature(evidence.cert_bob, transcript):
        raise EvidenceError("server signature does not verify")


def extract_evidence(
    transcript: HandshakeTranscript, voucher: Voucher, presented_cert: bytes
):
    """Bundle transcript + voucher + certificate, refusing invalid evidence."""
    evidence = VoucherEvidence(presented_cert, voucher, transcript)
    validate_evidence(evidence)
    return evidence
