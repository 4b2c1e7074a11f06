"""Offline dispute resolution: claim verification and denial resolution.

A claim is accepted only if the three facts hold for the asserted cycle:
the certificate list was endorsed (and contains the presented certificate),
the voucher root was endorsed in time, and the voucher chains through the
Merkle path and the TLS server signature to the claimed domain.  Verdicts
are pure functions of the claim bytes and the insurer's public key;
rogue-ness of the certificate is an externally established input.
"""

import enum

from . import crypto, merkle, tlssim, wire
from .errors import ClaimFormatError, ParameterError
from .model import PAD_DOMAIN, Claim, chameleon_context


class Verdict(enum.Enum):
    ACCEPT = "ACCEPT"
    BAD_CERT_SIG = "BAD_CERT_SIG"
    CERT_NOT_IN_LIST = "CERT_NOT_IN_LIST"
    BAD_VOUCHER_SIG = "BAD_VOUCHER_SIG"
    UPDATE_LATE = "UPDATE_LATE"
    BAD_MERKLE_PATH = "BAD_MERKLE_PATH"
    VOUCHER_MISMATCH = "VOUCHER_MISMATCH"
    BAD_TLS_SIG = "BAD_TLS_SIG"
    DOMAIN_MISMATCH = "DOMAIN_MISMATCH"
    NOT_ASSERTED_ROGUE = "NOT_ASSERTED_ROGUE"


class Ruling(enum.Enum):
    CUSTOMER_FORGED = "CUSTOMER_FORGED"
    INSURER_BOUND = "INSURER_BOUND"


def certificate_names(cert_der: bytes) -> list[str]:
    """Subject identity hook: common name plus DNS subject-alternative-names."""
    from cryptography import x509
    from cryptography.x509.oid import ExtensionOID, NameOID

    cert = x509.load_der_x509_certificate(cert_der)
    names = [
        attr.value.lower()
        for attr in cert.subject.get_attributes_for_oid(NameOID.COMMON_NAME)
    ]
    try:
        san = cert.extensions.get_extension_for_oid(
            ExtensionOID.SUBJECT_ALTERNATIVE_NAME
        )
        names.extend(n.lower() for n in san.value.get_values_for_type(x509.DNSName))
    except x509.ExtensionNotFound:
        pass
    return names


def cert_matches_domain(cert_der: bytes, domain: str) -> bool:
    try:
        return domain.lower() in certificate_names(cert_der)
    except ValueError:
        return False


def verify_claim(claim: Claim, pk_in: crypto.PublicKey, rogue_asserted: bool) -> Verdict:
    """Settle one insurance-case claim against the insurer's public key."""
    contract = claim.contract
    contract.validate()
    if not claim.certs:
        raise ClaimFormatError("claim carries an empty certificate list")
    customer = contract.customer

    certs_payload = wire.encode_signed_payload(
        "Certificates",
        customer,
        claim.cycleid,
        claim.t,
        wire.cert_list_digest(list(claim.certs)),
    )
    ok = crypto.chameleon_verify(
        pk_in,
        contract.chameleon,
        certs_payload,
        claim.chsig_certs,
        context=chameleon_context(customer, "Certificates"),
    )
    if not ok:
        return Verdict.BAD_CERT_SIG

    if (
        claim.cert_index >= len(claim.certs)
        or claim.certs[claim.cert_index] != claim.evidence.cert_bob
    ):
        return Verdict.CERT_NOT_IN_LIST

    vouchers_payload = wire.encode_signed_payload(
        "Vouchers", customer, claim.cycleid, claim.t_prime, claim.voucher_root
    )
    ok = crypto.chameleon_verify(
        pk_in,
        contract.chameleon,
        vouchers_payload,
        claim.chsig_vouchers,
        context=chameleon_context(customer, "Vouchers"),
    )
    if not ok:
        return Verdict.BAD_VOUCHER_SIG

    if not contract.covers(claim.t, claim.t_prime):
        return Verdict.UPDATE_LATE

    voucher = claim.evidence.voucher
    leaf = merkle.leaf_digest(voucher)
    if not merkle.verify_inclusion(claim.voucher_root, leaf, claim.proof):
        return Verdict.BAD_MERKLE_PATH

    transcript = claim.evidence.transcript
    if (
        voucher.customer != customer
        or voucher.cycleid != claim.cycleid
        or voucher.domain == PAD_DOMAIN
        or not tlssim.embeds_voucher(transcript, voucher)
    ):
        return Verdict.VOUCHER_MISMATCH

    if not tlssim.verify_transcript_signature(claim.evidence.cert_bob, transcript):
        return Verdict.BAD_TLS_SIG

    if not cert_matches_domain(claim.evidence.cert_bob, voucher.domain):
        return Verdict.DOMAIN_MISMATCH

    if not rogue_asserted:
        return Verdict.NOT_ASSERTED_ROGUE
    return Verdict.ACCEPT


def verify_claim_bytes(
    data: bytes, pk_in: crypto.PublicKey, rogue_asserted: bool
) -> Verdict:
    """Parse and verify a .ciclaim document; parse errors raise, rejects return."""
    try:
        claim = Claim.from_bytes(data)
    except ClaimFormatError:
        raise
    except Exception as exc:
        raise ClaimFormatError(f"claim does not parse: {exc}") from exc
    return verify_claim(claim, pk_in, rogue_asserted)


def resolve_denial(
    pk_in: crypto.PublicKey,
    recipient: crypto.ChameleonPublicKey,
    message: bytes,
    sig: crypto.ChameleonSignature,
    record: tuple[bytes, int] | None,
) -> Ruling:
    """Decide whether a disputed chameleon signature binds the insurer.

    The insurer escapes liability only by exhibiting a logged message with
    the same chameleon hash but different content: such a collision can
    only come from the trapdoor holder, so the customer forged it.
    """
    params = recipient.params
    if not 0 <= sig.r < params.q:
        raise ParameterError("disputed signature does not verify at all")
    disputed_ch = crypto.chameleon_hash(params, recipient.y, message, sig.r)
    digest = crypto._chameleon_digest(params, disputed_ch, sig.context)
    if not crypto.verify(pk_in, digest, sig.inner_sig):
        raise ParameterError("disputed signature does not verify at all")
    if record is None:
        return Ruling.INSURER_BOUND
    recorded_message, recorded_r = record
    # The disputed pair itself shows no collision, whatever its CH, and its
    # r has passed the range check: no second CH is needed.
    if recorded_message == message and recorded_r == sig.r:
        return Ruling.INSURER_BOUND
    try:
        recorded_ch = crypto.chameleon_hash(params, recipient.y, recorded_message, recorded_r)
    except ParameterError:
        return Ruling.INSURER_BOUND
    return Ruling.CUSTOMER_FORGED if recorded_ch == disputed_ch else Ruling.INSURER_BOUND
