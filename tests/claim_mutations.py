"""Single-field claim mutation classes and the reject reason each must
produce.  Shared by the judge tests and the acceptance suite."""

import dataclasses

from conninsure.judge import Verdict
from conninsure.model import chameleon_context


def _flip(blob: bytes, i: int = 0) -> bytes:
    return blob[:i] + bytes([blob[i] ^ 1]) + blob[i + 1 :]


def claim_mutations(claim):
    """Yield (name, expected verdict, mutated claim) triples."""
    e = claim.evidence
    t = e.transcript
    customer = claim.contract.customer

    def with_transcript(**kw):
        return dataclasses.replace(
            claim,
            evidence=dataclasses.replace(e, transcript=dataclasses.replace(t, **kw)),
        )

    yield "chsig_certs.inner_sig", Verdict.BAD_CERT_SIG, dataclasses.replace(
        claim, chsig_certs=dataclasses.replace(
            claim.chsig_certs, inner_sig=_flip(claim.chsig_certs.inner_sig)
        )
    )
    yield "chsig_certs.r", Verdict.BAD_CERT_SIG, dataclasses.replace(
        claim, chsig_certs=dataclasses.replace(
            claim.chsig_certs, r=claim.chsig_certs.r ^ 1
        )
    )
    yield "chsig_vouchers.inner_sig", Verdict.BAD_VOUCHER_SIG, dataclasses.replace(
        claim, chsig_vouchers=dataclasses.replace(
            claim.chsig_vouchers, inner_sig=_flip(claim.chsig_vouchers.inner_sig)
        )
    )
    yield "chsig_vouchers.r", Verdict.BAD_VOUCHER_SIG, dataclasses.replace(
        claim, chsig_vouchers=dataclasses.replace(
            claim.chsig_vouchers, r=claim.chsig_vouchers.r ^ 1
        )
    )
    # Each countersignature checked as the other step's: swapped, or
    # carrying the other step's chameleon context.
    yield "chsigs_swapped", Verdict.BAD_CERT_SIG, dataclasses.replace(
        claim, chsig_certs=claim.chsig_vouchers, chsig_vouchers=claim.chsig_certs
    )
    yield "chsig_vouchers.context", Verdict.BAD_VOUCHER_SIG, dataclasses.replace(
        claim, chsig_vouchers=dataclasses.replace(
            claim.chsig_vouchers, context=chameleon_context(customer, "Certificates")
        )
    )
    yield "chsig_certs.context", Verdict.BAD_CERT_SIG, dataclasses.replace(
        claim, chsig_certs=dataclasses.replace(
            claim.chsig_certs, context=chameleon_context(customer, "Vouchers")
        )
    )
    yield "timestamp_t", Verdict.BAD_CERT_SIG, dataclasses.replace(claim, t=claim.t + 1)
    yield "timestamp_t_prime", Verdict.BAD_VOUCHER_SIG, dataclasses.replace(
        claim, t_prime=claim.t_prime + 1
    )
    yield "cycleid", Verdict.BAD_CERT_SIG, dataclasses.replace(
        claim, cycleid=_flip(claim.cycleid)
    )
    yield "voucher_root", Verdict.BAD_VOUCHER_SIG, dataclasses.replace(
        claim, voucher_root=_flip(claim.voucher_root)
    )
    yield "merkle_sibling", Verdict.BAD_MERKLE_PATH, dataclasses.replace(
        claim, proof=dataclasses.replace(
            claim.proof,
            path=((_flip(claim.proof.path[0][0]), claim.proof.path[0][1]),)
            + claim.proof.path[1:],
        )
    )
    yield "merkle_direction", Verdict.BAD_MERKLE_PATH, dataclasses.replace(
        claim, proof=dataclasses.replace(
            claim.proof,
            path=((claim.proof.path[0][0], not claim.proof.path[0][1]),)
            + claim.proof.path[1:],
        )
    )
    yield "voucher_domain", Verdict.BAD_MERKLE_PATH, dataclasses.replace(
        claim, evidence=dataclasses.replace(
            e, voucher=dataclasses.replace(e.voucher, domain="elsewhere.example.org")
        )
    )
    yield "voucher_r", Verdict.BAD_MERKLE_PATH, dataclasses.replace(
        claim, evidence=dataclasses.replace(
            e, voucher=dataclasses.replace(e.voucher, r=_flip(e.voucher.r))
        )
    )
    yield "cert_index", Verdict.CERT_NOT_IN_LIST, dataclasses.replace(
        claim, cert_index=(claim.cert_index + 1) % len(claim.certs)
    )
    yield "evidence_cert", Verdict.CERT_NOT_IN_LIST, dataclasses.replace(
        claim, evidence=dataclasses.replace(e, cert_bob=claim.certs[0])
    )
    yield "client_random_hash_byte", Verdict.VOUCHER_MISMATCH, with_transcript(
        client_random=_flip(t.client_random, 10)
    )
    yield "client_random_time_byte", Verdict.BAD_TLS_SIG, with_transcript(
        client_random=_flip(t.client_random, 0)
    )
    yield "server_random", Verdict.BAD_TLS_SIG, with_transcript(
        server_random=_flip(t.server_random)
    )
    yield "server_dh_params", Verdict.BAD_TLS_SIG, with_transcript(
        server_dh_params=_flip(t.server_dh_params)
    )
    yield "tls_signature", Verdict.BAD_TLS_SIG, with_transcript(
        signature=_flip(t.signature)
    )
    yield "tls_algorithm_unknown", Verdict.BAD_TLS_SIG, with_transcript(
        hash_alg=0, sig_alg=0
    )
    # sha256/rsa on the Ed25519 certificate of every claim these get.
    yield "tls_algorithm_of_another_scheme", Verdict.BAD_TLS_SIG, with_transcript(
        hash_alg=4, sig_alg=1
    )
