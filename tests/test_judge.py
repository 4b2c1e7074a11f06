"""Judge: the three-part claim proof, reject reason codes, soundness under
single-field mutation, and denial resolution through the record log."""

import dataclasses
from datetime import datetime

import pytest

from support import one_byte_short, short_r_voucher
from conninsure import crypto, judge, tlssim
from conninsure.client import ClientState
from conninsure.errors import ClaimFormatError, ParameterError
from conninsure.insurer import Insurer
from conninsure.judge import Ruling, Verdict
from conninsure.model import Claim, Voucher
from conninsure.rand import RandomSource
from conninsure.scenario import SimClock, run_scenario
from conninsure.transport import InProcessChannel


@pytest.fixture(scope="module")
def mitm_world():
    """One deterministic mitm run shared by the read-only tests below."""
    report = run_scenario("mitm", cycles=4, domains=6, seed=21, rogue_cycle=2)
    claim = Claim.from_bytes(report.claim_bytes)
    return report, claim


class TestVerifyClaim:
    def test_end_to_end_accept(self, mitm_world):
        report, claim = mitm_world
        verdict = judge.verify_claim(claim, report.insurer_public, rogue_asserted=True)
        assert verdict is Verdict.ACCEPT

    def test_rogue_not_asserted(self, mitm_world):
        report, claim = mitm_world
        verdict = judge.verify_claim(claim, report.insurer_public, rogue_asserted=False)
        assert verdict is Verdict.NOT_ASSERTED_ROGUE

    def test_verdict_is_pure_function_of_bytes(self, mitm_world):
        report, claim = mitm_world
        reparsed = Claim.from_bytes(report.claim_bytes)
        for _ in range(2):
            assert judge.verify_claim(
                reparsed, report.insurer_public, True
            ) is Verdict.ACCEPT

    def test_update_late_boundary(self, mitm_world):
        """t' - t == delta_t accepts; one second more returns UPDATE_LATE."""
        report, claim = mitm_world
        at_bound = dataclasses.replace(
            claim,
            contract=dataclasses.replace(
                claim.contract, delta_t=claim.t_prime - claim.t
            ),
        )
        assert judge.verify_claim(at_bound, report.insurer_public, True) is Verdict.ACCEPT
        past_bound = dataclasses.replace(
            claim,
            contract=dataclasses.replace(
                claim.contract, delta_t=claim.t_prime - claim.t - 1
            ),
        )
        assert (
            judge.verify_claim(past_bound, report.insurer_public, True)
            is Verdict.UPDATE_LATE
        )

    def test_cert_absent_from_list(self, mitm_world):
        report, claim = mitm_world
        pruned = dataclasses.replace(
            claim,
            certs=tuple(c for c in claim.certs if c != claim.evidence.cert_bob),
        )
        assert (
            judge.verify_claim(pruned, report.insurer_public, True)
            is not Verdict.ACCEPT
        )

    def test_voucher_from_other_customer_mismatch(self, mitm_world):
        """A foreign voucher inside one's own tree trips the field check."""
        report, claim = mitm_world
        foreign = Voucher(
            claim.contract.customer + 1,
            claim.evidence.voucher.domain,
            claim.cycleid,
            claim.evidence.voucher.r,
        )
        # adversarial rebuild: tree over the foreign voucher, honest root swap
        from conninsure import merkle

        tree = merkle.build_tree(
            [foreign], len(claim.certs), b"\x31" * 32,
            foreign.customer, claim.cycleid,
        )
        proof = merkle.prove_inclusion(tree, foreign)
        reworked = dataclasses.replace(
            claim,
            voucher_root=tree.root,
            proof=proof,
            evidence=dataclasses.replace(claim.evidence, voucher=foreign),
        )
        # the voucher-root countersignature no longer matches first
        assert (
            judge.verify_claim(reworked, report.insurer_public, True)
            is Verdict.BAD_VOUCHER_SIG
        )

    def test_reused_foreign_voucher_mismatch_end_to_end(self):
        """Smuggling another customer's voucher into one's own tree earns a
        genuine countersignature over the root, but the customer number
        inside the voucher gives it away."""
        from conninsure.insurer import Insurer, RegistrationRequest
        from conninsure.merkle import build_tree, prove_inclusion
        from conninsure.model import (
            Claim,
            registration_context,
        )
        from conninsure import tlssim, wire

        rng = RandomSource(41)
        now = 1_700_000_000
        server = tlssim.SimServer.create("bob.example.org", rng=rng, now=now)
        insurer = Insurer.setup([server.presented_cert], rng=rng)
        keypair = crypto.generate_sig_keypair(rng=rng)
        chameleon = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng)
        proof = crypto.prove_trapdoor(
            chameleon, registration_context(keypair.public), rng
        )
        contract = insurer.register(
            RegistrationRequest(keypair.public, chameleon.public, proof, 86_400), now
        )

        cycleid, _, _, certs = insurer.begin_cycle(contract.customer, b"", now)
        ack_payload = wire.encode_signed_payload(
            "Certificates", contract.customer, cycleid, now,
            wire.cert_list_digest(certs),
        )
        chsig_certs = insurer.ack_certificates(
            contract.customer, cycleid, now, crypto.sign(keypair, ack_payload), now
        )

        # the smuggled voucher names a different customer
        foreign = Voucher(contract.customer + 9, "bob.example.org", cycleid,
                          b"\x44" * 32)
        transcript = server.handshake(tlssim.client_hello(foreign, now), now, rng)
        evidence = tlssim.extract_evidence(transcript, foreign, server.presented_cert)

        tree = build_tree([foreign], len(certs), b"\x42" * 32,
                          foreign.customer, cycleid)
        submit_payload = wire.encode_signed_payload(
            "Vouchers", contract.customer, cycleid, now, tree.root
        )
        chsig_vouchers, _ = insurer.accept_vouchers(
            contract.customer, cycleid, now, tree.root,
            crypto.sign(keypair, submit_payload), now,
        )

        claim = Claim(
            contract=contract,
            certs=tuple(certs),
            cycleid=cycleid,
            t=now,
            t_prime=now,
            chsig_certs=chsig_certs,
            chsig_vouchers=chsig_vouchers,
            voucher_root=tree.root,
            proof=prove_inclusion(tree, foreign),
            evidence=evidence,
            cert_index=0,
        )
        verdict = judge.verify_claim(claim, insurer.keypair.public, True)
        assert verdict is Verdict.VOUCHER_MISMATCH

    def test_malformed_claim_is_parse_error(self, mitm_world):
        report, _ = mitm_world
        with pytest.raises(ClaimFormatError):
            judge.verify_claim_bytes(
                report.claim_bytes[:40], report.insurer_public, True
            )

    def test_voucher_its_type_refuses_is_parse_error(self, mitm_world):
        report, claim = mitm_world
        evidence = claim.evidence
        bad = dataclasses.replace(
            claim,
            evidence=dataclasses.replace(evidence, voucher=short_r_voucher(evidence.voucher)),
        )
        with pytest.raises(ClaimFormatError, match="voucher randomness must be 32 bytes"):
            judge.verify_claim_bytes(bad.to_bytes(), report.insurer_public, True)

    @pytest.mark.parametrize("field, match", [
        ("voucher.cycleid", "cycleid must be 32 bytes"),
        ("transcript.client_random", "handshake randoms must be 32 bytes"),
        ("proof.sibling", "digest field must be 32 bytes"),
    ])
    def test_field_one_byte_short_is_parse_error(self, mitm_world, field, match):
        report, claim = mitm_world
        e = claim.evidence
        (sibling, right), *rest = claim.proof.path
        bad = {
            "voucher.cycleid": dataclasses.replace(claim, evidence=dataclasses.replace(
                e, voucher=one_byte_short(e.voucher, "cycleid"))),
            "transcript.client_random": dataclasses.replace(claim, evidence=dataclasses.replace(
                e, transcript=one_byte_short(e.transcript, "client_random"))),
            "proof.sibling": dataclasses.replace(claim, proof=dataclasses.replace(
                claim.proof, path=((sibling[:-1], right), *rest))),
        }[field]
        with pytest.raises(ClaimFormatError, match=match):
            judge.verify_claim_bytes(bad.to_bytes(), report.insurer_public, True)

    @pytest.mark.parametrize("terms, match", [
        (lambda contract: {"t_end": contract.t0}, "contract validity term is empty"),
        (lambda contract: {"pk_a": crypto.PublicKey(99, contract.pk_a.data)},
         "unknown scheme id 99"),
    ], ids=["empty-term", "applicant-key-scheme-99"])
    def test_contract_the_insurer_could_not_sign_is_format_error(
        self, mitm_world, terms, match
    ):
        report, claim = mitm_world
        contract = dataclasses.replace(claim.contract, **terms(claim.contract))
        with pytest.raises(ClaimFormatError, match=match):
            judge.verify_claim(
                dataclasses.replace(claim, contract=contract), report.insurer_public, True
            )

    def test_empty_certs_is_format_error(self, mitm_world):
        report, claim = mitm_world
        hollow = dataclasses.replace(claim, certs=())
        with pytest.raises(ClaimFormatError):
            judge.verify_claim(hollow, report.insurer_public, True)

    def test_broken_trapdoor_proof_is_format_error(self, mitm_world):
        report, claim = mitm_world
        bad_contract = dataclasses.replace(
            claim.contract,
            trapdoor_proof=crypto.TrapdoorProof(1, 2, 3),
        )
        with pytest.raises(ClaimFormatError):
            judge.verify_claim(
                dataclasses.replace(claim, contract=bad_contract),
                report.insurer_public,
                True,
            )


class TestMutationSoundness:
    def test_every_single_field_mutation_flips_verdict(self, mitm_world):
        from claim_mutations import claim_mutations

        report, claim = mitm_world
        assert judge.verify_claim(claim, report.insurer_public, True) is Verdict.ACCEPT
        names = []
        for name, expected, mutated in claim_mutations(claim):
            # survive the codec: verdicts are functions of the claim bytes
            reparsed = Claim.from_bytes(mutated.to_bytes())
            verdict = judge.verify_claim(reparsed, report.insurer_public, True)
            assert verdict is expected, f"{name}: {verdict} != {expected}"
            names.append(name)
        assert len(names) >= 12


class TestSubjectMatching:
    def test_names_extracted(self, rng):
        cert, _ = tlssim.make_self_signed_cert("bob.example.org", rng=rng, now=0)
        assert "bob.example.org" in judge.certificate_names(cert)

    def test_match_case_insensitive(self, rng):
        cert, _ = tlssim.make_self_signed_cert("Bob.Example.Org", rng=rng, now=0)
        assert judge.cert_matches_domain(cert, "bob.example.org")

    def test_wrong_domain_rejected(self, rng):
        cert, _ = tlssim.make_self_signed_cert("bob.example.org", rng=rng, now=0)
        assert not judge.cert_matches_domain(cert, "eve.example.org")

    def test_names_without_a_san_extension_are_the_common_name(self):
        from cryptography import x509
        from cryptography.hazmat.primitives import serialization
        from cryptography.hazmat.primitives.asymmetric import ed25519
        from cryptography.x509.oid import NameOID

        key = ed25519.Ed25519PrivateKey.from_private_bytes(bytes(32))
        name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "Bob.Example.Org")])
        cert = (
            x509.CertificateBuilder()
            .subject_name(name)
            .issuer_name(name)
            .public_key(key.public_key())
            .serial_number(1)
            .not_valid_before(datetime(2024, 1, 1))
            .not_valid_after(datetime(2025, 1, 1))
            .sign(key, None)
        )
        der = cert.public_bytes(serialization.Encoding.DER)
        assert judge.certificate_names(der) == ["bob.example.org"]

    def test_junk_certificate_matches_no_domain(self):
        assert not judge.cert_matches_domain(b"junk", "bob.example.org")

    def test_domain_mismatch_verdict(self, mitm_world, rng):
        """Evidence signed by a cert for the wrong name trips the last check."""
        report, claim = mitm_world
        # no cheap way to forge this far honestly: splice a wrong-name cert
        # into the list position (breaks the cert-sig check instead)
        other, _ = tlssim.make_self_signed_cert("other.example.org", rng=rng, now=0)
        spliced = dataclasses.replace(
            claim,
            certs=claim.certs[: claim.cert_index]
            + (other,)
            + claim.certs[claim.cert_index + 1 :],
            evidence=dataclasses.replace(claim.evidence, cert_bob=other),
        )
        assert (
            judge.verify_claim(spliced, report.insurer_public, True)
            is Verdict.BAD_CERT_SIG
        )

    def test_vetted_cert_for_another_name_is_domain_mismatch(self):
        """browse checks that the presented certificate is listed, not that
        it names the domain: a visit to a.example.org answered with
        b.example.org's vetted certificate earns a voucher, and a claim on
        it is DOMAIN_MISMATCH."""
        rng = RandomSource(43)
        clock = SimClock()
        a, b = (
            tlssim.SimServer.create(d, rng=rng, now=clock.now)
            for d in ("a.example.org", "b.example.org")
        )
        insurer = Insurer.setup([a.presented_cert, b.presented_cert], rng=rng)
        channel = InProcessChannel(insurer, now_fn=clock)
        client = ClientState.register(
            channel, requested_delta_t=86_400, rng=rng, group=crypto.TOY_GROUP
        )
        client.do_update_cycle(channel, now=clock.now)
        assert client.browse("a.example.org", b, clock.now, rng).status == "vouched"
        record = client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        claim = client.assemble_claim(record.cycleid, "a.example.org")
        assert (
            judge.verify_claim(claim, insurer.keypair.public, True)
            is Verdict.DOMAIN_MISMATCH
        )


class TestResolveDenial:
    @pytest.fixture
    def signed_pair(self, insurer_keypair, prod_chameleon, rng):
        message = b"certified-payload"
        sig, _ = crypto.chameleon_sign(
            insurer_keypair, prod_chameleon.public, message, b"ctx", rng
        )
        return message, sig

    def test_honest_signature_binds_insurer(
        self, insurer_keypair, prod_chameleon, signed_pair
    ):
        message, sig = signed_pair
        ruling = judge.resolve_denial(
            insurer_keypair.public, prod_chameleon.public, message, sig,
            record=(message, sig.r),
        )
        assert ruling is Ruling.INSURER_BOUND

    def test_forged_collision_uncovered(
        self, insurer_keypair, prod_chameleon, signed_pair
    ):
        message, sig = signed_pair
        forged_message = b"substituted-payload"
        forged_r = crypto.find_collision(prod_chameleon, message, sig.r, forged_message)
        forged = crypto.ChameleonSignature(forged_r, sig.inner_sig, sig.context)
        ruling = judge.resolve_denial(
            insurer_keypair.public, prod_chameleon.public, forged_message, forged,
            record=(message, sig.r),
        )
        assert ruling is Ruling.CUSTOMER_FORGED

    def test_fabricated_record_does_not_exonerate(
        self, insurer_keypair, prod_chameleon, signed_pair, rng
    ):
        message, sig = signed_pair
        fake_record = (b"unrelated", rng.below(prod_chameleon.params.q))
        ruling = judge.resolve_denial(
            insurer_keypair.public, prod_chameleon.public, message, sig,
            record=fake_record,
        )
        assert ruling is Ruling.INSURER_BOUND

    def test_recorded_r_out_of_range_binds_insurer(
        self, insurer_keypair, prod_chameleon, signed_pair
    ):
        """A record whose r is not below q has no chameleon hash, so it can
        show no collision."""
        message, sig = signed_pair
        ruling = judge.resolve_denial(
            insurer_keypair.public, prod_chameleon.public, message, sig,
            record=(message, prod_chameleon.params.q),
        )
        assert ruling is Ruling.INSURER_BOUND

    def test_missing_record_binds_insurer(
        self, insurer_keypair, prod_chameleon, signed_pair
    ):
        message, sig = signed_pair
        ruling = judge.resolve_denial(
            insurer_keypair.public, prod_chameleon.public, message, sig, record=None
        )
        assert ruling is Ruling.INSURER_BOUND

    def test_invalid_signature_refused(self, insurer_keypair, prod_chameleon):
        sig = crypto.ChameleonSignature(1, b"junk", b"ctx")
        with pytest.raises(ParameterError):
            judge.resolve_denial(
                insurer_keypair.public, prod_chameleon.public, b"m", sig, None
            )

    @pytest.mark.parametrize(
        "with_record, hashes", [("matching", 1), ("different", 2), (False, 1)]
    )
    def test_one_chameleon_hash_per_side(
        self, insurer_keypair, prod_chameleon, signed_pair, monkeypatch,
        with_record, hashes,
    ):
        """The disputed CH is computed once and also checks the inner
        signature; a record other than the disputed pair adds its CH."""
        message, sig = signed_pair
        record = {
            "matching": (message, sig.r),
            "different": (b"unrelated", sig.r),
            False: None,
        }[with_record]
        calls = []
        real_hash = crypto.chameleon_hash
        monkeypatch.setattr(
            crypto, "chameleon_hash", lambda *a: calls.append(1) or real_hash(*a)
        )
        ruling = judge.resolve_denial(
            insurer_keypair.public, prod_chameleon.public, message, sig, record=record
        )
        assert ruling is Ruling.INSURER_BOUND
        assert len(calls) == hashes

    def test_randomizer_out_of_range_refused(
        self, insurer_keypair, prod_chameleon, signed_pair
    ):
        message, sig = signed_pair
        for r in (-1, prod_chameleon.params.q):
            with pytest.raises(ParameterError):
                judge.resolve_denial(
                    insurer_keypair.public, prod_chameleon.public, message,
                    dataclasses.replace(sig, r=r), None,
                )
