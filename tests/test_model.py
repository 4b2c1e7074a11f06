"""Domain types: codec round trips and rollback deltas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conninsure import crypto
from conninsure.errors import CorruptionError, ParameterError
from conninsure.model import (
    CertList,
    Claim,
    Contract,
    HandshakeTranscript,
    InclusionProof,
    RollbackDelta,
    Voucher,
    VoucherEvidence,
    apply_rollback,
    chameleon_context,
    compute_rollback,
    registration_context,
    valid_positions,
)
from conninsure.rand import RandomSource

CYCLEID = bytes(range(32))


def _voucher(domain="bob.example.org", r=b"\x05" * 32, customer=7):
    return Voucher(customer, domain, CYCLEID, r)


class TestVoucher:
    def test_roundtrip(self):
        v = _voucher()
        assert Voucher.from_bytes(v.to_bytes()) == v

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=40),
        st.binary(min_size=32, max_size=32),
        st.binary(min_size=32, max_size=32),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, customer, domain, cycleid, r):
        v = Voucher(customer, domain, cycleid, r)
        assert Voucher.from_bytes(v.to_bytes()) == v

    def test_fresh_r_required_length(self):
        with pytest.raises(ParameterError):
            Voucher(1, "a.example", CYCLEID, b"short")


class TestContexts:
    def test_chameleon_context_layout(self):
        assert chameleon_context(1, "Certificates") == (
            b"\x00" * 7 + b"\x01" + b"Certificates"
        )

    def test_unknown_label(self):
        with pytest.raises(ParameterError):
            chameleon_context(1, "Gibberish")

    def test_registration_context_binds_key(self):
        pk1 = crypto.PublicKey(1, b"k1")
        pk2 = crypto.PublicKey(1, b"k2")
        assert registration_context(pk1) != registration_context(pk2)


class TestContractCodec:
    def test_roundtrip(self, insurer_keypair, prod_chameleon, rng):
        customer_kp = crypto.generate_sig_keypair(rng=rng)
        proof = crypto.prove_trapdoor(
            prod_chameleon, registration_context(customer_kp.public), rng
        )
        contract = Contract(
            customer=42,
            pk_in=insurer_keypair.public,
            pk_a=customer_kp.public,
            chameleon=prod_chameleon.public,
            trapdoor_proof=proof,
            t0=1000,
            t_end=2000,
            delta_t=86_400,
        )
        assert Contract.from_bytes(contract.to_bytes()) == contract
        contract.validate()


class TestContractCovers:
    @pytest.mark.parametrize(
        "t, t_prime, covered",
        [
            (1000, 1000, True),
            (1000, 1000 + 3600, True),
            (1000, 1000 + 3601, False),
            (1000, 999, False),
            (10**6, 10**6, True),
            (10**6, 10**6 + 200, False),
        ],
        ids=[
            "same-time", "at-bound", "past-bound", "before-download",
            "at-term-end", "past-term-end",
        ],
    )
    def test_update_bound(self, t, t_prime, covered):
        """covers reads only delta_t and t_end, so the keys and proof are
        left out."""
        contract = Contract(7, None, None, None, None, t0=0, t_end=10**6, delta_t=3600)
        assert contract.covers(t, t_prime) is covered


class TestRollback:
    def test_empty_delta_no_change(self):
        certs = [b"a", b"b"]
        delta = compute_rollback(certs, certs, 1)
        assert delta.added == () and delta.removed == ()
        assert apply_rollback(certs, delta) == certs

    def test_add_and_remove(self):
        prev = [b"a", b"b", b"c"]
        cur = [b"a", b"c", b"d"]  # b removed, d appended
        delta = compute_rollback(prev, cur, 3)
        assert delta.added == ((2, crypto.hash_h(b"d")),)
        assert delta.removed == ((1, b"b"),)
        assert apply_rollback(cur, delta) == prev

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_pairs_roundtrip(self, data):
        # Oracle: the retained full copy of the previous list.  Any pair of
        # lists, duplicates and reorderings included, has a forward delta.
        pool = [bytes([i]) * 4 for i in range(12)]
        prev = data.draw(st.lists(st.sampled_from(pool), max_size=10))
        cur = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
        delta = compute_rollback(prev, cur, 1)
        assert apply_rollback(cur, delta) == prev
        removed, appended = CertList(cur).delta_from(CertList(prev))
        assert valid_positions(removed, len(prev))
        new = CertList(prev).updated(removed, appended)
        assert new.certs == cur
        assert new.hashes == [crypto.hash_h(c) for c in cur]

    def test_chained_rollbacks_reproduce_origin(self):
        # Oracle: retained full copies across 10 cycles of churn.
        rng = RandomSource(77)
        lists = [[bytes([i, j]) for j in range(5)] for i in range(1)]
        current = lists[0]
        deltas = []
        for i in range(1, 11):
            nxt = [c for c in current if rng.below(4)] + [bytes([100 + i, 0])]
            deltas.append(compute_rollback(current, nxt, i))
            lists.append(nxt)
            current = nxt
        work = list(current)
        for i in range(10, 0, -1):
            work = apply_rollback(work, deltas[i - 1])
            assert work == lists[i - 1]

    def test_delta_from_an_older_version_keeps_survivors(self):
        """Across several updates, the delta removes exactly the entries that
        went and appends only what is new since the base."""
        base = CertList([b"a", b"b", b"c", b"d"])
        mid = base.updated([1], [b"e"])          # a c d e
        cur = mid.updated([0, 3], [b"f", b"g"])  # c d f g
        assert cur.delta_from(base) == ([0, 1], [b"f", b"g"])
        assert cur.delta_from(cur) == ([], [])
        assert cur.delta_from(CertList([])) == ([], cur.certs)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_delta_from_matches_a_one_step_walk(self, data):
        # Oracle: the greedy walk, one base entry at a time.
        pool = [bytes([i]) * 4 for i in range(6)]
        base = data.draw(st.lists(st.sampled_from(pool), max_size=300))
        keep = data.draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
        tail = data.draw(st.lists(st.sampled_from(pool), max_size=5))
        cur = [c for c, k in zip(base, keep) if k] + tail
        matched, removed = 0, []
        for pos, cert in enumerate(base):
            if matched < len(cur) and cert == cur[matched]:
                matched += 1
            else:
                removed.append(pos)
        assert CertList(cur).delta_from(CertList(base)) == (removed, cur[matched:])

    @pytest.mark.parametrize("positions, ok", [
        ((), True), ((0, 2), True), ((2, 0), False), ((1, 1), False),
        ((3,), False), ((-1,), False),
    ])
    def test_valid_positions(self, positions, ok):
        assert valid_positions(positions, 3) is ok

    def test_position_out_of_range(self):
        delta = RollbackDelta(1, ((5, crypto.hash_h(b"x")),), ())
        with pytest.raises(CorruptionError):
            apply_rollback([b"a"], delta)

    def test_mismatched_digest(self):
        delta = RollbackDelta(1, ((0, crypto.hash_h(b"not-a")),), ())
        with pytest.raises(CorruptionError):
            apply_rollback([b"a"], delta)

    def test_codec_roundtrip(self):
        delta = RollbackDelta(3, ((1, b"\x02" * 32),), ((0, b"cert-bytes"),))
        assert RollbackDelta.from_bytes(delta.to_bytes()) == delta


class TestEvidenceCodec:
    def test_roundtrip(self):
        transcript = HandshakeTranscript(
            client_random=bytes(32),
            server_random=bytes(range(32)),
            server_dh_params=b"\x00\x01\x17\x00\x01\x04\x00\x01\x12",
            signature=b"sig",
            hash_alg=8,
            sig_alg=7,
        )
        ev = VoucherEvidence(b"cert-der", _voucher(), transcript)
        assert VoucherEvidence.from_bytes(ev.to_bytes()) == ev


class TestInclusionProofCodec:
    def test_roundtrip(self):
        proof = InclusionProof(5, ((b"\x01" * 32, True), (b"\x02" * 32, False)))
        assert InclusionProof.from_bytes(proof.to_bytes()) == proof


class TestClaimCodec:
    def test_roundtrip(self, insurer_keypair, prod_chameleon, rng):
        customer_kp = crypto.generate_sig_keypair(rng=rng)
        proof = crypto.prove_trapdoor(
            prod_chameleon, registration_context(customer_kp.public), rng
        )
        contract = Contract(
            7, insurer_keypair.public, customer_kp.public, prod_chameleon.public,
            proof, 0, 10_000, 3600,
        )
        transcript = HandshakeTranscript(
            bytes(32), bytes(32), b"\x00\x01\x17", b"sig", 8, 7
        )
        claim = Claim(
            contract=contract,
            certs=(b"cert-1", b"cert-2"),
            cycleid=CYCLEID,
            t=100,
            t_prime=200,
            chsig_certs=crypto.ChameleonSignature(1, b"s1", b"c1"),
            chsig_vouchers=crypto.ChameleonSignature(2, b"s2", b"c2"),
            voucher_root=b"\x03" * 32,
            proof=InclusionProof(0, ((b"\x04" * 32, False),)),
            evidence=VoucherEvidence(b"cert-2", _voucher(), transcript),
            cert_index=1,
        )
        decoded = Claim.from_bytes(claim.to_bytes())
        assert decoded == claim
        assert decoded.to_bytes() == claim.to_bytes()
