"""Hash oracles, standard signatures, the chameleon construction, and the
trapdoor-knowledge proof.  Expected values come from independent modular
arithmetic (see fixtures/toy_chameleon_vectors.json) or from sha256sum
known answers.
"""

import dataclasses
import functools
import hashlib
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claim_mutations import claim_mutations
from conninsure import crypto, judge
from conninsure.bench import bench_chameleon
from conninsure.errors import KeyFormatError, ParameterError
from conninsure.judge import Ruling, Verdict
from conninsure.model import Claim
from conninsure.rand import RandomSource
from conninsure.scenario import run_scenario

# sha256 of the single domain-separation byte, cross-checked with sha256sum
EMPTY_H = "aaa9402664f1a41f40ebbc52c9993eb66aeb366602958fdfaa283b71e64db123"
EMPTY_H28 = "44bd7ae60f478fae1061e11a7739f4b94d1daf917982d33b6fc8a01a"


class TestHashes:
    def test_empty_input_known_answer(self):
        assert crypto.hash_h(b"").hex() == EMPTY_H
        assert crypto.hash_h28(b"").hex() == EMPTY_H28

    def test_deterministic(self):
        assert crypto.hash_h(b"abc") == crypto.hash_h(b"abc")

    def test_lengths(self):
        assert len(crypto.hash_h(b"x" * 1000)) == 32
        assert len(crypto.hash_h28(b"x" * 1000)) == 28

    def test_domain_separation(self):
        # H28 must differ from a truncation of h on the same input.
        for m in (b"", b"a", b"voucher", bytes(64)):
            assert crypto.hash_h28(m) != crypto.hash_h(m)[:28]

    def test_no_collisions_over_fixture_corpus(self):
        # Brute-force scan over 10^4 distinct random inputs.
        rng = RandomSource(42)
        seen = set()
        for _ in range(10_000):
            digest = crypto.hash_h(rng.bytes(24))
            assert digest not in seen
            seen.add(digest)

    def test_prf_is_keyed_hash(self):
        assert crypto.prf(b"k", b"m") == hashlib.sha256(b"\x68km").digest()


class TestStandardSignatures:
    @pytest.mark.parametrize(
        "scheme", [crypto.SCHEME_ED25519, crypto.SCHEME_RSA_SHA256]
    )
    def test_sign_verify_roundtrip(self, scheme):
        kp = crypto.generate_sig_keypair(scheme, RandomSource(5))
        sig = crypto.sign(kp, b"hello")
        assert crypto.verify(kp.public, b"hello", sig)

    def test_flipped_message_rejected(self):
        kp = crypto.generate_sig_keypair(rng=RandomSource(5))
        sig = crypto.sign(kp, b"hello")
        assert not crypto.verify(kp.public, b"hellp", sig)

    def test_wrong_key_rejected(self):
        kp1 = crypto.generate_sig_keypair(rng=RandomSource(5))
        kp2 = crypto.generate_sig_keypair(rng=RandomSource(6))
        sig = crypto.sign(kp1, b"hello")
        assert not crypto.verify(kp2.public, b"hello", sig)

    def test_malformed_secret_key(self):
        kp = crypto.generate_sig_keypair(rng=RandomSource(5))
        bad = crypto.SigKeyPair(kp.public, b"short")
        with pytest.raises(KeyFormatError):
            crypto.sign(bad, b"x")

    def test_unknown_scheme(self):
        with pytest.raises(KeyFormatError):
            crypto.generate_sig_keypair(99)


def _message_with_exponent(params, target):
    """Search a short message whose hash reduces to the target exponent."""
    i = 0
    while True:
        m = b"toy-%d" % i
        if crypto.message_exponent(params, m) == target:
            return m
        i += 1


class TestChameleonToyVectors:
    """Exact integer vectors on p=23, q=11, g=4, x=3; oracle = direct modexp."""

    def test_public_key(self, toy_vectors, toy_chameleon):
        assert pow(4, 3, 23) == toy_vectors["public_y"] == toy_chameleon.y

    def test_hash_value(self, toy_vectors, toy_chameleon):
        m5 = toy_vectors["message_exp5"].encode()
        assert crypto.message_exponent(crypto.TOY_GROUP, m5) == 5
        ch = crypto.chameleon_hash(crypto.TOY_GROUP, toy_chameleon.y, m5, r=2)
        assert ch == toy_vectors["chameleon"]["ch"] == 1
        # oracle: 4^5 * 18^2 mod 23
        assert ch == pow(4, 5, 23) * pow(18, 2, 23) % 23

    def test_hash_deterministic(self, toy_vectors, toy_chameleon):
        m5 = toy_vectors["message_exp5"].encode()
        assert crypto.chameleon_hash(
            crypto.TOY_GROUP, toy_chameleon.y, m5, 2
        ) == crypto.chameleon_hash(crypto.TOY_GROUP, toy_chameleon.y, m5, 2)

    def test_collision_vector(self, toy_vectors, toy_chameleon):
        m5 = toy_vectors["message_exp5"].encode()
        m7 = toy_vectors["message_exp7"].encode()
        assert crypto.message_exponent(crypto.TOY_GROUP, m7) == 7
        r_prime = crypto.find_collision(toy_chameleon, m5, 2, m7)
        assert r_prime == toy_vectors["chameleon"]["collision_r"] == 5
        # oracle: CH equality via direct modular arithmetic
        assert pow(4, 7, 23) * pow(18, 5, 23) % 23 == 1
        assert crypto.chameleon_hash(crypto.TOY_GROUP, 18, m7, r_prime) == 1

    def test_identity_collision(self, toy_chameleon):
        m = b"same"
        assert crypto.find_collision(toy_chameleon, m, 4, m) == 4

    def test_randomizer_range_checked(self, toy_chameleon):
        with pytest.raises(ParameterError):
            crypto.chameleon_hash(crypto.TOY_GROUP, 18, b"m", 11)
        with pytest.raises(ParameterError):
            crypto.chameleon_hash(crypto.TOY_GROUP, 18, b"m", -1)


class TestChameleonProperties:
    @given(st.binary(min_size=0, max_size=64), st.binary(min_size=0, max_size=64),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_collision_property(self, m1, m2, r):
        # collision output satisfies hash equality exactly, in a test group
        kp = crypto.ChameleonKeyPair(crypto.TOY_GROUP, 3, 18)
        r2 = crypto.find_collision(kp, m1, r, m2)
        assert crypto.chameleon_hash(
            crypto.TOY_GROUP, kp.y, m1, r
        ) == crypto.chameleon_hash(crypto.TOY_GROUP, kp.y, m2, r2)

    def test_collision_property_production_group(self, prod_chameleon, rng):
        for _ in range(10):
            m1, m2, r = rng.bytes(16), rng.bytes(16), rng.below(crypto.GROUP_2048_256.q)
            r2 = crypto.find_collision(prod_chameleon, m1, r, m2)
            assert crypto.chameleon_hash(
                prod_chameleon.params, prod_chameleon.y, m1, r
            ) == crypto.chameleon_hash(prod_chameleon.params, prod_chameleon.y, m2, r2)


class TestChameleonSignatures:
    def test_sign_verify_roundtrip(self, insurer_keypair, prod_chameleon, rng):
        sig, _ = crypto.chameleon_sign(
            insurer_keypair, prod_chameleon.public, b"payload", b"ctx", rng
        )
        assert crypto.chameleon_verify(
            insurer_keypair.public, prod_chameleon.public, b"payload", sig, b"ctx"
        )

    def test_recipient_forges_new_message(self, insurer_keypair, prod_chameleon, rng):
        """The non-transferability witness: the trapdoor holder turns an
        issued signature into one over any chosen message."""
        sig, _ = crypto.chameleon_sign(
            insurer_keypair, prod_chameleon.public, b"honest", b"ctx", rng
        )
        forged_r = crypto.find_collision(prod_chameleon, b"honest", sig.r, b"forged")
        forged = crypto.ChameleonSignature(forged_r, sig.inner_sig, sig.context)
        assert crypto.chameleon_verify(
            insurer_keypair.public, prod_chameleon.public, b"forged", forged, b"ctx"
        )

    def test_wrong_context_rejected(self, insurer_keypair, prod_chameleon, rng):
        sig, _ = crypto.chameleon_sign(
            insurer_keypair, prod_chameleon.public, b"m", b"customer-1", rng
        )
        assert not crypto.chameleon_verify(
            insurer_keypair.public, prod_chameleon.public, b"m", sig,
            context=b"customer-2",
        )

    def test_tampered_randomizer_rejected(self, insurer_keypair, prod_chameleon, rng):
        sig, _ = crypto.chameleon_sign(
            insurer_keypair, prod_chameleon.public, b"m", b"ctx", rng
        )
        bad = crypto.ChameleonSignature(
            (sig.r + 1) % prod_chameleon.params.q, sig.inner_sig, sig.context
        )
        assert not crypto.chameleon_verify(
            insurer_keypair.public, prod_chameleon.public, b"m", bad, b"ctx"
        )

    def test_transplant_to_other_recipient_rejected(self, insurer_keypair, rng):
        alice = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng)
        carol = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng)
        sig, _ = crypto.chameleon_sign(
            insurer_keypair, alice.public, b"m", b"ctx", rng
        )
        assert not crypto.chameleon_verify(
            insurer_keypair.public, carol.public, b"m", sig, b"ctx"
        )

    def test_signed_chameleon_hash(self, insurer_keypair, prod_chameleon, rng):
        recipient = prod_chameleon.public
        sig, ch = crypto.chameleon_sign(insurer_keypair, recipient, b"m", b"ctx", rng)
        signed = crypto.signed_chameleon_hash(insurer_keypair.public, recipient, b"m", sig)
        assert signed == ch == crypto.chameleon_hash(recipient.params, recipient.y, b"m", sig.r)
        flipped = dataclasses.replace(
            sig, inner_sig=bytes([sig.inner_sig[0] ^ 1]) + sig.inner_sig[1:]
        )
        other = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng).public
        for key, candidate in [
            (recipient, flipped),
            (recipient, dataclasses.replace(sig, r=recipient.params.q)),
            (other, sig),
        ]:
            assert crypto.signed_chameleon_hash(
                insurer_keypair.public, key, b"m", candidate
            ) is None


_GROUPS = [crypto.GROUP_2048_256, crypto.TOY_GROUP]


class TestTrapdoorHash:
    """The recipient's CH through its trapdoor, against chameleon_hash."""

    @pytest.mark.parametrize("params", _GROUPS, ids=["2048", "toy"])
    def test_equals_chameleon_hash(self, params):
        rng = RandomSource(21)
        kp = crypto.generate_chameleon_keypair(params, rng)
        for r in (0, params.q - 1, *(rng.below(params.q) for _ in range(20))):
            m = rng.bytes(rng.below(64))
            assert crypto.trapdoor_hash(kp, m, r) == crypto.chameleon_hash(params, kp.y, m, r)

    @pytest.mark.parametrize("r", [-1, crypto.TOY_GROUP.q])
    def test_randomizer_out_of_range_rejected(self, r):
        kp = crypto.ChameleonKeyPair(crypto.TOY_GROUP, 3, 18)
        with pytest.raises(ParameterError):
            crypto.trapdoor_hash(kp, b"m", r)

    def test_recipient_verify_accepts_what_chameleon_verify_does(
        self, insurer_keypair, prod_chameleon, rng
    ):
        sig, _ = crypto.chameleon_sign(
            insurer_keypair, prod_chameleon.public, b"m", b"ctx", rng
        )
        forged_r = crypto.find_collision(prod_chameleon, b"m", sig.r, b"forged")
        forged = crypto.ChameleonSignature(forged_r, sig.inner_sig, sig.context)
        q = prod_chameleon.params.q
        cases = [
            (b"m", sig, b"ctx", True),
            (b"forged", forged, b"ctx", True),
            (b"m", sig, b"other", False),
            (b"other", sig, b"ctx", False),
            (b"m", dataclasses.replace(sig, r=(sig.r + 1) % q), b"ctx", False),
            (b"m", dataclasses.replace(sig, r=q), b"ctx", False),
            (b"m", dataclasses.replace(sig, inner_sig=sig.inner_sig[:-1] + b"\0"), b"ctx", False),
        ]
        for message, candidate, context, expected in cases:
            args = (insurer_keypair.public, message, candidate, context)
            assert crypto.chameleon_verify(args[0], prod_chameleon.public, *args[1:]) is expected
            assert crypto.recipient_verify(args[0], prod_chameleon, *args[1:]) is expected

    def test_key_pair_with_wrong_trapdoor_still_verifies(self, insurer_keypair, rng):
        """If y is not g^x, the trapdoor's CH is wrong; the two-base check
        behind it keeps a good signature good."""
        kp = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng)
        wrong = dataclasses.replace(kp, x=kp.x + 1)
        sig, _ = crypto.chameleon_sign(insurer_keypair, kp.public, b"m", b"ctx", rng)
        assert crypto.trapdoor_hash(wrong, b"m", sig.r) != crypto.chameleon_hash(
            kp.params, kp.y, b"m", sig.r
        )
        assert crypto.recipient_verify(insurer_keypair.public, wrong, b"m", sig, b"ctx")


def _combs(params):
    """(comb, base) for g and for a recipient y of the group."""
    kp = crypto.generate_chameleon_keypair(params, RandomSource(11))
    return [
        (crypto.generator_comb(params), params.g),
        (crypto.recipient_comb(kp.public), kp.y),
    ]


class TestFixedBaseComb:
    """Oracle: built-in pow() on the same base, exponent and modulus."""

    @pytest.mark.parametrize("params", _GROUPS, ids=["2048", "toy"])
    def test_matches_pow(self, params, rng):
        # Every exponent below 2^bits(q) is in range, not only those below q.
        top = (1 << params.q.bit_length()) - 1
        exponents = [0, 1, params.q - 1, top] + [rng.below(params.q) for _ in range(20)]
        for comb, base in _combs(params):
            for e in exponents:
                assert comb.pow(e) == pow(base, e, params.p)

    @pytest.mark.parametrize("params", _GROUPS, ids=["2048", "toy"])
    def test_pow2_matches_pow(self, params, rng):
        """g^e * y^f in one pass, either comb first, for the edge exponents
        on both sides and random ones."""
        top = (1 << params.q.bit_length()) - 1
        edges = [0, 1, params.q - 1, top]
        pairs = [(e, f) for e in edges for f in edges]
        pairs += [(rng.below(params.q), rng.below(params.q)) for _ in range(10)]
        (g_comb, g), (y_comb, y) = _combs(params)
        for e, f in pairs:
            expected = pow(g, e, params.p) * pow(y, f, params.p) % params.p
            assert g_comb.pow2(e, y_comb, f) == expected
            assert y_comb.pow2(f, g_comb, e) == expected

    @pytest.mark.parametrize(
        "shape, other_shape",
        [((1, 1), (8, 3)), ((3, 2), (5, 1)), ((8, 2), (6, 2)), ((7, 4), (2, 9))],
    )
    def test_pow2_with_combs_of_other_shapes(self, shape, other_shape, rng):
        """Combs whose column counts differ, from one column to a table per
        column, give the same products as pow()."""
        p, bits = crypto.GROUP_2048_256.p, 61
        base, other_base = 3, 5
        comb = crypto.FixedBaseComb(base, p, bits, *shape)
        other = crypto.FixedBaseComb(other_base, p, bits, *other_shape)
        for e, f in [(0, 0), (1, (1 << bits) - 1), ((1 << bits) - 1, 0)] + [
            (rng.below(1 << bits), rng.below(1 << bits)) for _ in range(10)
        ]:
            expected = pow(base, e, p) * pow(other_base, f, p) % p
            assert comb.pow(e) == pow(base, e, p)
            assert comb.pow2(e, other, f) == expected
            assert other.pow2(f, comb, e) == expected

    @pytest.mark.parametrize("params", _GROUPS, ids=["2048", "toy"])
    def test_out_of_range_exponent_rejected(self, params):
        (g_comb, _), (y_comb, _) = _combs(params)
        for e in (-1, 1 << params.q.bit_length()):
            for comb in (g_comb, y_comb):
                with pytest.raises(ParameterError):
                    comb.pow(e)
            with pytest.raises(ParameterError):
                g_comb.pow2(e, y_comb, 1)
            with pytest.raises(ParameterError):
                g_comb.pow2(1, y_comb, e)

    def test_bad_dimensions_rejected(self):
        p = crypto.TOY_GROUP.p
        for teeth in (0, 9):  # an index is one byte
            with pytest.raises(ParameterError):
                crypto.FixedBaseComb(2, p, 8, teeth)
        toy = crypto.FixedBaseComb(2, p, 8, 2)
        prod = crypto.FixedBaseComb(2, crypto.GROUP_2048_256.p, 8, 2)
        with pytest.raises(ParameterError):
            toy.pow2(1, prod, 1)

    def test_generator_comb_built_once(self):
        params = crypto.GroupParams(crypto.TOY_GROUP.p, crypto.TOY_GROUP.q, 4)
        assert crypto.generator_comb(params) is crypto.generator_comb(crypto.TOY_GROUP)

    @pytest.mark.parametrize(
        "params, chameleon",
        [(crypto.GROUP_2048_256, "prod_chameleon"), (crypto.TOY_GROUP, "toy_chameleon")],
        ids=["2048", "toy"],
    )
    def test_chameleon_results_same_with_comb(
        self, params, chameleon, insurer_keypair, request, monkeypatch
    ):
        """Signatures and hashes made while the key's comb is built and with
        it warm are identical, and match the plain formula."""
        cache, built = _counting_combs(monkeypatch, capacity=8)
        recipient = request.getfixturevalue(chameleon).public
        e, r = crypto.message_exponent(params, b"m"), params.q - 2
        expected = pow(params.g, e, params.p) * pow(recipient.y, r, params.p) % params.p
        for _ in range(3):  # the first hash builds the comb, the others reuse it
            assert crypto.chameleon_hash(params, recipient.y, b"m", r) == expected
            assert built == [recipient.y]
        cache.cache_clear()
        runs = []
        for _ in range(3):
            sig, ch = crypto.chameleon_sign(
                insurer_keypair, recipient, b"m", b"ctx", RandomSource(3)
            )
            runs.append((sig, ch))
            assert crypto.chameleon_verify(insurer_keypair.public, recipient, b"m", sig, b"ctx")
            assert not crypto.chameleon_verify(
                insurer_keypair.public, recipient, b"m2", sig, b"ctx"
            )
        assert runs[0] == runs[1] == runs[2]
        sig, ch = runs[0]
        e = crypto.message_exponent(params, b"m")
        assert ch == pow(params.g, e, params.p) * pow(recipient.y, sig.r, params.p) % params.p


def _counting_combs(monkeypatch, capacity: int = crypto.RECIPIENT_COMB_CAPACITY):
    """An empty recipient_comb cache of the given capacity in place of the
    module's; the list returned grows by one y per recipient comb built."""
    built = []
    build = crypto.recipient_comb.__wrapped__

    def counting(recipient):
        built.append(recipient.y)
        return build(recipient)

    cache = functools.lru_cache(maxsize=capacity)(counting)
    monkeypatch.setattr(crypto, "recipient_comb", cache)
    return cache, built


def _chameleon_hash_by_pow(params, y, message, r):
    e = crypto.message_exponent(params, message)
    return pow(params.g, e, params.p) * pow(y, r, params.p) % params.p


class TestRecipientCombs:
    """Oracle: built-in pow() on the same base, exponent and modulus."""

    @pytest.mark.parametrize("params", _GROUPS, ids=["2048", "toy"])
    def test_matches_pow_cold_and_warm(self, params, rng, monkeypatch):
        _, built = _counting_combs(monkeypatch)
        keys = {crypto.generate_chameleon_keypair(params, rng).y for _ in range(3)}
        exponents = [0, 1, params.q - 1] + [rng.below(params.q) for _ in range(5)]
        for sight in range(3):
            for y in keys:
                comb = crypto.recipient_comb(crypto.ChameleonPublicKey(params, y))
                for e in exponents:
                    assert comb.pow(e) == pow(y, e, params.p), (sight, y, e)
                    expected = _chameleon_hash_by_pow(params, y, b"m", e)
                    assert crypto.chameleon_hash(params, y, b"m", e) == expected
        assert sorted(built) == sorted(keys)

    def test_comb_built_by_first_hash(self, prod_chameleon, monkeypatch):
        _, built = _counting_combs(monkeypatch)
        recipient = prod_chameleon.public
        for _ in range(3):
            crypto.chameleon_hash(recipient.params, recipient.y, b"m", 5)
            assert built == [recipient.y]
        assert crypto.recipient_comb(recipient) is crypto.recipient_comb(recipient)
        assert built == [recipient.y]

    def test_trapdoor_checks_build_no_comb(
        self, prod_chameleon, insurer_keypair, monkeypatch, rng
    ):
        """A proof check raises y by modexp and never builds a comb, before
        or after a chameleon hash toward the key has built one."""
        _, built = _counting_combs(monkeypatch)
        modexps = []
        real = crypto.modexp
        monkeypatch.setattr(crypto, "modexp", lambda *a: modexps.append(1) or real(*a))
        recipient = prod_chameleon.public
        proof = crypto.prove_trapdoor(prod_chameleon, b"contract", rng)
        for _ in range(2):
            crypto.verify_trapdoor.cache_clear()  # check the proof, not recall it
            assert crypto.verify_trapdoor(recipient.y, recipient.params, b"contract", proof)
        assert built == [] and len(modexps) == 2
        sig, _ = crypto.chameleon_sign(insurer_keypair, recipient, b"m", b"ctx", rng)
        assert built == [recipient.y]
        crypto.verify_trapdoor.cache_clear()
        assert crypto.verify_trapdoor(recipient.y, recipient.params, b"contract", proof)
        assert crypto.chameleon_verify(insurer_keypair.public, recipient, b"m", sig, b"ctx")
        assert built == [recipient.y] and len(modexps) == 3

    def test_bounded_by_capacity(self, monkeypatch):
        capacity = 4
        cache, built = _counting_combs(monkeypatch, capacity)
        params = crypto.TOY_GROUP
        for y in range(2, 2 + capacity + 3):
            for _ in range(3):
                assert crypto.chameleon_hash(params, y, b"m", 2) == _chameleon_hash_by_pow(
                    params, y, b"m", 2
                )
            assert cache.cache_info().currsize <= capacity
        assert built == list(range(2, 2 + capacity + 3))
        # The oldest keys were evicted: the first is built again.
        crypto.chameleon_hash(params, 2, b"m", 2)
        assert len(built) == capacity + 4
        assert crypto.RECIPIENT_COMB_CAPACITY == 256

    def test_same_keys_from_many_threads(self, monkeypatch):
        """More threads than cores on more keys than the cache holds: every
        chameleon hash still equals the one from pow() and the cache stays
        within its capacity."""
        cache, _ = _counting_combs(monkeypatch, capacity=4)
        params = crypto.GROUP_2048_256
        keys = [crypto.generate_chameleon_keypair(params, RandomSource(i)).y for i in range(6)]
        errors = []

        def work(seed):
            rng = RandomSource(seed)
            for _ in range(3):
                for y in keys:
                    r = rng.below(params.q)
                    ch = crypto.chameleon_hash(params, y, b"m", r)
                    if ch != _chameleon_hash_by_pow(params, y, b"m", r):
                        errors.append((seed, y, r))
                    if cache.cache_info().currsize > 4:
                        errors.append(("over capacity", cache.cache_info()))

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_cold_sign_bench_signs_toward_never_seen_keys(self, monkeypatch):
        """bench_chameleon builds one comb for its warm recipient and one for
        each cold signature's key, and raises no key by modexp."""
        _, built = _counting_combs(monkeypatch)
        modexps = []
        real = crypto.modexp
        monkeypatch.setattr(crypto, "modexp", lambda *a: modexps.append(1) or real(*a))
        report = bench_chameleon(iterations=100, rng=RandomSource(41))
        assert report.all_verified
        assert len(built) == len(set(built)) == 1 + 100
        assert modexps == []

    def test_judge_same_with_cache_cleared_and_warm(
        self, prod_chameleon, insurer_keypair, monkeypatch
    ):
        """The caches never change a verdict or a ruling (judge purity)."""
        cache, built = _counting_combs(monkeypatch)
        report = run_scenario("mitm", cycles=3, domains=3, seed=21, rogue_cycle=2)
        claim = Claim.from_bytes(report.claim_bytes)
        claims = [(report.claim_bytes, Verdict.ACCEPT)] + [
            (mutated.to_bytes(), expected) for _, expected, mutated in claim_mutations(claim)
        ]
        recipient = prod_chameleon.public
        message = b"certified-payload"
        sig, _ = crypto.chameleon_sign(
            insurer_keypair, recipient, message, b"ctx", RandomSource(5)
        )
        forged_r = crypto.find_collision(prod_chameleon, message, sig.r, b"substituted")
        forged = crypto.ChameleonSignature(forged_r, sig.inner_sig, sig.context)
        disputes = [
            (message, sig, (message, sig.r), Ruling.INSURER_BOUND),
            (b"substituted", forged, (message, sig.r), Ruling.CUSTOMER_FORGED),
            (message, sig, None, Ruling.INSURER_BOUND),
        ]

        def decide(case):
            if len(case) == 2:
                return judge.verify_claim_bytes(case[0], report.insurer_public, True)
            message, sig, record, _ = case
            return judge.resolve_denial(insurer_keypair.public, recipient, message, sig, record)

        cases = claims + disputes
        expected = [case[-1] for case in cases]
        cleared = []
        for case in cases:
            cache.cache_clear()
            crypto.verify_trapdoor.cache_clear()
            cleared.append(decide(case))
        assert cleared == expected
        cache.cache_clear()
        built.clear()
        for _ in range(2):
            assert [decide(case) for case in cases] == expected
        # Warm from here on: one comb for the claimant's key, one for the
        # disputed recipient's.
        assert len(built) == 2


class TestTrapdoorProof:
    def test_toy_forced_challenge_algebra(self, toy_vectors):
        """Oracle: the verification equation with u=4^4=3, c=2, z=10."""
        v = toy_vectors["schnorr"]
        assert pow(4, v["k"], 23) == v["u"] == 3
        z = (v["k"] + v["forced_c"] * toy_vectors["trapdoor_x"]) % 11
        assert z == v["z"] == 10
        assert pow(4, z, 23) == v["check"] == 6
        assert v["u"] * pow(18, v["forced_c"], 23) % 23 == v["check"] == 6

    def test_honest_proof_accepts(self, toy_chameleon, rng):
        proof = crypto.prove_trapdoor(toy_chameleon, b"contract", rng)
        assert crypto.verify_trapdoor(18, crypto.TOY_GROUP, b"contract", proof)

    def test_honest_proof_accepts_production(self, prod_chameleon, rng):
        proof = crypto.prove_trapdoor(prod_chameleon, b"contract", rng)
        assert crypto.verify_trapdoor(
            prod_chameleon.y, prod_chameleon.params, b"contract", proof
        )

    def test_replay_against_other_key_rejected(self, rng):
        kp1 = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng)
        kp2 = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng)
        proof = crypto.prove_trapdoor(kp1, b"ctx", rng)
        assert not crypto.verify_trapdoor(kp2.y, kp2.params, b"ctx", proof)

    def test_context_binding(self, prod_chameleon, rng):
        proof = crypto.prove_trapdoor(prod_chameleon, b"ctx-a", rng)
        assert not crypto.verify_trapdoor(
            prod_chameleon.y, prod_chameleon.params, b"ctx-b", proof
        )


class TestTrapdoorMemo:
    """verify_trapdoor remembers the powers of each proof it accepts the
    challenge of, keyed by the key, the group and the proof."""

    def test_any_changed_input_is_checked_afresh(self, prod_chameleon, rng):
        params, y = prod_chameleon.params, prod_chameleon.y
        proof = crypto.prove_trapdoor(prod_chameleon, b"contract", rng)
        assert crypto.verify_trapdoor(y, params, b"contract", proof)
        p, q, g = params.p, params.q, params.g
        proofs = [
            dataclasses.replace(proof, u=proof.u * g % p),
            dataclasses.replace(proof, c=(proof.c + 1) % q),
            dataclasses.replace(proof, z=(proof.z + 1) % q),
        ]
        changed = [
            (y * g % p, params, b"contract", proof),
            (y, dataclasses.replace(params, g=g * g % p), b"contract", proof),
            (y, params, b"contracT", proof),
        ] + [(y, params, b"contract", other) for other in proofs]
        for args in changed:
            assert not crypto.verify_trapdoor(*args), args
        assert crypto.verify_trapdoor(y, params, b"contract", proof)
        assert crypto.verify_trapdoor.cache_info().hits == 1

    def test_bounded_by_capacity(self, prod_chameleon, rng):
        """Proofs that pass the challenge but carry different z fill the
        memo up to its capacity and no further."""
        capacity = crypto.verify_trapdoor.cache_info().maxsize
        assert capacity == crypto.RECIPIENT_COMB_CAPACITY
        params, y = prod_chameleon.params, prod_chameleon.y
        proof = crypto.prove_trapdoor(prod_chameleon, b"contract", rng)
        for z in range(capacity + 3):
            other = dataclasses.replace(proof, z=z)
            assert not crypto.verify_trapdoor(y, params, b"contract", other)
            assert crypto.verify_trapdoor.cache_info().currsize <= capacity
        assert crypto.verify_trapdoor.cache_info().currsize == capacity

    def test_rejected_contexts_are_not_held(self, prod_chameleon, rng):
        """A context that fails the challenge never enters the memo: after
        as many rejected checks as the memo holds, with 64 KB contexts,
        under 1 MB stays allocated."""
        params, y = prod_chameleon.params, prod_chameleon.y
        proof = crypto.prove_trapdoor(prod_chameleon, b"contract", rng)
        capacity = crypto.RECIPIENT_COMB_CAPACITY
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(capacity):
                context = i.to_bytes(4, "big") * (1 << 14)
                assert not crypto.verify_trapdoor(y, params, context, proof)
            del context
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert crypto.verify_trapdoor.cache_info().currsize == 0
        assert held < 1 << 20

    def test_out_of_range_proofs_rejected_without_error(self, prod_chameleon, rng):
        """u >= p, u = 0, z >= q, y >= p and y = 0 are rejected before any
        hash or power: False, never an exception."""
        params, y = prod_chameleon.params, prod_chameleon.y
        proof = crypto.prove_trapdoor(prod_chameleon, b"contract", rng)
        big = 1 << params.p.bit_length()
        cases = [
            (y, dataclasses.replace(proof, u=params.p)),
            (y, dataclasses.replace(proof, u=big)),
            (y, dataclasses.replace(proof, u=0)),
            (y, dataclasses.replace(proof, z=params.q)),
            (y, dataclasses.replace(proof, z=big)),
            (params.p, proof),
            (big, proof),
            (0, proof),
        ]
        for key, candidate in cases:
            assert not crypto.verify_trapdoor(key, params, b"contract", candidate)
        assert crypto.verify_trapdoor.cache_info().currsize == 0
        assert crypto.verify_trapdoor(y, params, b"contract", proof)

    def test_second_claim_check_makes_no_proof_powers(self, monkeypatch):
        """A second claim under the same contract neither raises g to the
        proof's z nor y to its c, by a comb or by modexp."""
        report = run_scenario("mitm", cycles=2, domains=3, seed=21, rogue_cycle=2)
        proof = Claim.from_bytes(report.claim_bytes).contract.trapdoor_proof
        exponents = []
        real_comb_pow, real_modexp = crypto.FixedBaseComb.pow, crypto.modexp
        monkeypatch.setattr(
            crypto.FixedBaseComb, "pow",
            lambda comb, e: exponents.append(e) or real_comb_pow(comb, e),
        )
        monkeypatch.setattr(
            crypto, "modexp", lambda b, e, m: exponents.append(e) or real_modexp(b, e, m)
        )
        crypto.verify_trapdoor.cache_clear()
        for first in (True, False):
            exponents.clear()
            verdict = judge.verify_claim_bytes(report.claim_bytes, report.insurer_public, True)
            assert verdict is Verdict.ACCEPT
            proof_powers = {proof.z, proof.c} & set(exponents)
            assert proof_powers == ({proof.z, proof.c} if first else set())
