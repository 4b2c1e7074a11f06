"""Hash oracles, standard signatures, the chameleon construction, and the
trapdoor-knowledge proof.  Expected values come from independent modular
arithmetic (see fixtures/toy_chameleon_vectors.json) or from sha256sum
known answers.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conninsure import crypto
from conninsure.errors import KeyFormatError, ParameterError
from conninsure.rand import RandomSource

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
            insurer_keypair.public, prod_chameleon.public, b"payload", sig
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
            insurer_keypair.public, prod_chameleon.public, b"forged", forged
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
            insurer_keypair.public, prod_chameleon.public, b"m", bad
        )

    def test_transplant_to_other_recipient_rejected(self, insurer_keypair, rng):
        alice = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng)
        carol = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng)
        sig, _ = crypto.chameleon_sign(
            insurer_keypair, alice.public, b"m", b"ctx", rng
        )
        assert not crypto.chameleon_verify(
            insurer_keypair.public, carol.public, b"m", sig
        )


_GROUPS = [crypto.GROUP_2048_256, crypto.TOY_GROUP]


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
    def test_out_of_range_exponent_rejected(self, params):
        for comb, _ in _combs(params):
            for e in (-1, 1 << params.q.bit_length()):
                with pytest.raises(ParameterError):
                    comb.pow(e)

    def test_generator_comb_built_once(self):
        params = crypto.GroupParams(crypto.TOY_GROUP.p, crypto.TOY_GROUP.q, 4)
        assert crypto.generator_comb(params) is crypto.generator_comb(crypto.TOY_GROUP)

    @pytest.mark.parametrize(
        "params, chameleon",
        [(crypto.GROUP_2048_256, "prod_chameleon"), (crypto.TOY_GROUP, "toy_chameleon")],
        ids=["2048", "toy"],
    )
    def test_chameleon_results_same_with_comb(
        self, params, chameleon, insurer_keypair, request
    ):
        recipient = request.getfixturevalue(chameleon).public
        y_comb = crypto.recipient_comb(recipient)
        for r in (0, 1, 7, params.q - 1):
            assert crypto.chameleon_hash(
                params, recipient.y, b"m", r, y_comb
            ) == crypto.chameleon_hash(params, recipient.y, b"m", r)
        plain, plain_ch = crypto.chameleon_sign(
            insurer_keypair, recipient, b"m", b"ctx", RandomSource(3)
        )
        combed, combed_ch = crypto.chameleon_sign(
            insurer_keypair, recipient, b"m", b"ctx", RandomSource(3), y_comb
        )
        assert combed == plain
        assert combed_ch == plain_ch == crypto.chameleon_hash(
            params, recipient.y, b"m", plain.r
        )
        for sig in (plain, combed):
            for y_comb_arg in (None, y_comb):
                assert crypto.chameleon_verify(
                    insurer_keypair.public, recipient, b"m", sig, y_comb=y_comb_arg
                )
                assert not crypto.chameleon_verify(
                    insurer_keypair.public, recipient, b"m2", sig, y_comb=y_comb_arg
                )

    def test_comb_of_other_recipient_rejected(self, prod_chameleon, rng):
        other = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng)
        with pytest.raises(ParameterError):
            crypto.chameleon_hash(
                crypto.GROUP_2048_256, prod_chameleon.y, b"m", 1,
                crypto.recipient_comb(other.public),
            )


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
