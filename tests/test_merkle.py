"""Padded Merkle tree against an independent naive oracle.

The oracle below reimplements padding-voucher derivation, the Fisher-Yates
permutation, and the recursive root rule directly from their definitions,
sharing no code with conninsure.merkle.
"""

import hashlib

import pytest

from conninsure import merkle
from conninsure.errors import CapacityError, NotFoundError, ParameterError
from conninsure.model import PAD_DOMAIN, Voucher
from conninsure.rand import RandomSource
from support import load_hex_fixture

CUSTOMER = 7
CYCLEID = bytes(range(32))


def _vouchers(count, rng=None):
    rng = rng or RandomSource(5)
    return [
        Voucher(CUSTOMER, f"d{i:03d}.example.org", CYCLEID, rng.bytes(32))
        for i in range(count)
    ]


# -- independent oracle -------------------------------------------------------


def _oracle_h(data: bytes) -> bytes:
    return hashlib.sha256(b"\x68" + data).digest()


def _oracle_stream_below(seed, label, counter_state, bound):
    """Rejection sampling over h(seed || label || counter) blocks."""
    buf, counter = counter_state
    bits = (bound - 1).bit_length() or 1
    nbytes = (bits + 7) // 8
    while True:
        while len(buf) < nbytes:
            buf += _oracle_h(seed + label + counter.to_bytes(4, "big"))
            counter += 1
        chunk, buf = buf[:nbytes], buf[nbytes:]
        v = int.from_bytes(chunk, "big") >> (nbytes * 8 - bits)
        if v < bound:
            return v, (buf, counter)


def _oracle_leaves(vouchers, n, seed):
    entries = list(vouchers) + [
        Voucher(
            CUSTOMER,
            PAD_DOMAIN,
            CYCLEID,
            _oracle_h(seed + b"pad" + i.to_bytes(4, "big")),
        )
        for i in range(n - len(vouchers))
    ]
    order = list(range(n))
    state = (b"", 0)
    for i in range(n - 1, 0, -1):
        j, state = _oracle_stream_below(seed, b"perm", state, i + 1)
        order[i], order[j] = order[j], order[i]
    ordered = [None] * n
    for src, dst in enumerate(order):
        ordered[dst] = entries[src]
    return [_oracle_h(b"\x00" + v.to_bytes()) for v in ordered]


def _oracle_root(leaves):
    """Naive quadratic recursive builder: re-slices the list at each level."""
    if len(leaves) == 1:
        return leaves[0]
    k = 1
    while k * 2 < len(leaves):
        k *= 2
    return _oracle_h(b"\x01" + _oracle_root(leaves[:k]) + _oracle_root(leaves[k:]))


def _oracle_path(leaves, index):
    """Audit path by the recursive split rule, leaf to root."""
    if len(leaves) == 1:
        return []
    k = 1
    while k * 2 < len(leaves):
        k *= 2
    if index < k:
        return _oracle_path(leaves[:k], index) + [(_oracle_root(leaves[k:]), False)]
    return _oracle_path(leaves[k:], index - k) + [(_oracle_root(leaves[:k]), True)]


# -- tests ---------------------------------------------------------------------


class TestBuildTree:
    def test_single_leaf_root_is_leaf_digest(self):
        v = _vouchers(1)
        tree = merkle.build_tree(v, 1, b"\x01" * 32, CUSTOMER, CYCLEID)
        assert tree.root == merkle.leaf_digest(v[0])

    def test_deterministic_rebuild(self):
        vouchers = _vouchers(3)
        seed = b"\x07" * 32
        t1 = merkle.build_tree(vouchers, 8, seed, CUSTOMER, CYCLEID)
        t2 = merkle.build_tree(vouchers, 8, seed, CUSTOMER, CYCLEID)
        assert t1.root == t2.root
        assert t1.leaves == t2.leaves

    def test_oracle_equivalence_n4(self):
        vouchers = _vouchers(2)
        seed = b"\x09" * 32
        tree = merkle.build_tree(vouchers, 4, seed, CUSTOMER, CYCLEID)
        assert tree.root == _oracle_root(_oracle_leaves(vouchers, 4, seed))

    def test_oracle_equivalence_all_sizes(self):
        rng = RandomSource(31)
        for n in range(1, 65):
            count = rng.below(n + 1)
            vouchers = _vouchers(count, rng)
            seed = rng.bytes(32)
            tree = merkle.build_tree(vouchers, n, seed, CUSTOMER, CYCLEID)
            assert tree.root == _oracle_root(_oracle_leaves(vouchers, n, seed)), n

    def test_bottom_up_tree_equals_recursive_split(self):
        """The root and every real leaf's audit path equal the recursive
        largest-power-of-two split, for every size up to 300."""
        rng = RandomSource(32)
        for n in range(1, 301):
            vouchers = _vouchers(rng.below(min(n, 6) + 1), rng)
            seed = rng.bytes(32)
            tree = merkle.build_tree(vouchers, n, seed, CUSTOMER, CYCLEID)
            leaves = _oracle_leaves(vouchers, n, seed)
            assert tree.leaves == leaves, n
            assert tree.root == _oracle_root(leaves), n
            for v in vouchers:
                proof = merkle.prove_inclusion(tree, v)
                assert leaves[proof.leaf_index] == merkle.leaf_digest(v)
                assert list(proof.path) == _oracle_path(leaves, proof.leaf_index), n

    def test_golden_4leaf_root(self):
        vouchers = [
            Voucher(CUSTOMER, f"v{i}.example.org", CYCLEID, bytes([i]) * 32)
            for i in range(2)
        ]
        tree = merkle.build_tree(vouchers, 4, b"\x11" * 32, CUSTOMER, CYCLEID)
        assert tree.root == load_hex_fixture("merkle_4leaf_golden.hex")

    def test_leaf_count_always_n(self):
        for real in (0, 3, 7):
            tree = merkle.build_tree(_vouchers(real), 7, b"\x02" * 32, CUSTOMER, CYCLEID)
            assert len(tree.leaves) == 7

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            merkle.build_tree(_vouchers(5), 4, b"\x00" * 32, CUSTOMER, CYCLEID)

    def test_foreign_voucher_rejected(self):
        alien = Voucher(CUSTOMER + 1, "x.example.org", CYCLEID, b"\x01" * 32)
        with pytest.raises(ParameterError):
            merkle.build_tree([alien], 2, b"\x00" * 32, CUSTOMER, CYCLEID)

    def test_zero_leaves_rejected(self):
        with pytest.raises(ParameterError):
            merkle.build_tree([], 0, b"\x00" * 32, CUSTOMER, CYCLEID)

    def test_domain_separation_bytes_present(self):
        # Leaf and node hashing differ even over identical child bytes.
        blob = b"\x55" * 32
        assert merkle.leaf_digest(
            Voucher(CUSTOMER, "a.example", CYCLEID, blob)
        ) != merkle.node_digest(blob, blob)


class TestInclusionProofs:
    def test_all_real_leaves_verify_257(self):
        vouchers = _vouchers(100)
        tree = merkle.build_tree(vouchers, 257, b"\x03" * 32, CUSTOMER, CYCLEID)
        for v in vouchers:
            proof = merkle.prove_inclusion(tree, v)
            assert merkle.verify_inclusion(tree.root, merkle.leaf_digest(v), proof)

    def test_proof_length_log_n(self):
        vouchers = _vouchers(10)
        tree = merkle.build_tree(vouchers, 64, b"\x04" * 32, CUSTOMER, CYCLEID)
        proof = merkle.prove_inclusion(tree, vouchers[0])
        assert len(proof.path) == 6

    def test_flipped_sibling_rejected(self):
        vouchers = _vouchers(4)
        tree = merkle.build_tree(vouchers, 8, b"\x05" * 32, CUSTOMER, CYCLEID)
        proof = merkle.prove_inclusion(tree, vouchers[1])
        digest, is_left = proof.path[0]
        bad = type(proof)(
            proof.leaf_index,
            ((bytes([digest[0] ^ 1]) + digest[1:], is_left),) + proof.path[1:],
        )
        assert not merkle.verify_inclusion(
            tree.root, merkle.leaf_digest(vouchers[1]), bad
        )

    def test_cross_cycle_proof_rejected(self):
        vouchers = _vouchers(4)
        t1 = merkle.build_tree(vouchers, 8, b"\x06" * 32, CUSTOMER, CYCLEID)
        t2 = merkle.build_tree(vouchers, 8, b"\x07" * 32, CUSTOMER, CYCLEID)
        proof = merkle.prove_inclusion(t1, vouchers[0])
        assert not merkle.verify_inclusion(
            t2.root, merkle.leaf_digest(vouchers[0]), proof
        )

    def test_padding_leaf_not_provable(self):
        tree = merkle.build_tree(_vouchers(1), 4, b"\x08" * 32, CUSTOMER, CYCLEID)
        pad = merkle.pad_voucher(CUSTOMER, CYCLEID, b"\x08" * 32, 0)
        with pytest.raises(NotFoundError):
            merkle.prove_inclusion(tree, pad)

    def test_unknown_voucher_not_found(self):
        tree = merkle.build_tree(_vouchers(2), 4, b"\x09" * 32, CUSTOMER, CYCLEID)
        stranger = Voucher(CUSTOMER, "stranger.example.org", CYCLEID, b"\x77" * 32)
        with pytest.raises(NotFoundError):
            merkle.prove_inclusion(tree, stranger)


class TestRegeneration:
    def test_rebuild_from_seed_reproduces_everything(self):
        """Discard the tree; (seed, vouchers, N) reproduces root and proofs."""
        vouchers = _vouchers(9)
        seed = b"\x0a" * 32
        first = merkle.build_tree(vouchers, 21, seed, CUSTOMER, CYCLEID)
        root, proofs = first.root, [merkle.prove_inclusion(first, v) for v in vouchers]
        del first
        rebuilt = merkle.build_tree(vouchers, 21, seed, CUSTOMER, CYCLEID)
        assert rebuilt.root == root
        for v, old in zip(vouchers, proofs):
            assert merkle.prove_inclusion(rebuilt, v) == old

    def test_fresh_seed_changes_structure(self):
        vouchers = _vouchers(4)
        t1 = merkle.build_tree(vouchers, 16, b"\x0b" * 32, CUSTOMER, CYCLEID)
        t2 = merkle.build_tree(vouchers, 16, b"\x0c" * 32, CUSTOMER, CYCLEID)
        assert t1.root != t2.root


class TestPaddingShape:
    def test_padding_vouchers_format_valid(self):
        pad = merkle.pad_voucher(CUSTOMER, CYCLEID, b"\x0d" * 32, 3)
        assert pad.customer == CUSTOMER
        assert pad.domain == PAD_DOMAIN
        assert len(pad.r) == 32

    def test_tree_shape_reveals_only_n(self):
        # Same N, wildly different |V|: identical leaf counts and proof shape.
        t_empty = merkle.build_tree([], 12, b"\x0e" * 32, CUSTOMER, CYCLEID)
        t_full = merkle.build_tree(_vouchers(12), 12, b"\x0e" * 32, CUSTOMER, CYCLEID)
        assert len(t_empty.leaves) == len(t_full.leaves) == 12
