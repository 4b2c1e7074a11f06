"""Padded, order-randomized Merkle tree over a cycle's vouchers.

The tree always has exactly N = |C| leaves, of which k hold the real
vouchers, so the committed root and any single audit path reveal only the
list size.  The tree is fully regenerable from (seed, real vouchers, N),
letting the client discard it after submission.

Leaf digest: h(0x00 || voucher encoding); internal node: h(0x01 || L || R).
A tree of arbitrary size n splits at the largest power of two strictly
below n, log-structured (the RFC 6962 shape).  One recursion builds both
trees below and collects each real leaf's audit path on the way up; a
subtree that holds no real leaf takes a value its builder gives.

`build_tree`, the builder for new cycles, computes only the subtrees that
hold a real voucher, in O(k log N):
- the k real leaf positions are the first k steps of a Fisher-Yates shuffle
  of range(N), its swaps kept in a dict, each draw by rejection sampling
  from the byte stream PRF(seed, "slot" || u32 counter);
- a subtree over leaves lo..hi-1 that holds no real leaf has the value
  PRF(seed, "node" || u32 lo || u32 hi), a single leaf included.

Why a root and one path reveal only N: the path's length and left/right
pattern are those of leaf index i in any tree of N leaves, and i is uniform
over range(N) whatever k is.  Each sibling on the path is either the
hash of a subtree holding other real vouchers, each with 32 random bytes,
or a PRF value under the 32-byte seed, which never leaves the client.
Without the seed neither can be told from a uniform 32-byte string, so
the path looks the same for every k <= N.  For the same seed the root
differs from the dense tree's.

`build_dense_tree` is the builder of earlier cycles, whose archived roots
stay claimable: it tops the real vouchers up with N - k pad_vouchers,
permutes all N by a full Fisher-Yates shuffle under PRF(seed, "perm" ||
u32 counter) and hashes every leaf.  A padding-only subtree takes its root
bottom-up (each level pairs neighbours, and an odd last node moves up
unchanged, which gives the same shape).  It is O(N).
"""

from bisect import bisect_left
from dataclasses import dataclass, field

from .crypto import hash_h, prf
from .errors import CapacityError, NotFoundError, ParameterError
from .model import PAD_DOMAIN, InclusionProof, Voucher
from .wire import u32

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def leaf_digest(voucher: Voucher) -> bytes:
    return hash_h(_LEAF_PREFIX + voucher.to_bytes())


def node_digest(left: bytes, right: bytes) -> bytes:
    return hash_h(_NODE_PREFIX + left + right)


def pad_voucher(customer: int, cycleid: bytes, seed: bytes, index: int) -> Voucher:
    """Format-valid filler leaf; the domain is unresolvable by construction."""
    return Voucher(customer, PAD_DOMAIN, cycleid, prf(seed, b"pad" + u32(index)))


def _draws(seed: bytes, label: bytes):
    """below(m), uniform over range(m): the next draw by rejection sampling
    from the byte stream PRF(seed, label || u32 counter), counter 0, 1, ...
    Each draw reads the fewest whole bytes that hold m - 1 (at least one)
    and keeps their top bits."""
    stream, pos, counter = b"", 0, 0

    def below(m: int) -> int:
        nonlocal stream, pos, counter
        bits = (m - 1).bit_length() or 1
        nbytes = (bits + 7) // 8
        shift = nbytes * 8 - bits
        while True:
            if len(stream) - pos < nbytes:
                stream = stream[pos:] + prf(seed, label + u32(counter))
                pos, counter = 0, counter + 1
            j = int.from_bytes(stream[pos : pos + nbytes], "big") >> shift
            pos += nbytes
            if j < m:
                return j

    return below


def permutation(n: int, seed: bytes) -> list[int]:
    """Seed-derived uniform permutation: Fisher-Yates, each index drawn from
    the "perm" stream."""
    below = _draws(seed, b"perm")
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def leaf_positions(n: int, k: int, seed: bytes) -> list[int]:
    """k distinct positions (k <= n), uniform over range(n): the first k
    steps of a Fisher-Yates shuffle of range(n), each index drawn from the
    "slot" stream, with only the swapped entries kept."""
    below = _draws(seed, b"slot")
    swapped: dict[int, int] = {}
    positions = []
    for i in range(k):
        j = i + below(n - i)
        positions.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return positions


def _split(size: int) -> int:
    """The largest power of two strictly below size (size >= 2)."""
    return 1 << ((size - 1).bit_length() - 1)


@dataclass
class PaddedMerkleTree:
    root: bytes
    # Each real voucher's encoding -> its audit path.
    _proofs: dict = field(repr=False)


@dataclass
class DenseMerkleTree(PaddedMerkleTree):
    # Every leaf digest, in position order.
    leaves: list = field(repr=False)


def _check_cycle(vouchers: list[Voucher], n: int, customer: int, cycleid: bytes) -> None:
    if n < 1:
        raise ParameterError("tree must have at least one leaf")
    if len(vouchers) > n:
        raise CapacityError(f"{len(vouchers)} vouchers exceed capacity {n}")
    for v in vouchers:
        if v.customer != customer or v.cycleid != cycleid:
            raise ParameterError("voucher does not belong to this cycle")


def _build(vouchers: list[Voucher], positions: list[int], n: int, empty):
    """(root, proofs) of the tree over n leaves with vouchers[i] at
    positions[i]; a subtree over leaves lo..hi-1 that holds no voucher has
    the value empty(lo, hi)."""
    order = sorted(range(len(vouchers)), key=positions.__getitem__)
    spots = [positions[i] for i in order]
    paths = [[] for _ in vouchers]

    def subtree(lo: int, hi: int, first: int, last: int) -> bytes:
        """The root over leaves lo..hi-1, which hold the real leaves
        order[first:last]; appends its sibling to each of their paths."""
        if first == last:
            return empty(lo, hi)
        if hi - lo == 1:
            return leaf_digest(vouchers[order[first]])
        mid = lo + _split(hi - lo)
        cut = bisect_left(spots, mid, first, last)
        left = subtree(lo, mid, first, cut)
        right = subtree(mid, hi, cut, last)
        for i in order[first:cut]:
            paths[i].append((right, False))
        for i in order[cut:last]:
            paths[i].append((left, True))
        return node_digest(left, right)

    root = subtree(0, n, 0, len(vouchers))
    proofs = {
        v.to_bytes(): InclusionProof(leaf_index=pos, path=tuple(path))
        for v, pos, path in zip(vouchers, positions, paths)
    }
    return root, proofs


def build_tree(
    vouchers: list[Voucher],
    n: int,
    seed: bytes,
    customer: int,
    cycleid: bytes,
) -> PaddedMerkleTree:
    """Build one cycle's padded tree, computing only the subtrees that hold
    a real voucher.

    n must equal the cycle's certificate-list size; it bounds the real
    voucher count and fixes the leaf count regardless of it.
    """
    _check_cycle(vouchers, n, customer, cycleid)
    positions = leaf_positions(n, len(vouchers), seed)
    root, proofs = _build(
        vouchers, positions, n, lambda lo, hi: prf(seed, b"node" + u32(lo) + u32(hi))
    )
    return PaddedMerkleTree(root, proofs)


def build_dense_tree(
    vouchers: list[Voucher],
    n: int,
    seed: bytes,
    customer: int,
    cycleid: bytes,
) -> DenseMerkleTree:
    """Build the tree of a cycle committed before build_tree, with every
    leaf and node, from the same arguments."""
    _check_cycle(vouchers, n, customer, cycleid)
    entries = [leaf_digest(v) for v in vouchers]
    for i in range(n - len(vouchers)):
        entries.append(leaf_digest(pad_voucher(customer, cycleid, seed, i)))
    order = permutation(n, seed)
    leaves = [b""] * n
    for src, dst in enumerate(order):
        leaves[dst] = entries[src]

    def padding_root(lo: int, hi: int) -> bytes:
        level = leaves[lo:hi]
        while len(level) > 1:
            up = list(map(node_digest, level[0::2], level[1::2]))
            if len(level) % 2:  # the odd last node moves up unchanged
                up.append(level[-1])
            level = up
        return level[0]

    root, proofs = _build(vouchers, order[: len(vouchers)], n, padding_root)
    return DenseMerkleTree(root, proofs, leaves)


def prove_inclusion(tree: PaddedMerkleTree, voucher: Voucher) -> InclusionProof:
    """Audit path for a real (non-padding) leaf."""
    proof = tree._proofs.get(voucher.to_bytes())
    if proof is None:
        raise NotFoundError("voucher is not a real leaf of this tree")
    return proof


def verify_inclusion(root: bytes, leaf: bytes, proof: InclusionProof) -> bool:
    """Recompute the root from a leaf digest and its audit path."""
    acc = leaf
    for sibling, sibling_is_left in proof.path:
        acc = node_digest(sibling, acc) if sibling_is_left else node_digest(acc, sibling)
    return acc == root
