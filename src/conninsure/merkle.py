"""Padded, order-randomized Merkle tree over a cycle's vouchers.

The tree always has exactly N = |C| leaves: real vouchers are topped up
with pseudorandom padding vouchers and the whole set is permuted, so the
committed root and any single audit path reveal only the list size.  The
tree is fully regenerable from (seed, real vouchers, N), letting the
client discard it after submission.

Leaf digest: h(0x00 || voucher encoding); internal node: h(0x01 || L || R).
A tree of arbitrary size n splits at the largest power of two strictly
below n, log-structured (the RFC 6962 shape).  It is built bottom-up: each
level pairs neighbours, and an odd last node moves up unchanged, which
gives the same tree.
"""

from dataclasses import dataclass, field

from .crypto import hash_h, hash_h_each, prf
from .errors import CapacityError, NotFoundError, ParameterError
from .model import PAD_DOMAIN, VOUCHER_R_LEN, InclusionProof, Voucher
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


def permutation(n: int, seed: bytes) -> list[int]:
    """Seed-derived uniform permutation: Fisher-Yates, each index drawn by
    rejection sampling from the byte stream PRF(seed, "perm" || counter)."""
    order = list(range(n))
    stream, pos, counter = b"", 0, 0
    for i in range(n - 1, 0, -1):
        bits = i.bit_length()  # a draw below i + 1
        nbytes = (bits + 7) // 8
        shift = nbytes * 8 - bits
        while True:
            if len(stream) - pos < nbytes:
                stream = stream[pos:] + prf(seed, b"perm" + u32(counter))
                pos, counter = 0, counter + 1
            j = int.from_bytes(stream[pos : pos + nbytes], "big") >> shift
            pos += nbytes
            if j <= i:
                break
        order[i], order[j] = order[j], order[i]
    return order


def _pad_leaves(customer: int, cycleid: bytes, seed: bytes, count: int) -> list[bytes]:
    """leaf_digest(pad_voucher(customer, cycleid, seed, i)) for i < count.
    Padding vouchers differ only in their trailing r, so each leaf is the
    tree's encoded prefix plus its PRF bytes."""
    blank = Voucher(customer, PAD_DOMAIN, cycleid, bytes(VOUCHER_R_LEN)).to_bytes()
    prefix = _LEAF_PREFIX + blank[:-VOUCHER_R_LEN]
    # prf(seed, m) is hash_h(seed + m), so one shared-prefix pass gives all.
    rs = hash_h_each(seed, [b"pad" + u32(i) for i in range(count)])
    return hash_h_each(prefix, rs)


@dataclass
class PaddedMerkleTree:
    root: bytes
    _positions: dict = field(repr=False)
    # Every level of the tree, leaves first, the root's level last.
    _levels: list = field(repr=False)

    @property
    def leaves(self) -> list[bytes]:
        return self._levels[0]


def build_tree(
    vouchers: list[Voucher],
    n: int,
    seed: bytes,
    customer: int,
    cycleid: bytes,
) -> PaddedMerkleTree:
    """Build the padded tree for one cycle.

    n must equal the cycle's certificate-list size; it bounds the real
    voucher count and fixes the leaf count regardless of it.
    """
    if n < 1:
        raise ParameterError("tree must have at least one leaf")
    if len(vouchers) > n:
        raise CapacityError(f"{len(vouchers)} vouchers exceed capacity {n}")
    for v in vouchers:
        if v.customer != customer or v.cycleid != cycleid:
            raise ParameterError("voucher does not belong to this cycle")

    entries = [leaf_digest(v) for v in vouchers]
    entries += _pad_leaves(customer, cycleid, seed, n - len(vouchers))
    order = permutation(n, seed)
    leaves = [b""] * n
    for src, dst in enumerate(order):
        leaves[dst] = entries[src]

    levels = [leaves]
    level = leaves
    while len(level) > 1:
        up = list(map(node_digest, level[0::2], level[1::2]))
        if len(level) % 2:
            up.append(level[-1])
        levels.append(up)
        level = up
    positions = {
        vouchers[i].to_bytes(): order[i] for i in range(len(vouchers))
    }
    return PaddedMerkleTree(level[0], positions, levels)


def prove_inclusion(tree: PaddedMerkleTree, voucher: Voucher) -> InclusionProof:
    """Audit path for a real (non-padding) leaf."""
    pos = tree._positions.get(voucher.to_bytes())
    if pos is None:
        raise NotFoundError("voucher is not a real leaf of this tree")

    path = []
    index = pos
    for level in tree._levels[:-1]:
        sibling = index ^ 1
        if sibling < len(level):  # else the node moves up unchanged
            path.append((level[sibling], sibling < index))
        index //= 2
    return InclusionProof(leaf_index=pos, path=tuple(path))


def verify_inclusion(root: bytes, leaf: bytes, proof: InclusionProof) -> bool:
    """Recompute the root from a leaf digest and its audit path."""
    acc = leaf
    for sibling, sibling_is_left in proof.path:
        acc = node_digest(sibling, acc) if sibling_is_left else node_digest(acc, sibling)
    return acc == root
