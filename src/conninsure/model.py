"""Domain types shared by insurer, client, and judge: contracts, cycles,
vouchers, claims, and the rollback deltas that keep client storage small.

These are immutable value records; mutation happens only inside the
insurer/client stores, each serialized per contract.
"""

from dataclasses import dataclass, field

from . import crypto, wire
from .errors import ClaimFormatError, CorruptionError, ParameterError

VOUCHER_R_LEN = 32
DEFAULT_RETENTION_DAYS = 365
PAD_DOMAIN = "pad.invalid"


def chameleon_context(customer: int, label: str) -> bytes:
    """Context bound into every chameleon signature: customer number + label."""
    if label not in wire.SIGNED_PAYLOAD_LABELS:
        raise ParameterError(f"unknown context label {label!r}")
    return wire.u64(customer) + label.encode("ascii")


def registration_context(pk_a: crypto.PublicKey) -> bytes:
    """Context the trapdoor proof is bound to at registration time.

    The customer number does not exist yet when the applicant builds the
    proof, so the binding anchor is the applicant's signature key.
    """
    return b"ci-register:" + wire.u64(pk_a.scheme_id) + pk_a.data


# ---------------------------------------------------------------------------
# Contract
# ---------------------------------------------------------------------------


@wire.codec(
    wire.TAG_CONTRACT,
    ("customer", wire.U64),
    ("pk_in", wire.PUBLIC_KEY),
    ("pk_a", wire.PUBLIC_KEY),
    ("chameleon", wire.CHAMELEON_PUBLIC),
    ("trapdoor_proof", wire.TRAPDOOR_PROOF),
    ("t0", wire.U64),
    ("t_end", wire.U64),
    ("delta_t", wire.U64),
)
@dataclass(frozen=True)
class Contract:
    customer: int
    pk_in: crypto.PublicKey
    pk_a: crypto.PublicKey
    chameleon: crypto.ChameleonPublicKey
    trapdoor_proof: crypto.TrapdoorProof
    t0: int
    t_end: int
    delta_t: int

    def validate(self) -> None:
        if not self.t0 < self.t_end:
            raise ClaimFormatError("contract validity term is empty")
        if self.delta_t <= 0:
            raise ClaimFormatError("update-interval bound must be positive")
        ok = crypto.verify_trapdoor(
            self.chameleon.y,
            self.chameleon.params,
            registration_context(self.pk_a),
            self.trapdoor_proof,
        )
        if not ok:
            raise ClaimFormatError("trapdoor proof does not verify")


# ---------------------------------------------------------------------------
# Vouchers and TLS evidence
# ---------------------------------------------------------------------------


@wire.codec(
    wire.TAG_VOUCHER,
    ("customer", wire.U64),
    ("domain", wire.TEXT),
    ("cycleid", wire.BYTES),
    ("r", wire.BYTES),
)
@dataclass(frozen=True)
class Voucher:
    """Connection proof tuple: one per domain per update cycle, fresh r."""

    customer: int
    domain: str
    cycleid: bytes
    r: bytes

    def __post_init__(self):
        if len(self.cycleid) != wire.CYCLEID_LEN:
            raise ParameterError("cycleid must be 32 bytes")
        if len(self.r) != VOUCHER_R_LEN:
            raise ParameterError("voucher randomness must be 32 bytes")


@wire.codec(
    wire.TAG_TRANSCRIPT,
    ("client_random", wire.BYTES),
    ("server_random", wire.BYTES),
    ("server_dh_params", wire.BYTES),
    ("signature", wire.BYTES),
    ("hash_alg", wire.U64),
    ("sig_alg", wire.U64),
)
@dataclass(frozen=True)
class HandshakeTranscript:
    """The TLS 1.2 DHE handshake fragment the judge re-verifies.

    The signature covers client_random || server_random || server_dh_params
    exactly, in that byte order.
    """

    client_random: bytes
    server_random: bytes
    server_dh_params: bytes
    signature: bytes
    hash_alg: int
    sig_alg: int

    def __post_init__(self):
        if len(self.client_random) != 32 or len(self.server_random) != 32:
            raise ParameterError("handshake randoms must be 32 bytes")


@wire.codec(
    wire.TAG_EVIDENCE,
    ("cert_bob", wire.BYTES),
    ("voucher", Voucher.CODEC),
    ("transcript", HandshakeTranscript.CODEC),
)
@dataclass(frozen=True)
class VoucherEvidence:
    """Voucher plus the presented certificate and the server's signature."""

    cert_bob: bytes
    voucher: Voucher
    transcript: HandshakeTranscript


# ---------------------------------------------------------------------------
# Merkle inclusion proof (tree construction lives in merkle.py)
# ---------------------------------------------------------------------------


@wire.codec(
    wire.TAG_INCLUSION_PROOF,
    ("leaf_index", wire.U64),
    (
        "path",
        wire.list_of(wire.pair(("sibling", wire.DIGEST), ("sibling_is_left", wire.BOOL))),
    ),
)
@dataclass(frozen=True)
class InclusionProof:
    """Audit path from a leaf to the committed root.

    path entries are (sibling digest, sibling_is_left) ordered leaf-to-root.
    """

    leaf_index: int
    path: tuple


# ---------------------------------------------------------------------------
# Cycle records and claims
# ---------------------------------------------------------------------------


@wire.codec(
    wire.TAG_CYCLE_RECORD,
    ("cycle_index", wire.U64),
    ("cycleid", wire.BYTES),
    ("list_size", wire.U64),
    ("cert_digest", wire.BYTES),
    ("t", wire.OPT_U64),
    ("sig_a_certs", wire.OPT_BYTES),
    ("chsig_certs", wire.optional(wire.CHAMELEON_SIGNATURE)),
    ("t_prime", wire.OPT_U64),
    ("voucher_root", wire.OPT_BYTES),
    ("sig_a_vouchers", wire.OPT_BYTES),
    ("chsig_vouchers", wire.optional(wire.CHAMELEON_SIGNATURE)),
    ("tree_seed", wire.OPT_BYTES),
    ("covered", wire.OPT_BOOL),
    ("covered_self", wire.OPT_BOOL),
    ("evidences", wire.list_of(VoucherEvidence.CODEC, key=lambda ev: ev.voucher.domain)),
)
@dataclass
class CycleRecord:
    """Per-cycle transcript; client side also keeps the tree seed.

    evidences maps each domain to its evidence, encoded in domain order.
    """

    cycle_index: int
    cycleid: bytes
    list_size: int
    cert_digest: bytes
    t: int | None = None
    sig_a_certs: bytes | None = None
    chsig_certs: crypto.ChameleonSignature | None = None
    t_prime: int | None = None
    voucher_root: bytes | None = None
    sig_a_vouchers: bytes | None = None
    chsig_vouchers: crypto.ChameleonSignature | None = None
    tree_seed: bytes | None = None
    covered: bool | None = None
    covered_self: bool | None = None
    evidences: dict = field(default_factory=dict)


@wire.codec(
    wire.TAG_CLAIM,
    ("contract", Contract.CODEC),
    ("certs", wire.BYTES_TUPLE),
    ("cycleid", wire.BYTES),
    ("t", wire.U64),
    ("t_prime", wire.U64),
    ("chsig_certs", wire.CHAMELEON_SIGNATURE),
    ("chsig_vouchers", wire.CHAMELEON_SIGNATURE),
    ("voucher_root", wire.BYTES),
    ("proof", InclusionProof.CODEC),
    ("evidence", VoucherEvidence.CODEC),
    ("cert_index", wire.U64),
)
@dataclass(frozen=True)
class Claim:
    """Self-contained insurance-case bundle; the judge needs only pk_IN."""

    contract: Contract
    certs: tuple
    cycleid: bytes
    t: int
    t_prime: int
    chsig_certs: crypto.ChameleonSignature
    chsig_vouchers: crypto.ChameleonSignature
    voucher_root: bytes
    proof: InclusionProof
    evidence: VoucherEvidence
    cert_index: int


# ---------------------------------------------------------------------------
# Rollback deltas
# ---------------------------------------------------------------------------


@wire.codec(
    wire.TAG_ROLLBACK_DELTA,
    ("cycle_index", wire.U64),
    ("added", wire.list_of(wire.pair(("position", wire.U64), ("digest", wire.BYTES)))),
    ("removed", wire.list_of(wire.pair(("position", wire.U64), ("cert", wire.BYTES)))),
)
@dataclass(frozen=True)
class RollbackDelta:
    """Reverses update cycle i: apply(C_i) = C_{i-1} exactly.

    added: (position in C_i, cert hash) for certs that appeared in cycle i;
    removed: (position in C_{i-1}, cert bytes) for certs that disappeared.
    """

    cycle_index: int
    added: tuple
    removed: tuple


def compute_rollback(
    previous: list[bytes], current: list[bytes], cycle_index: int
) -> RollbackDelta:
    """Delta from the new list back to the old one, via an LCS diff on
    certificate hashes so arbitrary reorderings round-trip."""
    import difflib

    prev_keys = [crypto.hash_h(c) for c in previous]
    cur_keys = [crypto.hash_h(c) for c in current]
    matcher = difflib.SequenceMatcher(None, cur_keys, prev_keys, autojunk=False)
    added = []
    removed = []
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op in ("delete", "replace"):
            added.extend((i, cur_keys[i]) for i in range(i1, i2))
        if op in ("insert", "replace"):
            removed.extend((j, previous[j]) for j in range(j1, j2))
    return RollbackDelta(cycle_index, tuple(added), tuple(removed))


def apply_rollback(current: list[bytes], delta: RollbackDelta) -> list[bytes]:
    """Exact reconstruction of the previous list, order preserved."""
    work = list(current)
    for pos, digest in sorted(delta.added, reverse=True):
        if pos >= len(work):
            raise CorruptionError(f"added-cert position {pos} out of range")
        if crypto.hash_h(work[pos]) != digest:
            raise CorruptionError(f"certificate at position {pos} does not match delta")
        del work[pos]
    for pos, cert in sorted(delta.removed):
        if pos > len(work):
            raise CorruptionError(f"removed-cert position {pos} out of range")
        work.insert(pos, cert)
    return work


@wire.codec(wire.TAG_PAIR, ("delta", RollbackDelta.CODEC), ("cycle_time", wire.U64))
@dataclass(frozen=True)
class RollbackEntry:
    """One line of the client's rollback log."""

    delta: RollbackDelta
    cycle_time: int


def expire_rollbacks(
    entries: list[RollbackEntry],
    now: int,
    retention_seconds: int = DEFAULT_RETENTION_DAYS * 86400,
    validity: tuple[int, int] | None = None,
) -> list[RollbackEntry]:
    """Drop the leading deltas that no live claim can ever need.

    A delta stays claimable while its cycle is inside the retention window
    and (when a validity term is given) inside the contract term.  Deltas
    form a chain, so only a prefix may be removed.
    """

    def claimable(entry: RollbackEntry) -> bool:
        if entry.cycle_time + retention_seconds <= now:
            return False
        if validity is not None:
            t0, t_end = validity
            if not t0 <= entry.cycle_time <= t_end:
                return False
        return True

    for i, entry in enumerate(entries):
        if claimable(entry):
            return list(entries[i:])
    return []
