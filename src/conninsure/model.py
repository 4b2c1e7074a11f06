"""Domain types shared by insurer, client, and judge: contracts, cycles,
vouchers, claims, and the rollback deltas that keep client storage small.

These are immutable value records; mutation happens only inside the
insurer/client stores, each serialized per contract.
"""

from dataclasses import dataclass, field
from functools import cached_property

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


def application_problem(
    pk_a: crypto.PublicKey,
    chameleon: crypto.ChameleonPublicKey,
    proof: crypto.TrapdoorProof,
    delta_t: int,
) -> str | None:
    """Why an application with these terms fails, or None if it holds: the
    insurer refuses to register it and a judge refuses a contract with it."""
    if delta_t <= 0:
        return "update-interval bound must be positive"
    if chameleon.params not in crypto.GROUPS:
        return "chameleon key names an unknown group"
    if not crypto.verify_trapdoor(
        chameleon.y, chameleon.params, registration_context(pk_a), proof
    ):
        return "trapdoor proof does not verify"
    return None


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
        problem = application_problem(
            self.pk_a, self.chameleon, self.trapdoor_proof, self.delta_t
        )
        if problem:
            raise ClaimFormatError(problem)

    def covers(self, t: int, t_prime: int) -> bool:
        """Whether a submission at t_prime for a list downloaded at t is in time."""
        return t <= t_prime and t_prime - t <= self.delta_t


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


class CertList:
    """One version of the certificate list, with the hash_h of each entry.

    Versions derived from one another by `updated` share their certificate
    objects, so each costs two pointer arrays.  The hashes of a list built
    from scratch, and the digest of any list, are computed once, when first
    used.
    """

    def __init__(self, certs: list[bytes], hashes: list[bytes] | None = None):
        self.certs = certs
        if hashes is not None:
            self.hashes = hashes

    @cached_property
    def hashes(self) -> list[bytes]:
        return list(map(crypto.hash_h, self.certs))

    @cached_property
    def digest(self) -> bytes:
        return wire.cert_list_digest(self.certs, self.hashes)

    def updated(self, removed, appended: list[bytes]) -> "CertList":
        """The list without the entries at positions removed, then appended.
        removed must pass valid_positions for this list."""
        certs, hashes = [], []
        start = 0
        for pos in removed:
            certs += self.certs[start:pos]
            hashes += self.hashes[start:pos]
            start = pos + 1
        certs += self.certs[start:]
        hashes += self.hashes[start:]
        certs += appended
        hashes += map(crypto.hash_h, appended)
        return CertList(certs, hashes)

    def delta_from(self, base: "CertList") -> tuple[list[int], list[bytes]]:
        """(removed, appended) such that base.updated(removed, appended) is
        this list.  Updates only remove entries and append new ones, so any
        list this one was derived from is its surviving entries in order
        plus a tail; one walk matches the longest prefix of this list
        against base's entries in order.  The walk gallops over runs of
        matching entries by comparing slices, doubling the run while it
        matches and then halving it, so it takes a few steps per change."""
        ours, theirs = self.hashes, base.hashes
        size = len(theirs)
        removed = []
        pos = matched = 0
        while pos < size:
            run = 1
            while pos + run <= size and theirs[pos:pos + run] == ours[matched:matched + run]:
                pos += run
                matched += run
                run *= 2
            while run > 1:
                run //= 2
                if pos + run <= size and theirs[pos:pos + run] == ours[matched:matched + run]:
                    pos += run
                    matched += run
            if pos < size:  # base's entry at pos is not next in this list
                removed.append(pos)
                pos += 1
        return removed, self.certs[matched:]


def valid_positions(positions, size: int) -> bool:
    """True if positions are strictly ascending indexes into a list of size."""
    last = -1
    for pos in positions:
        if not last < pos < size:
            return False
        last = pos
    return True


def compute_rollback(previous, current, cycle_index: int) -> RollbackDelta:
    """Delta from the new list back to the old one: the inverse of the
    forward delta current.delta_from(previous).  Either list may be a
    CertList, whose carried hashes are used, or a list of certificates."""
    if not isinstance(previous, CertList):
        previous = CertList(previous)
    if not isinstance(current, CertList):
        current = CertList(current)
    removed, appended = current.delta_from(previous)
    start = len(current.certs) - len(appended)
    return RollbackDelta(
        cycle_index,
        tuple(enumerate(current.hashes[start:], start)),
        tuple((pos, previous.certs[pos]) for pos in removed),
    )


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
