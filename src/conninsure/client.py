"""The customer agent: key and contract management, update cycles, browsing
with voucher creation, the evidence store with rollback deltas, and claim
assembly.

State is one writer per contract, in four files: a small working-state
file, an append-only archive of closed cycles, an append-only log of
rollback deltas, and the list log, which holds the up-to-date certificate
list as a base frame plus the forward deltas of later cycles.  Each update
downloads a forward delta from the list the client holds; the list log
keeps that delta and the rollback log its inverse, so a save writes in
proportion to what changed.  Older lists are reconstructed through the
rollback deltas when a claim needs them.
"""

import os
from dataclasses import dataclass

from . import crypto, merkle, tlssim, wire
from .errors import (
    CorruptionError,
    InsurerMisbehavior,
    NotFoundError,
    ParameterError,
    SequencingError,
)
from .insurer import (
    ACK_CERTS_REQUEST,
    ACK_CERTS_RESPONSE,
    BEGIN_CYCLE_REQUEST,
    BEGIN_CYCLE_RESPONSE,
    LIST_DELTA,
    REGISTER_RESPONSE,
    SUBMIT_VOUCHERS_REQUEST,
    SUBMIT_VOUCHERS_RESPONSE,
    RegistrationRequest,
)
from .model import (
    PAD_DOMAIN,
    CertList,
    Claim,
    Contract,
    CycleRecord,
    RollbackEntry,
    Voucher,
    apply_rollback,
    chameleon_context,
    compute_rollback,
    expire_rollbacks,
    registration_context,
    valid_positions,
)
from .rand import DEFAULT, RandomSource

STATE_FILE = "state.tlv"
ARCHIVE_FILE = "archive.tlv"
ROLLBACK_FILE = "rollback.tlv"
# list.tlv: frames of LIST_DELTA items (removed positions, appended
# certificates, cycle index).  The first, the base, applies to the empty
# list; each later one is the forward delta to the next cycle's list.
LIST_FILE = "list.tlv"

# state.tlv: one frame holding these fields (no enclosing tag).  certs is
# written empty: it holds the list only in files from before list.tlv.
_STATE = wire.Record(
    None,
    None,
    ("public", wire.PUBLIC_KEY),
    ("secret", wire.BYTES),
    ("params", wire.GROUP_PARAMS),
    ("x", wire.VARINT),
    ("y", wire.VARINT),
    ("contract", Contract.CODEC),
    ("certs", wire.BYTES_LIST),
    ("current_index", wire.U64),
    ("warnings", wire.list_of(wire.pair(("cycle", wire.U64), ("domain", wire.TEXT)))),
    ("open_cycle", wire.optional(CycleRecord.CODEC)),
)


@dataclass(frozen=True)
class BrowseResult:
    """Outcome of one browse: vouched / reused / untrusted."""

    status: str
    evidence: object = None
    cert: bytes | None = None


class ClientState:
    def __init__(
        self,
        keypair: crypto.SigKeyPair,
        chameleon_kp: crypto.ChameleonKeyPair,
        contract: Contract,
    ):
        self.keypair = keypair
        self.chameleon_kp = chameleon_kp
        self.contract = contract
        self.listing = CertList([])
        self.current_index = 0
        self.rollback_entries: list[RollbackEntry] = []
        self.open_cycle: CycleRecord | None = None
        self.archive: list[CycleRecord] = []
        self.warnings: list[tuple[int, str]] = []
        # Records on disk in archive.tlv and rollback.tlv; None (after
        # pruning or a failed write) rewrites the log whole.
        self._archived_on_disk: int | None = 0
        self._rollback_on_disk: int | None = 0
        # The cycle index list.tlv reaches (None: rewrite it whole), the
        # bytes of its base frame and of its delta frames, and the forward
        # deltas (removed, appended, cycle index) not yet written to it.
        self._list_on_disk: int | None = None
        self._list_bytes = (0, 0)
        self._list_deltas: list[tuple] = []

    @property
    def customer(self) -> int:
        return self.contract.customer

    @property
    def certs(self) -> list[bytes]:
        """The list downloaded in the latest cycle."""
        return self.listing.certs

    def _held_digest(self) -> bytes:
        """Digest of the list this client holds, from its latest cycle's
        record; empty if it holds none (or no record matches it)."""
        if self.archive and self.archive[-1].cycle_index == self.current_index:
            return self.archive[-1].cert_digest
        return b""

    def _verify_countersignature(
        self, payload: bytes, chsig: crypto.ChameleonSignature, label: str
    ) -> None:
        """Check an insurer countersignature under this client's own chameleon
        key, through its trapdoor."""
        ok = crypto.recipient_verify(
            self.contract.pk_in,
            self.chameleon_kp,
            payload,
            chsig,
            context=chameleon_context(self.customer, label),
        )
        if not ok:
            raise InsurerMisbehavior("insurer countersignature does not verify")

    # -- registration ---------------------------------------------------------

    @classmethod
    def register(
        cls,
        channel,
        requested_delta_t: int,
        rng: RandomSource = DEFAULT,
        group: crypto.GroupParams = crypto.GROUP_2048_256,
    ) -> "ClientState":
        """Create keys, prove trapdoor knowledge, and obtain a contract."""
        keypair = crypto.generate_sig_keypair(crypto.SCHEME_ED25519, rng)
        chameleon_kp = crypto.generate_chameleon_keypair(group, rng)
        proof = crypto.prove_trapdoor(
            chameleon_kp, registration_context(keypair.public), rng
        )
        request = RegistrationRequest(
            pk_a=keypair.public,
            chameleon=chameleon_kp.public,
            trapdoor_proof=proof,
            requested_delta_t=requested_delta_t,
        )
        (contract,) = REGISTER_RESPONSE.decode_body(channel.request(request.to_bytes()))
        if contract.pk_a != keypair.public or contract.chameleon != chameleon_kp.public:
            raise InsurerMisbehavior("contract does not embed the applicant's keys")
        contract.validate()
        return cls(keypair, chameleon_kp, contract)

    # -- update cycle ----------------------------------------------------------

    def do_update_cycle(self, channel, now: int) -> CycleRecord:
        """Run the certificate-list download exchange and open a cycle."""
        if self.open_cycle is not None:
            raise SequencingError("previous cycle not submitted yet")
        held = self._held_digest()
        cycleid, base, removed, appended = BEGIN_CYCLE_RESPONSE.decode_body(
            channel.request(BEGIN_CYCLE_REQUEST.encode((self.customer, held)))
        )
        old = self.listing
        if base not in (b"", held):
            raise InsurerMisbehavior("delta is not from the list this client holds")
        if not valid_positions(removed, len(old.certs) if base else 0):
            raise InsurerMisbehavior("removed positions are not ascending within the list")
        if not base:  # from the empty list: every held entry goes
            removed = range(len(old.certs))
        new = old.updated(removed, appended)
        if not new.certs:
            raise InsurerMisbehavior("certificate list is empty")

        digest = new.digest
        payload = wire.encode_signed_payload(
            "Certificates", self.customer, cycleid, now, digest
        )
        sig_a = crypto.sign(self.keypair, payload)
        request = ACK_CERTS_REQUEST.encode((self.customer, cycleid, now, sig_a))
        (chsig,) = ACK_CERTS_RESPONSE.decode_body(channel.request(request))
        self._verify_countersignature(payload, chsig, "Certificates")

        index = self.current_index + 1
        if self.current_index > 0:
            delta = compute_rollback(old, new, index)
            self.rollback_entries.append(RollbackEntry(delta, now))
        self.listing = new
        self.current_index = index
        self._list_deltas.append((removed, appended, index))
        self.open_cycle = CycleRecord(
            cycle_index=index,
            cycleid=cycleid,
            list_size=len(new.certs),
            cert_digest=digest,
            t=now,
            sig_a_certs=sig_a,
            chsig_certs=chsig,
        )
        return self.open_cycle

    # -- browsing --------------------------------------------------------------

    def browse(self, domain: str, server, now: int, rng: RandomSource = DEFAULT) -> BrowseResult:
        """Visit a domain; voucher the connection if its certificate is vetted."""
        if self.open_cycle is None:
            raise SequencingError("no open update cycle")
        existing = self.open_cycle.evidences.get(domain)
        if existing is not None:
            return BrowseResult("reused", existing, existing.cert_bob)
        cert = server.presented_cert
        if cert not in self.certs:
            self.warnings.append((self.open_cycle.cycle_index, domain))
            return BrowseResult("untrusted", None, cert)
        voucher = Voucher(
            self.customer, domain, self.open_cycle.cycleid, rng.bytes(32)
        )
        client_random = tlssim.client_hello(voucher, now)
        transcript = server.handshake(client_random, now, rng)
        evidence = tlssim.extract_evidence(transcript, voucher, cert)
        self.open_cycle.evidences[domain] = evidence
        return BrowseResult("vouched", evidence, cert)

    # -- submission --------------------------------------------------------------

    def _cycle_vouchers(self, record: CycleRecord) -> list[Voucher]:
        return [record.evidences[d].voucher for d in sorted(record.evidences)]

    def submit_cycle(self, channel, now: int, rng: RandomSource = DEFAULT) -> CycleRecord:
        """Commit the cycle's vouchers as a padded Merkle root and archive it."""
        cycle = self.open_cycle
        if cycle is None:
            raise SequencingError("no open update cycle")
        seed = rng.bytes(32)
        tree = merkle.build_tree(
            self._cycle_vouchers(cycle), cycle.list_size, seed,
            self.customer, cycle.cycleid,
        )
        payload = wire.encode_signed_payload(
            "Vouchers", self.customer, cycle.cycleid, now, tree.root
        )
        sig_a = crypto.sign(self.keypair, payload)
        request = SUBMIT_VOUCHERS_REQUEST.encode(
            (self.customer, cycle.cycleid, now, tree.root, sig_a)
        )
        chsig, covered = SUBMIT_VOUCHERS_RESPONSE.decode_body(channel.request(request))
        self._verify_countersignature(payload, chsig, "Vouchers")

        cycle.t_prime = now
        cycle.voucher_root = tree.root
        cycle.sig_a_vouchers = sig_a
        cycle.chsig_vouchers = chsig
        cycle.tree_seed = seed
        cycle.covered = covered
        cycle.covered_self = self.contract.covers(cycle.t, now)
        self.archive.append(cycle)
        self.open_cycle = None
        return cycle

    # -- claims -----------------------------------------------------------------

    def reconstruct_list(self, cycle_index: int) -> list[bytes]:
        """Roll the current list back to the one downloaded in cycle_index."""
        if not 1 <= cycle_index <= self.current_index:
            raise NotFoundError(f"no cycle {cycle_index}")
        return _roll_back(self.certs, self.current_index, cycle_index, self.rollback_entries)

    def _archived(self, cycleid: bytes) -> CycleRecord:
        for record in self.archive:
            if record.cycleid == cycleid:
                return record
        raise NotFoundError("no archived cycle with this cycleid")

    def assemble_claim(self, cycleid: bytes, domain: str) -> Claim:
        """Rebuild the cycle's tree from its seed and bundle a claim file."""
        if domain == PAD_DOMAIN:
            raise ParameterError("cannot claim on a padding leaf")
        record = self._archived(cycleid)
        evidence = record.evidences.get(domain)
        if evidence is None:
            raise NotFoundError(f"no voucher for {domain} in that cycle")
        certs = self.reconstruct_list(record.cycle_index)
        if wire.cert_list_digest(certs) != record.cert_digest:
            raise CorruptionError("reconstructed list does not match the cycle digest")
        tree = merkle.build_tree(
            self._cycle_vouchers(record), record.list_size, record.tree_seed,
            self.customer, cycleid,
        )
        if tree.root != record.voucher_root:
            raise CorruptionError("regenerated tree root does not match submission")
        proof = merkle.prove_inclusion(tree, evidence.voucher)
        try:
            cert_index = certs.index(evidence.cert_bob)
        except ValueError:
            raise NotFoundError("presented certificate is not in that cycle's list")
        return Claim(
            contract=self.contract,
            certs=tuple(certs),
            cycleid=cycleid,
            t=record.t,
            t_prime=record.t_prime,
            chsig_certs=record.chsig_certs,
            chsig_vouchers=record.chsig_vouchers,
            voucher_root=record.voucher_root,
            proof=proof,
            evidence=evidence,
            cert_index=cert_index,
        )

    # -- persistence --------------------------------------------------------------

    def save(self, directory: str) -> None:
        """Append to archive.tlv, then to rollback.tlv, then write list.tlv,
        then replace state.tlv, whose current_index commits the list and
        which drops the open cycle once it is archived: a crash between the
        writes loses no archived cycle.

        list.tlv takes the forward deltas of the cycles since its last
        write as appended frames, until its delta frames would outgrow its
        base frame; then, or when it must be rewritten, it is replaced by
        one base frame holding the current list.  So a save writes in
        proportion to what changed, and list.tlv stays within twice its
        base frame."""
        os.makedirs(directory, exist_ok=True)
        # Each count is None until its write succeeds: a failed append may
        # leave a torn tail that could not be cut off, so the next save
        # replaces that log whole instead of appending behind it.
        on_disk, self._archived_on_disk = self._archived_on_disk, None
        self._archived_on_disk = _save_log(directory, ARCHIVE_FILE, self.archive, on_disk)
        on_disk, self._rollback_on_disk = self._rollback_on_disk, None
        self._rollback_on_disk = _save_log(
            directory, ROLLBACK_FILE, self.rollback_entries, on_disk
        )
        self._save_list(os.path.join(directory, LIST_FILE))
        kp = self.chameleon_kp
        body = _STATE.encode_body((
            self.keypair.public, self.keypair.secret, kp.params, kp.x, kp.y,
            self.contract, [], self.current_index, self.warnings,
            self.open_cycle,
        ))
        wire.replace_frames(os.path.join(directory, STATE_FILE), [body])

    def _save_list(self, path: str) -> None:
        on_disk = self._list_on_disk if os.path.exists(path) else None
        if on_disk == self.current_index:
            return
        self._list_on_disk = None  # until the write below succeeds
        base, deltas = self._list_bytes
        frames = [] if on_disk is None else list(map(LIST_DELTA.encode, self._list_deltas))
        size = sum(map(len, frames)) + 4 * len(frames)
        if frames and deltas + size <= base:
            wire.append_frames(path, frames)
            self._list_bytes = (base, deltas + size)
        else:
            frame = LIST_DELTA.encode_parts(((), self.certs, self.current_index))
            wire.replace_frames(path, [frame])
            self._list_bytes = (4 + sum(map(len, frame)), 0)
        self._list_deltas = []
        self._list_on_disk = self.current_index

    def prune_rollbacks(self, now: int,
                        retention_seconds: int = 365 * 86400) -> int:
        """Drop deltas no live claim can need; returns how many were removed."""
        kept = expire_rollbacks(
            self.rollback_entries, now, retention_seconds,
            validity=(self.contract.t0, self.contract.t_end),
        )
        removed = len(self.rollback_entries) - len(kept)
        if removed:
            self.rollback_entries = kept
            self._rollback_on_disk = None
        return removed

    @classmethod
    def load(cls, directory: str) -> "ClientState":
        """The state that save wrote to directory.  A state.tlv whose certs
        is not empty is the layout from before list.tlv: its list is used,
        and the next save writes list.tlv."""
        with open(os.path.join(directory, STATE_FILE), "rb") as fh:
            body = wire.only_frame(fh.read())
        (public, secret, params, x, y, contract, certs, current_index, warnings,
         open_cycle) = _STATE.decode_body(body)
        state = cls(
            crypto.SigKeyPair(public, secret),
            crypto.ChameleonKeyPair(params, x, y),
            contract,
        )
        state.current_index = current_index
        state.warnings = list(warnings)
        state.open_cycle = open_cycle
        state.rollback_entries = _read_log(directory, ROLLBACK_FILE, RollbackEntry)
        state._rollback_on_disk = len(state.rollback_entries)
        if certs:
            state.listing = CertList(certs)
        else:
            state._load_list(os.path.join(directory, LIST_FILE))
        state.archive = _read_log(directory, ARCHIVE_FILE, CycleRecord)
        state._archived_on_disk = len(state.archive)
        # Archived yet open: a save crashed before it replaced state.tlv.
        archived = {record.cycleid for record in state.archive}
        if state.open_cycle is not None and state.open_cycle.cycleid in archived:
            state.open_cycle = None

        # Evidence completeness: never hold evidence with an invalid signature.
        for record in state.archive:
            for evidence in record.evidences.values():
                tlssim.validate_evidence(evidence)
        if state.open_cycle is not None:
            for evidence in state.open_cycle.evidences.values():
                tlssim.validate_evidence(evidence)
        return state

    def _load_list(self, path: str) -> None:
        """Apply list.tlv's base frame, then its delta frames.  A list past
        current_index was left by a save that failed after it wrote
        list.tlv (a delta, or a compacted base) and before it replaced
        state.tlv.  That save had written the rollback deltas of its cycles
        first, so they take the list back to current_index, and the next
        save rewrites list.tlv whole."""
        index = self.current_index
        listing, version = CertList([]), 0
        sizes = [0, 0]
        intact = os.path.exists(path)
        for offset, payload in wire.read_log(path) if intact else ():
            removed, appended, produces = wire.decode_frame(
                LIST_DELTA.decode, path, offset, payload
            )
            follows = offset == 0 or produces == version + 1
            if not (follows and valid_positions(removed, len(listing.certs))):
                raise CorruptionError(
                    f"{path}: frame at byte offset {offset} does not follow cycle {version}"
                )
            listing, version = listing.updated(removed, appended), produces
            sizes[offset > 0] += 4 + len(payload)
        if version > index:
            certs = _roll_back(listing.certs, version, index, self.rollback_entries)
            listing, intact = CertList(certs), False
        elif version < index:
            raise CorruptionError(f"{path} ends at cycle {version}, state at {index}")
        self.listing = listing
        self._list_bytes = tuple(sizes)
        self._list_on_disk = index if intact else None


def _roll_back(certs: list[bytes], start: int, stop: int, entries) -> list[bytes]:
    """The list of cycle stop from certs, the list of cycle start, through
    the rollback deltas of cycles start down to stop + 1 (the latest entry
    for a cycle wins).  Cycle 0 has the empty list."""
    if stop == 0:
        return []
    by_index = {e.delta.cycle_index: e.delta for e in entries}
    certs = list(certs)
    for i in range(start, stop, -1):
        delta = by_index.get(i)
        if delta is None:
            raise CorruptionError(f"rollback delta for cycle {i} is missing")
        certs = apply_rollback(certs, delta)
    return certs


def _read_log(directory: str, name: str, record_type) -> list:
    """The records in an append-only client log (none if the file is
    missing); a frame that does not decode raises CorruptionError."""
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return []
    return [
        wire.decode_frame(record_type.from_bytes, path, offset, payload)
        for offset, payload in wire.read_log(path)
    ]


def _save_log(directory: str, name: str, records: list, on_disk: int | None) -> int:
    """Append the records after the first on_disk to a client log.  A log
    that does not exist yet, or that must be rewritten (on_disk None, after
    pruning), is replaced whole.  Returns how many records are on disk."""
    path = os.path.join(directory, name)
    if on_disk is not None and os.path.exists(path):
        wire.append_frames(path, [record.to_bytes() for record in records[on_disk:]])
    else:
        wire.replace_frames(path, [record.to_bytes() for record in records])
    return len(records)
