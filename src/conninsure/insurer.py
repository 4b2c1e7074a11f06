"""The insurer service: setup, registration, cycle issuance, voucher-root
acceptance, the append-only chameleon-record log, and the framed
request/response endpoints.

The insurer keeps, for each customer, the list version that customer last
downloaded, and answers a begin-cycle request with the forward delta from
it to the current list.  Versions share their certificates, so what is
held is bounded by the number of customers.

Every state change is one log event.  An operation runs its checks,
builds the event, and commits it: the event is appended to the log and
fsync'd, and only then applied to memory by `_apply`, the same code that
`load` replays the log with.  So memory never runs ahead of the log.  The
request dispatcher maps every failure to an error response.  A single
re-entrant lock serializes all state-changing operations, which gives
record-log appends a total order and per-contract serialization for free.
"""

import logging
import os
import threading
from collections import Counter
from dataclasses import dataclass

from . import crypto, wire
from .errors import (
    CIError,
    CorruptionError,
    EncodingError,
    ExpiredContractError,
    NotFoundError,
    ParameterError,
    RecencyError,
    RegistrationRejected,
    SequencingError,
    SignatureInvalid,
)
from .model import (
    CertList,
    Contract,
    application_problem,
    chameleon_context,
    valid_positions,
)
from .rand import DEFAULT, RandomSource

_log = logging.getLogger(__name__)

RECENCY_WINDOW = 300
DEFAULT_POLICY_DAYS = 365
# A snapshot follows an event once at least this many events have been
# appended since the last SETUP or SNAPSHOT frame (a SETUP counts itself)
# and their payload bytes are at least that frame's.  The events pay for
# every snapshot but the latest, so the log stays under about twice its
# event bytes plus one snapshot, however long it runs.
SNAPSHOT_INTERVAL = 256

_PENDING = "pending"
_ACKED = "certs-acked"


@dataclass
class ChameleonRecord:
    """One logged chameleon signing event: enough to uncover forgeries."""

    customer: int
    message: bytes
    r: int
    ch: bytes


_RECORD_FIELDS = (
    ("customer", wire.U64),
    ("message", wire.BYTES),
    ("r", wire.VARINT),
    ("ch", wire.BYTES),
)


@dataclass
class _OpenCycle:
    customer: int
    cycleid: bytes
    listing: CertList
    state: str = _PENDING
    t: int | None = None

    @property
    def certs(self) -> list[bytes]:
        return self.listing.certs


def _open_cycle(customer, cycleid, certs, state=_PENDING, t=None) -> _OpenCycle:
    return _OpenCycle(customer, cycleid, CertList(certs), state, t)


_BEGIN_LIST_FIELDS = (
    ("customer", wire.U64), ("cycleid", wire.BYTES), ("certs", wire.BYTES_LIST)
)
_OPEN_CYCLE = wire.Record(
    wire.TAG_PAIR, _open_cycle, *_BEGIN_LIST_FIELDS,
    ("state", wire.TEXT), ("t", wire.OPT_U64),
)

_SNAPSHOT_FIELDS = (
    ("public", wire.PUBLIC_KEY),
    ("secret", wire.BYTES),
    ("certs", wire.BYTES_LIST),
    ("cert_version", wire.U64),
    ("policy_days", wire.U64),
    ("recency_window", wire.U64),
    ("next_customer", wire.U64),
    ("contracts", wire.list_of(Contract.CODEC, key=lambda c: c.customer)),
    ("open_cycles", wire.list_of(_OPEN_CYCLE, key=lambda oc: oc.customer)),
    (
        "records",
        wire.list_of(wire.Record(wire.TAG_PAIR, ChameleonRecord, *_RECORD_FIELDS)),
    ),
    ("used_cycleids", wire.BYTES_LIST),
)

# UPDATE_CERTS: the positions removed from the current list, in ascending
# order, the certificates appended, and the new version.  The client's
# list.tlv is a file of these items, with cycle indexes for versions.
LIST_DELTA = wire.Record(
    wire.LOG_UPDATE_CERTS, None,
    ("removed", wire.list_of(wire.U64)), ("appended", wire.BYTES_LIST),
    ("version", wire.U64),
)

# Log events, by tag.  SETUP and SNAPSHOT carry the full state.
_SNAPSHOT = wire.Record(wire.LOG_SNAPSHOT, None, *_SNAPSHOT_FIELDS)
_EVENTS = {
    wire.LOG_SETUP: wire.Record(wire.LOG_SETUP, None, *_SNAPSHOT_FIELDS),
    wire.LOG_SNAPSHOT: _SNAPSHOT,
    wire.LOG_REGISTER: wire.Record(
        wire.LOG_REGISTER, None, ("contract", Contract.CODEC)
    ),
    wire.LOG_UPDATE_CERTS: LIST_DELTA,
    # BEGIN_CYCLE: the cycle downloads the current list, named by version.
    wire.LOG_BEGIN_CYCLE: wire.Record(
        wire.LOG_BEGIN_CYCLE, None,
        ("customer", wire.U64), ("cycleid", wire.BYTES), ("version", wire.U64),
    ),
    wire.LOG_UPDATE_CERTS_LIST: wire.Record(
        wire.LOG_UPDATE_CERTS_LIST, None, ("certs", wire.BYTES_LIST), ("version", wire.U64)
    ),
    wire.LOG_BEGIN_CYCLE_LIST: wire.Record(
        wire.LOG_BEGIN_CYCLE_LIST, None, *_BEGIN_LIST_FIELDS
    ),
    # ACK_CERTS: the record's fields with the cycle's t after the customer.
    wire.LOG_ACK_CERTS: wire.Record(
        wire.LOG_ACK_CERTS, None, _RECORD_FIELDS[0], ("t", wire.U64), *_RECORD_FIELDS[1:]
    ),
    wire.LOG_SUBMIT_VOUCHERS: wire.Record(
        wire.LOG_SUBMIT_VOUCHERS, ChameleonRecord, *_RECORD_FIELDS
    ),
}


def _event_tag(payload: bytes) -> int:
    """The event tag of one log frame, which must be known."""
    if not payload or payload[0] not in _EVENTS:
        raise EncodingError(f"unknown log event tag {payload[:1].hex() or 'none'}")
    return payload[0]


def _decode_event(payload: bytes) -> tuple:
    """(tag, value) of the event in one log frame."""
    tag, body, end = wire.unpack(payload)
    if end != len(payload):
        raise EncodingError(f"trailing bytes after log event 0x{tag:02x}")
    return tag, _EVENTS[_event_tag(payload)].decode_body(body)


@wire.codec(
    wire.REQ_REGISTER,
    ("pk_a", wire.PUBLIC_KEY),
    ("chameleon", wire.CHAMELEON_PUBLIC),
    ("trapdoor_proof", wire.TRAPDOOR_PROOF),
    ("requested_delta_t", wire.U64),
)
@dataclass
class RegistrationRequest:
    pk_a: crypto.PublicKey
    chameleon: crypto.ChameleonPublicKey
    trapdoor_proof: crypto.TrapdoorProof
    requested_delta_t: int


# Endpoint messages.  Responses are RESP_OK items; the client decodes the
# body that the channel unwraps with the same table.
REGISTER_RESPONSE = wire.Record(wire.RESP_OK, None, ("contract", Contract.CODEC))
# base is the digest of the list the client holds, empty if it holds none.
# The response is a forward delta from the list with digest base (the empty
# list if base is empty): drop the entries at the ascending positions
# removed, then append the certificates appended.
BEGIN_CYCLE_REQUEST = wire.Record(
    wire.REQ_BEGIN_CYCLE_DELTA, None, ("customer", wire.U64), ("base", wire.BYTES)
)
BEGIN_CYCLE_RESPONSE = wire.Record(
    wire.RESP_OK, None,
    ("cycleid", wire.BYTES), ("base", wire.BYTES),
    ("removed", wire.list_of(wire.U64)), ("appended", wire.BYTES_LIST),
)
ACK_CERTS_REQUEST = wire.Record(
    wire.REQ_ACK_CERTS, None,
    ("customer", wire.U64), ("cycleid", wire.BYTES), ("t", wire.U64),
    ("sig_a", wire.BYTES),
)
ACK_CERTS_RESPONSE = wire.Record(wire.RESP_OK, None, ("chsig", wire.CHAMELEON_SIGNATURE))
SUBMIT_VOUCHERS_REQUEST = wire.Record(
    wire.REQ_SUBMIT_VOUCHERS, None,
    ("customer", wire.U64), ("cycleid", wire.BYTES), ("t_prime", wire.U64),
    ("root", wire.BYTES), ("sig_a", wire.BYTES),
)
SUBMIT_VOUCHERS_RESPONSE = wire.Record(
    wire.RESP_OK, None, ("chsig", wire.CHAMELEON_SIGNATURE), ("covered", wire.BOOL)
)
# by_digest 0 looks the key up as a chameleon hash, anything else as a
# message digest.
LOOKUP_RECORD_REQUEST = wire.Record(
    wire.REQ_LOOKUP_RECORD, None, ("by_digest", wire.U64), ("key", wire.BYTES)
)
LOOKUP_MISS_RESPONSE = wire.Record(wire.RESP_OK, None, ("found", wire.BOOL))
LOOKUP_HIT_RESPONSE = wire.Record(
    wire.RESP_OK, None, ("found", wire.BOOL), ("message", wire.BYTES), ("r", wire.VARINT)
)
ERROR_RESPONSE = wire.Record(
    wire.RESP_ERR, None, ("code", wire.U64), ("message", wire.TEXT)
)


class Insurer:
    """Holds IN's keys, the vetted list, contracts, cycles, and the record log."""

    def __init__(
        self,
        keypair: crypto.SigKeyPair,
        certs: list[bytes],
        policy_days: int,
        recency_window: int,
        rng: RandomSource = DEFAULT,
    ):
        self.keypair = keypair
        self.listing = CertList(list(certs))
        self.cert_version = 0
        self.policy_days = policy_days
        self.recency_window = recency_window
        self.rng = rng
        self.contracts: dict[int, Contract] = {}
        self.open_cycles: dict[int, _OpenCycle] = {}
        # The list each customer last downloaded: the base of its next delta.
        self.held: dict[int, CertList] = {}
        self.records: list[ChameleonRecord] = []
        self._records_by_ch: dict[bytes, ChameleonRecord] = {}
        self._records_by_digest: dict[bytes, ChameleonRecord] = {}
        self._used_cycleids: set[bytes] = set()
        self._next_customer = 1
        self._lock = threading.RLock()
        self._log_path: str | None = None
        self._log_broken = False
        # Frames and payload bytes appended since the last SETUP or
        # SNAPSHOT frame, and that frame's payload bytes.
        self._events_since_snapshot = 0
        self._bytes_since_snapshot = 0
        self._snapshot_size = 0

    @property
    def certs(self) -> list[bytes]:
        """The current certificate list."""
        return self.listing.certs

    # -- setup / persistence ------------------------------------------------

    @classmethod
    def setup(
        cls,
        initial_certs: list[bytes],
        rng: RandomSource = DEFAULT,
        log_path: str | None = None,
    ) -> "Insurer":
        if not initial_certs:
            raise ParameterError("an insurer must vouch for at least one certificate")
        if log_path and os.path.exists(log_path):
            raise ParameterError(f"{log_path} already exists; refusing to overwrite it")
        keypair = crypto.generate_sig_keypair(crypto.SCHEME_ED25519, rng)
        insurer = cls(keypair, initial_certs, DEFAULT_POLICY_DAYS, RECENCY_WINDOW, rng)
        if log_path:
            setup = _EVENTS[wire.LOG_SETUP].encode(insurer._snapshot_values())
            wire.replace_frames(log_path, [setup])
            insurer._log_path = log_path
            insurer._events_since_snapshot = 1  # SETUP counts, as every frame does
            insurer._snapshot_size = len(setup)
        return insurer

    @classmethod
    def load(cls, log_path: str, rng: RandomSource = DEFAULT) -> "Insurer":
        """Rebuild state from the last snapshot plus the event tail.  The
        tail counts toward the next snapshot as it did when it was written,
        so a log driven through reloads takes its snapshots where one
        driven by a single process does."""
        frames = wire.read_log(log_path)
        start = 0
        for i, (offset, payload) in enumerate(frames):
            tag = wire.decode_frame(_event_tag, log_path, offset, payload)
            if tag in (wire.LOG_SETUP, wire.LOG_SNAPSHOT):
                start = i
        insurer = None
        for offset, payload in frames[start:]:
            tag, value = wire.decode_frame(_decode_event, log_path, offset, payload)
            if tag in (wire.LOG_SETUP, wire.LOG_SNAPSHOT):
                insurer = cls._from_snapshot(value, rng)
                continue
            if insurer is None:
                raise EncodingError("log does not start with a snapshot")
            try:
                insurer._apply(tag, value)
            except CorruptionError as exc:
                raise CorruptionError(
                    f"{log_path}: frame at byte offset {offset}: {exc}"
                ) from None
        if insurer is None:
            raise EncodingError("log contains no snapshot")
        insurer._log_path = log_path
        checkpoint, tail = frames[start][1], frames[start + 1 :]
        insurer._events_since_snapshot = len(tail) + (checkpoint[0] == wire.LOG_SETUP)
        insurer._bytes_since_snapshot = sum(len(payload) for _, payload in tail)
        insurer._snapshot_size = len(checkpoint)
        return insurer

    def close(self) -> None:
        """Stop logging: later changes are made in memory only."""
        self._log_path = None

    def _commit(self, tag: int, value) -> None:
        """Append one event, encoded by its table in _EVENTS, and then apply
        it; append a snapshot after it when one is due.  If the event's
        append fails, memory is left as it was; if the snapshot's fails, the
        event stands, the counters keep counting, and the next event
        retries it."""
        if self._log_path:
            if self._log_broken:
                raise CorruptionError("log append could not be undone; restart")
            self._write_frame(_EVENTS[tag].encode(value))
        self._apply(tag, value)
        if self._log_path and self._snapshot_due():
            snapshot = _SNAPSHOT.encode(self._snapshot_values())
            try:
                self._write_frame(snapshot)
            except (OSError, CorruptionError):
                _log.exception("snapshot append failed")
            else:
                self._events_since_snapshot = self._bytes_since_snapshot = 0
                self._snapshot_size = len(snapshot)

    def _snapshot_due(self) -> bool:
        """Whether the frames since the last snapshot (or SETUP) are both
        SNAPSHOT_INTERVAL events and as many bytes as that snapshot."""
        return (
            self._events_since_snapshot >= SNAPSHOT_INTERVAL
            and self._bytes_since_snapshot >= self._snapshot_size
        )

    def _write_frame(self, payload: bytes) -> None:
        """Append one frame and count it toward the next snapshot; if a
        failed append could not be cut off, refuse later events."""
        try:
            wire.append_frames(self._log_path, [payload])
        except CorruptionError:
            self._log_broken = True
            raise
        self._events_since_snapshot += 1
        self._bytes_since_snapshot += len(payload)

    def _snapshot_values(self) -> tuple:
        return (
            self.keypair.public,
            self.keypair.secret,
            self.certs,
            self.cert_version,
            self.policy_days,
            self.recency_window,
            self._next_customer,
            self.contracts,
            self.open_cycles,
            self.records,
            sorted(self._used_cycleids),
        )

    def snapshot_bytes(self) -> bytes:
        """Canonical serialization of the full state (also used by tests)."""
        with self._lock:
            return _SNAPSHOT.encode_body(self._snapshot_values())

    @classmethod
    def _from_snapshot(cls, values: tuple, rng: RandomSource) -> "Insurer":
        (public, secret, certs, cert_version, policy_days, recency_window,
         next_customer, contracts, open_cycles, records, used) = values
        insurer = cls(
            crypto.SigKeyPair(public, secret), certs, policy_days, recency_window, rng
        )
        insurer.cert_version = cert_version
        insurer._next_customer = next_customer
        insurer.contracts = contracts
        insurer.open_cycles = open_cycles
        insurer.held = {c: cycle.listing for c, cycle in open_cycles.items()}
        for record in records:
            insurer._store_record(record)
        insurer._used_cycleids = set(used)
        return insurer

    def _apply(self, tag: int, value) -> None:
        """The state change of one logged event, live or replayed."""
        if tag == wire.LOG_REGISTER:
            (contract,) = value
            self.contracts[contract.customer] = contract
            self._next_customer = max(self._next_customer, contract.customer + 1)
        elif tag == wire.LOG_UPDATE_CERTS:
            removed, appended, version = value
            if version != self.cert_version + 1:
                raise CorruptionError(f"list version {version} after {self.cert_version}")
            if not valid_positions(removed, len(self.certs)):
                raise CorruptionError("removed positions not ascending within the list")
            self.listing = self.listing.updated(removed, appended)
            self.cert_version = version
        elif tag == wire.LOG_BEGIN_CYCLE:
            customer, cycleid, version = value
            if version != self.cert_version:
                raise CorruptionError(
                    f"cycle begins on list version {version}, current is {self.cert_version}"
                )
            self._open(customer, cycleid, self.listing)
        elif tag == wire.LOG_UPDATE_CERTS_LIST:
            certs, self.cert_version = value
            self.listing = CertList(certs)
        elif tag == wire.LOG_BEGIN_CYCLE_LIST:
            customer, cycleid, certs = value
            self._open(customer, cycleid, CertList(certs))
        elif tag == wire.LOG_ACK_CERTS:
            customer, t, message, r, ch = value
            cycle = self.open_cycles[customer]
            cycle.state = _ACKED
            cycle.t = t
            self._store_record(ChameleonRecord(customer, message, r, ch))
        else:
            self.open_cycles.pop(value.customer, None)
            self._store_record(value)

    def _open(self, customer: int, cycleid: bytes, listing: CertList) -> None:
        self.open_cycles[customer] = _OpenCycle(customer, cycleid, listing)
        self.held[customer] = listing
        self._used_cycleids.add(cycleid)

    # -- record log ----------------------------------------------------------

    def _store_record(self, record: ChameleonRecord) -> None:
        self.records.append(record)
        self._records_by_ch[record.ch] = record
        self._records_by_digest[crypto.hash_h(record.message)] = record

    def _countersign(
        self, contract: Contract, message: bytes, context: bytes
    ) -> tuple[crypto.ChameleonSignature, ChameleonRecord]:
        """Chameleon-sign a message; the record is what the log must keep."""
        sig, ch = crypto.chameleon_sign(
            self.keypair, contract.chameleon, message, context, self.rng
        )
        ch_bytes = contract.chameleon.params.element_bytes(ch)
        return sig, ChameleonRecord(contract.customer, message, sig.r, ch_bytes)

    def lookup_record(
        self, ch: bytes | None = None, message_digest: bytes | None = None
    ) -> tuple[bytes, int] | None:
        """Exact-match retrieval from the append-only log."""
        record = None
        if ch is not None:
            record = self._records_by_ch.get(ch)
        elif message_digest is not None:
            record = self._records_by_digest.get(message_digest)
        if record is None:
            return None
        return record.message, record.r

    # -- protocol operations ---------------------------------------------------

    def register(self, request: RegistrationRequest, now: int) -> Contract:
        # The checks read only the request, so a proof check's modexp
        # stalls no other customer's operation.
        problem = application_problem(
            request.pk_a, request.chameleon, request.trapdoor_proof,
            request.requested_delta_t,
        )
        if problem:
            raise RegistrationRejected(problem)
        with self._lock:
            contract = Contract(
                customer=self._next_customer,
                pk_in=self.keypair.public,
                pk_a=request.pk_a,
                chameleon=request.chameleon,
                trapdoor_proof=request.trapdoor_proof,
                t0=now,
                t_end=now + self.policy_days * 86400,
                delta_t=request.requested_delta_t,
            )
            self._commit(wire.LOG_REGISTER, (contract,))
            return contract

    def _contract(self, customer: int) -> Contract:
        contract = self.contracts.get(customer)
        if contract is None:
            raise NotFoundError(f"unknown customer {customer}")
        return contract

    def begin_cycle(
        self, customer: int, base: bytes, now: int
    ) -> tuple[bytes, bytes, list[int], list[bytes]]:
        """Open a cycle on the current list; returns (cycleid, base, removed,
        appended), the forward delta to it from the list with digest base.
        If base is not the list this customer last downloaded, the delta is
        from the empty list (base b"") and appends the whole list."""
        with self._lock:
            contract = self._contract(customer)
            if not contract.t0 <= now <= contract.t_end:
                raise ExpiredContractError("contract not valid at this time")
            if customer in self.open_cycles:
                raise SequencingError("previous cycle not submitted yet")
            while True:
                cycleid = self.rng.bytes(wire.CYCLEID_LEN)
                if cycleid not in self._used_cycleids:
                    break
            held = self.held.get(customer)
            if base and held is not None and held.digest == base:
                removed, appended = self.listing.delta_from(held)
            else:
                base, removed, appended = b"", [], self.certs
            self._commit(wire.LOG_BEGIN_CYCLE, (customer, cycleid, self.cert_version))
            return cycleid, base, removed, appended

    def _check_recent(self, stamp: int, now: int) -> None:
        if abs(now - stamp) > self.recency_window:
            raise RecencyError(f"timestamp {stamp} outside recency window at {now}")

    def ack_certificates(
        self, customer: int, cycleid: bytes, t: int, sig_a: bytes, now: int
    ) -> crypto.ChameleonSignature:
        with self._lock:
            contract = self._contract(customer)
            cycle = self.open_cycles.get(customer)
            if cycle is None or cycle.cycleid != cycleid:
                raise SequencingError("no pending cycle with this cycleid")
            if cycle.state != _PENDING:
                raise SequencingError("certificates already acknowledged")
            payload = wire.encode_signed_payload(
                "Certificates", customer, cycleid, t, cycle.listing.digest
            )
            if not crypto.verify(contract.pk_a, payload, sig_a):
                raise SignatureInvalid("customer signature does not verify")
            self._check_recent(t, now)
            sig, record = self._countersign(
                contract, payload, chameleon_context(customer, "Certificates")
            )
            self._commit(
                wire.LOG_ACK_CERTS, (customer, t, record.message, record.r, record.ch)
            )
            return sig

    def accept_vouchers(
        self, customer: int, cycleid: bytes, t_prime: int, root: bytes, sig_a: bytes,
        now: int,
    ) -> tuple[crypto.ChameleonSignature, bool]:
        with self._lock:
            contract = self._contract(customer)
            cycle = self.open_cycles.get(customer)
            if cycle is None or cycle.cycleid != cycleid:
                raise SequencingError("no open cycle with this cycleid")
            if cycle.state != _ACKED:
                raise SequencingError("certificate list not acknowledged yet")
            if t_prime < cycle.t:
                raise SequencingError("submission timestamp precedes download")
            payload = wire.encode_signed_payload(
                "Vouchers", customer, cycleid, t_prime, root
            )
            if not crypto.verify(contract.pk_a, payload, sig_a):
                raise SignatureInvalid("customer signature does not verify")
            self._check_recent(t_prime, now)
            covered = contract.covers(cycle.t, t_prime)
            sig, record = self._countersign(
                contract, payload, chameleon_context(customer, "Vouchers")
            )
            self._commit(wire.LOG_SUBMIT_VOUCHERS, record)
            return sig, covered

    def update_cert_list(self, adds: list[bytes], removes: list[bytes]) -> int:
        """Remove each of removes (its first listed copy not yet removed),
        append adds, and return the new version."""
        with self._lock:
            # One walk: each listed copy of a certificate still wanted goes.
            wanted = Counter(removes)
            removed: list[int] = []
            for pos, cert in enumerate(self.certs):
                if len(removed) == len(removes):
                    break
                if wanted.get(cert):
                    wanted[cert] -= 1
                    removed.append(pos)
            if len(removed) < len(removes):
                raise NotFoundError("cannot remove a certificate that is not listed")
            if len(removed) == len(self.certs) and not adds:
                raise ParameterError("certificate list must not become empty")
            self._commit(
                wire.LOG_UPDATE_CERTS, (removed, list(adds), self.cert_version + 1)
            )
            return self.cert_version


# ---------------------------------------------------------------------------
# Framed request dispatch
# ---------------------------------------------------------------------------

ERR_ENCODING = 1
ERR_SEQUENCING = 2
ERR_RECENCY = 3
ERR_SIGNATURE = 4
ERR_REGISTRATION = 5
ERR_NOT_FOUND = 6
ERR_EXPIRED = 7
ERR_PARAMETER = 8
ERR_INTERNAL = 9

_ERROR_CODES = [
    (SequencingError, ERR_SEQUENCING),
    (RecencyError, ERR_RECENCY),
    (SignatureInvalid, ERR_SIGNATURE),
    (RegistrationRejected, ERR_REGISTRATION),
    (NotFoundError, ERR_NOT_FOUND),
    (ExpiredContractError, ERR_EXPIRED),
    (EncodingError, ERR_ENCODING),
    (ParameterError, ERR_PARAMETER),
]

EXCEPTION_BY_CODE = {code: exc for exc, code in _ERROR_CODES}


def _error_response(exc: Exception) -> bytes:
    code = ERR_INTERNAL
    for exc_type, exc_code in _ERROR_CODES:
        if isinstance(exc, exc_type):
            code = exc_code
            break
    return ERROR_RESPONSE.encode((code, str(exc) or exc.__class__.__name__))


def handle_request(insurer: Insurer, request: bytes, now: int) -> bytes:
    """Decode one endpoint request, run it, and encode the response."""
    try:
        tag, body, end = wire.unpack(request)
        if end != len(request):
            raise EncodingError("trailing bytes after request")
        if tag == wire.REQ_REGISTER:
            contract = insurer.register(RegistrationRequest.from_bytes(request), now)
            return REGISTER_RESPONSE.encode((contract,))
        if tag == wire.REQ_BEGIN_CYCLE_DELTA:
            customer, base = BEGIN_CYCLE_REQUEST.decode_body(body)
            return BEGIN_CYCLE_RESPONSE.encode(insurer.begin_cycle(customer, base, now))
        if tag == wire.REQ_ACK_CERTS:
            sig = insurer.ack_certificates(*ACK_CERTS_REQUEST.decode_body(body), now)
            return ACK_CERTS_RESPONSE.encode((sig,))
        if tag == wire.REQ_SUBMIT_VOUCHERS:
            args = SUBMIT_VOUCHERS_REQUEST.decode_body(body)
            return SUBMIT_VOUCHERS_RESPONSE.encode(insurer.accept_vouchers(*args, now))
        if tag == wire.REQ_LOOKUP_RECORD:
            by_digest, key = LOOKUP_RECORD_REQUEST.decode_body(body)
            if by_digest == 0:
                found = insurer.lookup_record(ch=key)
            else:
                found = insurer.lookup_record(message_digest=key)
            if found is None:
                return LOOKUP_MISS_RESPONSE.encode((False,))
            return LOOKUP_HIT_RESPONSE.encode((True, *found))
        raise EncodingError(f"unknown endpoint tag 0x{tag:02x}")
    except Exception as exc:
        if not isinstance(exc, CIError):
            _log.exception("request failed")  # answered with ERR_INTERNAL
        return _error_response(exc)
