"""The insurer service: setup, registration, cycle issuance, voucher-root
acceptance, the append-only chameleon-record log, and the framed
request/response endpoints.

The insurer keeps, for each customer, the list version that customer last
downloaded, and answers a begin-cycle request with the forward delta from
it to the current list.  Versions share their certificates, so what is
held is bounded by the number of customers.

Every state change is one log event: check, then append, then apply.
`_check`, one rule set per event kind, reads only the state and the event.
An operation runs it before its signature and recency checks, appends the
event and fsyncs it, and only then applies it to memory with `_apply`,
which raises nothing; `load` replays each frame after SETUP through
`_replay`, which runs the same two.  A log is its SETUP frame, holding the
initial state, then one frame per event.  Older logs may hold older event
kinds, which `_replay` turns into current ones, and SNAPSHOT frames, each
checked against the state replayed to it.  A signed message inside a
logged ACK or SUBMIT is not checked.
The request dispatcher maps every failure to an error response.  A single
re-entrant lock serializes all state-changing operations, which gives
record-log appends a total order and per-contract serialization for free.
"""

import logging
import os
import threading
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from . import crypto, wire
from .errors import (
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
    signed_step,
    valid_positions,
)
from .rand import DEFAULT, RandomSource

_log = logging.getLogger(__name__)

RECENCY_WINDOW = 300
DEFAULT_POLICY_DAYS = 365

_PENDING = "pending"
_ACKED = "certs-acked"


class ChameleonRecord(NamedTuple):
    """One logged chameleon signing event: the signed message and its r,
    enough to uncover a forgery, since under the customer's key CH(m, r) is
    a function of (m, r).  ch_digest is hash_h of CH in the customer's group
    encoding; it only indexes the record, so lookup_record hashes a CH key
    before it looks."""

    customer: int
    message: bytes
    r: int
    ch_digest: bytes


# In the SNAPSHOT frames of older logs the last field holds CH itself.
_RECORD_FIELDS = (
    ("customer", wire.U64),
    ("message", wire.BYTES),
    ("r", wire.VARINT),
    ("ch_digest", wire.BYTES),
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
    # A pending cycle has no t yet, and an acknowledged one has its t.
    if state != (_PENDING if t is None else _ACKED):
        raise ParameterError(f"open cycle in state {state!r} with t {t}")
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

_ACK_FIELDS = (_RECORD_FIELDS[0], ("t", wire.U64), *_RECORD_FIELDS[1:3])

# Log events, by tag.  SETUP carries the initial state in the layout of a
# full-state SNAPSHOT, which older logs hold and which is only checked.
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
    # ACK_CERTS_HCH: the record's fields with the cycle's t after the
    # customer; SUBMIT_VOUCHERS_HCH: the record's fields.  The older
    # ACK_CERTS and SUBMIT_VOUCHERS log CH itself in place of its hash.
    wire.LOG_ACK_CERTS_HCH: wire.Record(
        wire.LOG_ACK_CERTS_HCH, None, *_ACK_FIELDS, ("ch_digest", wire.DIGEST)
    ),
    wire.LOG_SUBMIT_VOUCHERS_HCH: wire.Record(
        wire.LOG_SUBMIT_VOUCHERS_HCH, None, *_RECORD_FIELDS[:3], ("ch_digest", wire.DIGEST)
    ),
    wire.LOG_ACK_CERTS: wire.Record(wire.LOG_ACK_CERTS, None, *_ACK_FIELDS, ("ch", wire.BYTES)),
    wire.LOG_SUBMIT_VOUCHERS: wire.Record(
        wire.LOG_SUBMIT_VOUCHERS, None, *_RECORD_FIELDS[:3], ("ch", wire.BYTES)
    ),
}

# The events of older logs, and the current events load turns them into.
_OLD_EVENTS = {
    wire.LOG_UPDATE_CERTS_LIST: wire.LOG_UPDATE_CERTS,
    wire.LOG_BEGIN_CYCLE_LIST: wire.LOG_BEGIN_CYCLE,
    wire.LOG_ACK_CERTS: wire.LOG_ACK_CERTS_HCH,
    wire.LOG_SUBMIT_VOUCHERS: wire.LOG_SUBMIT_VOUCHERS_HCH,
}


def _decode_event(payload: bytes) -> tuple:
    """(tag, value) of the event in one log frame."""
    tag, body, end = wire.unpack(payload)
    if tag not in _EVENTS:
        raise EncodingError(f"unknown log event tag 0x{tag:02x}")
    if end != len(payload):
        raise EncodingError(f"trailing bytes after log event 0x{tag:02x}")
    return tag, _EVENTS[tag].decode_body(body)


def _decode_setup(payload: bytes) -> tuple:
    """The values of a log's first frame, which must be SETUP."""
    tag, value = _decode_event(payload)
    if tag != wire.LOG_SETUP:
        raise CorruptionError("log does not start with SETUP")
    return value


def setup_public_key(log_path: str) -> crypto.PublicKey:
    """The insurer's public key, from the log's first frame, which must be
    SETUP.  Nothing after that frame is read, and the log is not changed."""
    payload = wire.read_first_frame(log_path)
    return wire.decode_frame(_decode_setup, log_path, 0, payload)[0]


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
        # REGISTER's rule keeps these customers 1..N, so the next is N + 1.
        self.contracts: dict[int, Contract] = {}
        self.open_cycles: dict[int, _OpenCycle] = {}
        # The list each customer last downloaded: the base of its next delta.
        self.held: dict[int, CertList] = {}
        self.records: list[ChameleonRecord] = []
        self._records_by_ch: dict[bytes, ChameleonRecord] = {}
        self._records_by_digest: dict[bytes, ChameleonRecord] = {}
        self._used_cycleids: set[bytes] = set()
        self._lock = threading.RLock()
        self._log_path: str | None = None
        self._log_broken = False

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
        return insurer

    @classmethod
    def load(cls, log_path: str, rng: RandomSource = DEFAULT) -> "Insurer":
        """Replay the log: its SETUP frame, then every event after it."""
        # Older versions let others read the log, whose SETUP holds the key.
        if os.stat(log_path).st_mode & 0o077:
            os.chmod(log_path, 0o600)
        frames = wire.read_log(log_path)
        if not frames:
            raise EncodingError(f"{log_path}: log holds no frame")
        insurer = wire.decode_frame(lambda p: cls._from_setup(p, rng), log_path, *frames[0])
        for offset, payload in frames[1:]:
            wire.decode_frame(insurer._replay, log_path, offset, payload)
        insurer._log_path = log_path
        return insurer

    def close(self) -> None:
        """Stop logging, for a caller done with this insurer (tests and
        perfbench): later changes are made in memory only.  A served insurer
        is never closed, so a connection still open keeps logging."""
        self._log_path = None

    def _commit(self, tag: int, value) -> None:
        """Append one event, encoded by its table in _EVENTS, and then apply
        it.  If the append fails, memory is left as it was; if a failed
        append could not be cut off, later events are refused."""
        if self._log_path:
            if self._log_broken:
                raise CorruptionError("log append could not be undone; restart")
            try:
                wire.append_frames(self._log_path, [_EVENTS[tag].encode(value)])
            except CorruptionError:
                self._log_broken = True
                raise
        self._apply(tag, value)

    def _snapshot_values(self) -> tuple:
        return (
            self.keypair.public,
            self.keypair.secret,
            self.certs,
            self.cert_version,
            self.policy_days,
            self.recency_window,
            len(self.contracts) + 1,
            self.contracts,
            self.open_cycles,
            self.records,
            sorted(self._used_cycleids),
        )

    def _is_state(self, values: tuple) -> bool:
        """Whether the values of an old SNAPSHOT frame encode as this state
        does.  Such a frame holds each record's CH itself, which is hashed
        first; a 32-byte field is taken as the hash already, as a SNAPSHOT
        of this state holds it (no accepted group has 32-byte elements)."""
        *state, records, used = values
        records = tuple(
            rec if len(rec.ch_digest) == wire.DIGEST_LEN
            else rec._replace(ch_digest=crypto.hash_h(rec.ch_digest))
            for rec in records
        )
        ours = _SNAPSHOT.encode(self._snapshot_values())
        return _SNAPSHOT.encode((*state, records, used)) == ours

    def snapshot_bytes(self) -> bytes:
        """Canonical serialization of the full state (also used by tests)."""
        with self._lock:
            return _SNAPSHOT.encode_body(self._snapshot_values())

    @classmethod
    def _from_setup(cls, payload: bytes, rng: RandomSource) -> "Insurer":
        (public, secret, certs, cert_version, policy_days, recency_window,
         next_customer, contracts, open_cycles, records, used) = _decode_setup(payload)
        if cert_version or next_customer != 1 or contracts or open_cycles or records or used:
            raise CorruptionError("SETUP holds more than the initial state")
        if not certs:
            raise CorruptionError("SETUP holds an empty certificate list")
        return cls(
            crypto.SigKeyPair(public, secret), certs, policy_days, recency_window, rng
        )

    def _replay(self, payload: bytes) -> None:
        """Replay one log frame after SETUP."""
        tag, value = _decode_event(payload)
        if tag == wire.LOG_SETUP:
            raise CorruptionError("a second SETUP")
        if tag == wire.LOG_SNAPSHOT:
            # Old logs hold copies of the state; each must be the state its
            # events replay to.
            if not self._is_state(value):
                raise CorruptionError("SNAPSHOT disagrees with the events before it")
            return
        if tag in _OLD_EVENTS:
            tag, value = self._current_event(tag, value)
        self._check(tag, value)
        self._apply(tag, value)

    def _current_event(self, tag: int, value) -> tuple:
        """(tag, value) of the current event that an older one stands for."""
        if tag == wire.LOG_UPDATE_CERTS_LIST:  # (certs, version): replace the list
            return _OLD_EVENTS[tag], (range(len(self.certs)), *value)
        if tag == wire.LOG_BEGIN_CYCLE_LIST:  # (customer, cycleid, certs)
            if value[2] != self.certs:
                raise CorruptionError("cycle begins on a list other than the current one")
            return _OLD_EVENTS[tag], (*value[:2], self.cert_version)
        # ACK_CERTS and SUBMIT_VOUCHERS end with CH itself, not its hash.
        return _OLD_EVENTS[tag], (*value[:-1], crypto.hash_h(value[-1]))

    def _check(self, tag: int, value) -> None:
        """Refuse, with the live operation's error, an event this state does
        not allow.  Reads only the state and the event; of an ACK or SUBMIT
        only its customer, so an operation checks before it countersigns."""
        if tag == wire.LOG_REGISTER:
            (contract,) = value
            if contract.customer != len(self.contracts) + 1:
                raise ParameterError(f"customer {contract.customer} is not the next customer")
            if contract.pk_in != self.keypair.public:
                raise ParameterError("contract names another insurer")
            if contract.t_end != contract.t0 + self.policy_days * 86400:
                raise ParameterError("contract term is not the policy term")
        elif tag == wire.LOG_UPDATE_CERTS:
            removed, appended, version = value
            if version != self.cert_version + 1:
                raise ParameterError(f"list version {version} after {self.cert_version}")
            if not valid_positions(removed, len(self.certs)):
                raise ParameterError("removed positions not ascending within the list")
            if len(removed) == len(self.certs) and not appended:
                raise ParameterError("certificate list must not become empty")
        elif tag == wire.LOG_BEGIN_CYCLE:
            customer, cycleid, version = value
            if version != self.cert_version:
                raise ParameterError(f"cycle begins on list version {version}, not current")
            self._contract(customer)  # NotFoundError for an unknown customer
            if customer in self.open_cycles:
                raise SequencingError("previous cycle not submitted yet")
            if cycleid in self._used_cycleids:
                raise SequencingError(f"cycleid {cycleid.hex()} begins a second cycle")
        else:
            cycle = self.open_cycles.get(value[0])
            if cycle is None:
                raise SequencingError(f"customer {value[0]} has no open cycle")
            if tag == wire.LOG_ACK_CERTS_HCH and cycle.state != _PENDING:
                raise SequencingError("certificates already acknowledged")
            if tag == wire.LOG_SUBMIT_VOUCHERS_HCH and cycle.state != _ACKED:
                raise SequencingError("certificate list not acknowledged yet")

    def _apply(self, tag: int, value) -> None:
        """The state change of one checked event, live or replayed."""
        if tag == wire.LOG_REGISTER:
            (contract,) = value
            self.contracts[contract.customer] = contract
        elif tag == wire.LOG_UPDATE_CERTS:
            removed, appended, version = value
            self.listing = self.listing.updated(removed, appended)
            self.cert_version = version
        elif tag == wire.LOG_BEGIN_CYCLE:
            customer, cycleid, _ = value
            self.open_cycles[customer] = _OpenCycle(customer, cycleid, self.listing)
            self.held[customer] = self.listing
            self._used_cycleids.add(cycleid)
        else:  # ACK or SUBMIT: the cycle moves on, and the record is kept
            if tag == wire.LOG_ACK_CERTS_HCH:
                customer, t, *fields = value
                cycle = self.open_cycles[customer]
                cycle.state, cycle.t = _ACKED, t
                record = ChameleonRecord(customer, *fields)
            else:
                record = ChameleonRecord(*value)
                del self.open_cycles[record.customer]
            self.records.append(record)
            self._records_by_ch[record.ch_digest] = record
            self._records_by_digest[crypto.hash_h(record.message)] = record

    # -- record log ----------------------------------------------------------

    def _countersign(
        self, contract: Contract, label: str, cycleid: bytes, stamp: int, body: bytes,
        sig_a: bytes, now: int,
    ) -> tuple[crypto.ChameleonSignature, ChameleonRecord]:
        """Check that the customer signed the payload and that its stamp is
        recent, then chameleon-sign it; the record is what the log must keep."""
        message, context = signed_step(label, contract.customer, cycleid, stamp, body)
        if not crypto.verify(contract.pk_a, message, sig_a):
            raise SignatureInvalid("customer signature does not verify")
        if abs(now - stamp) > self.recency_window:
            raise RecencyError(f"timestamp {stamp} outside recency window at {now}")
        sig, ch = crypto.chameleon_sign(
            self.keypair, contract.chameleon, message, context, self.rng
        )
        ch_digest = crypto.hash_h(contract.chameleon.params.element_bytes(ch))
        return sig, ChameleonRecord(contract.customer, message, sig.r, ch_digest)

    def lookup_record(
        self, ch: bytes | None = None, message_digest: bytes | None = None
    ) -> tuple[bytes, int] | None:
        """Exact-match retrieval from the append-only log, by CH in the
        customer's group encoding or by the hash_h of the message."""
        record = None
        if ch is not None:
            record = self._records_by_ch.get(crypto.hash_h(ch))
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
                customer=len(self.contracts) + 1,
                pk_in=self.keypair.public,
                pk_a=request.pk_a,
                chameleon=request.chameleon,
                trapdoor_proof=request.trapdoor_proof,
                t0=now,
                t_end=now + self.policy_days * 86400,
                delta_t=request.requested_delta_t,
            )
            self._check(wire.LOG_REGISTER, (contract,))
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
            while True:
                cycleid = self.rng.bytes(wire.CYCLEID_LEN)
                if cycleid not in self._used_cycleids:
                    break
            event = (customer, cycleid, self.cert_version)
            self._check(wire.LOG_BEGIN_CYCLE, event)
            held = self.held.get(customer)
            if base and held is not None and held.digest == base:
                removed, appended = self.listing.delta_from(held)
            else:
                base, removed, appended = b"", [], self.certs
            self._commit(wire.LOG_BEGIN_CYCLE, event)
            return cycleid, base, removed, appended

    def ack_certificates(
        self, customer: int, cycleid: bytes, t: int, sig_a: bytes, now: int
    ) -> crypto.ChameleonSignature:
        with self._lock:
            contract = self._contract(customer)
            cycle = self.open_cycles.get(customer)
            if cycle is None or cycle.cycleid != cycleid:
                raise SequencingError("no pending cycle with this cycleid")
            self._check(wire.LOG_ACK_CERTS_HCH, (customer,))
            sig, record = self._countersign(
                contract, "Certificates", cycleid, t, cycle.listing.digest, sig_a, now
            )
            self._commit(wire.LOG_ACK_CERTS_HCH, (customer, t, *record[1:]))
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
            self._check(wire.LOG_SUBMIT_VOUCHERS_HCH, (customer,))
            if t_prime < cycle.t:
                raise SequencingError("submission timestamp precedes download")
            sig, record = self._countersign(
                contract, "Vouchers", cycleid, t_prime, root, sig_a, now
            )
            self._commit(wire.LOG_SUBMIT_VOUCHERS_HCH, record)
            return sig, contract.covers(cycle.t, t_prime)

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
            event = (removed, list(adds), self.cert_version + 1)
            self._check(wire.LOG_UPDATE_CERTS, event)
            self._commit(wire.LOG_UPDATE_CERTS, event)
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
    """The error answer to a failed request.  An ERR_INTERNAL answer is
    logged with its traceback, since it may ask the operator to restart."""
    code = ERR_INTERNAL
    for exc_type, exc_code in _ERROR_CODES:
        if isinstance(exc, exc_type):
            code = exc_code
            break
    if code == ERR_INTERNAL:
        _log.error("request failed", exc_info=exc)
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
        return _error_response(exc)
