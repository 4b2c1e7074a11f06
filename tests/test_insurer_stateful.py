"""The logged insurer against its own replay, driven by a hypothesis state
machine through valid and invalid requests.

After every step: the log replays to the live state and held lists; a
refused request changed neither the log nor the state; every countersigned
message is found by its digest.  When a request is refused by a rule that
reads only the state and the event (an unknown customer, a cycle in the
wrong state, an update that empties the list or names a position past its
end), the event it would have logged, appended to a copy of the log, is
refused by load as corruption of that frame.  The rules that need the
request (signatures, `now`, recency, the cycleid the customer names, the
registration proof) are not replayed, so those refusals have no such event.

On TOY_GROUP chameleon hashes collide (11 values), so records are looked
up by message digest, not by CH.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from conninsure import crypto, wire
from conninsure.errors import CorruptionError, NotFoundError, ParameterError
from conninsure.insurer import (
    ACK_CERTS_REQUEST,
    ACK_CERTS_RESPONSE,
    BEGIN_CYCLE_REQUEST,
    BEGIN_CYCLE_RESPONSE,
    DEFAULT_POLICY_DAYS,
    ERR_EXPIRED,
    ERR_NOT_FOUND,
    ERR_RECENCY,
    ERR_REGISTRATION,
    ERR_SEQUENCING,
    ERR_SIGNATURE,
    ERROR_RESPONSE,
    LOOKUP_HIT_RESPONSE,
    LOOKUP_MISS_RESPONSE,
    LOOKUP_RECORD_REQUEST,
    RECENCY_WINDOW,
    REGISTER_RESPONSE,
    SUBMIT_VOUCHERS_REQUEST,
    SUBMIT_VOUCHERS_RESPONSE,
    ChameleonRecord,
    Insurer,
    RegistrationRequest,
    handle_request,
)
import conninsure.insurer as insurer_module
from conninsure.model import registration_context
from conninsure.rand import RandomSource

NOW = 1_700_000_000
EXPIRED = NOW + (DEFAULT_POLICY_DAYS + 1) * 86400
CERTS = [b"cert-alpha", b"cert-beta", b"cert-gamma"]
ROOT = b"\x07" * 32
NO_DIGEST = b"\x00" * wire.DIGEST_LEN
OTHER_CYCLEID = b"\xee" * wire.CYCLEID_LEN


def _applicant(seed: int) -> tuple[crypto.SigKeyPair, RegistrationRequest]:
    rng = RandomSource(seed)
    keypair = crypto.generate_sig_keypair(rng=rng)
    chameleon = crypto.generate_chameleon_keypair(crypto.TOY_GROUP, rng)
    proof = crypto.prove_trapdoor(chameleon, registration_context(keypair.public), rng)
    return keypair, RegistrationRequest(keypair.public, chameleon.public, proof, 86_400)


APPLICANTS = [_applicant(seed) for seed in (41, 42, 43)]
# A proof made for another key: registration refuses it.
FORGED = RegistrationRequest(
    APPLICANTS[0][1].pk_a, APPLICANTS[1][1].chameleon, APPLICANTS[1][1].trapdoor_proof,
    86_400,
)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _held(insurer: Insurer) -> dict:
    return {customer: listing.certs for customer, listing in insurer.held.items()}


class LoggedInsurer(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="insurer-stateful-")
        self.log = os.path.join(self.dir, "insurer.log")
        self.insurer = Insurer.setup(CERTS, rng=RandomSource(11), log_path=self.log)
        # The model: the list, and what the customers know: their keys, the
        # list each last downloaded, their open cycles, their countersigned
        # messages with r.
        self.certs = list(CERTS)
        self.keys: dict[int, crypto.SigKeyPair] = {}
        self.held: dict[int, list[bytes]] = {}
        self.cycles: dict[int, dict] = {}  # customer -> cycleid, t (None while pending)
        self.signed: list[tuple[bytes, int]] = []
        self.added = 0

    def teardown(self):
        self.insurer.close()
        shutil.rmtree(self.dir)

    # -- helpers -------------------------------------------------------------

    def _send(self, request: bytes, now: int, refusal, event=None):
        """Send request.  refusal is the error code it must get, or None if
        it must succeed; event is the (tag, value) that a refused request
        would have logged, when replay must refuse that too.  Returns the
        response to a success."""
        log, state, held = _read(self.log), self.insurer.snapshot_bytes(), _held(self.insurer)
        response = handle_request(self.insurer, request, now)
        tag, body, _ = wire.unpack(response)
        if refusal is None:
            assert tag == wire.RESP_OK, ERROR_RESPONSE.decode_body(body)
            return response
        assert tag == wire.RESP_ERR
        assert ERROR_RESPONSE.decode_body(body)[0] == refusal
        self._assert_unchanged(log, state, held, event)
        return None

    def _assert_unchanged(self, log, state, held, event):
        assert _read(self.log) == log
        assert self.insurer.snapshot_bytes() == state
        assert _held(self.insurer) == held
        if event is not None:
            copy = os.path.join(self.dir, "copy.log")
            with open(copy, "wb") as fh:
                fh.write(log)
                fh.write(wire.frame(insurer_module._EVENTS[event[0]].encode(event[1])))
            with pytest.raises(CorruptionError, match=f"byte offset {len(log)}: "):
                Insurer.load(copy)

    def _signature(self, customer: int, label: str, cycleid: bytes, stamp: int,
                   body: bytes, good: bool) -> bytes:
        if not good or customer not in self.keys:
            return b"\x01" * 64
        payload = wire.encode_signed_payload(label, customer, cycleid, stamp, body)
        return crypto.sign(self.keys[customer], payload)

    def _held_digest(self, customer: int) -> bytes:
        """The digest of the list the customer last downloaded, if any."""
        held = self.held.get(customer)
        return wire.cert_list_digest(held) if held else b"\x05" * 32

    def _customer(self, data, ready: list[int]) -> int:
        """Often a customer the rule can succeed for, one of ready if there
        is one; otherwise any registered customer or the next number, not
        yet registered."""
        anyone = [*self.keys, len(self.keys) + 1]
        return data.draw(st.sampled_from(ready or anyone) | st.sampled_from(anyone))

    # -- rules ---------------------------------------------------------------

    @initialize()
    def first_customer(self):
        self.register(0, False)

    @precondition(lambda self: len(self.keys) < 4)
    @rule(applicant=st.sampled_from(range(len(APPLICANTS))), forged=st.booleans())
    def register(self, applicant, forged):
        keypair, request = APPLICANTS[applicant]
        if forged:
            # The registration proof is not replayed: no event to append.
            self._send(FORGED.to_bytes(), NOW, ERR_REGISTRATION)
            return
        (contract,) = REGISTER_RESPONSE.decode(self._send(request.to_bytes(), NOW, None))
        assert contract.customer == len(self.keys) + 1
        self.keys[contract.customer] = keypair

    @rule(data=st.data(), base=st.sampled_from(["none", "held", "junk"]),
          expired=st.sampled_from([False] * 3 + [True]))
    def begin(self, data, base, expired):
        customer = self._customer(data, [c for c in self.keys if c not in self.cycles])
        base_digest = {
            "none": b"",
            "held": self._held_digest(customer),
            "junk": b"\x05" * 32,
        }[base]
        request = BEGIN_CYCLE_REQUEST.encode((customer, base_digest))
        event = (wire.LOG_BEGIN_CYCLE, (customer, b"\x21" * 32, self.insurer.cert_version))
        if customer not in self.keys:
            self._send(request, NOW, ERR_NOT_FOUND, event)
        elif expired:
            self._send(request, EXPIRED, ERR_EXPIRED)
        elif customer in self.cycles:
            self._send(request, NOW, ERR_SEQUENCING, event)
        else:
            cycleid, got_base, removed, appended = BEGIN_CYCLE_RESPONSE.decode(
                self._send(request, NOW, None)
            )
            if got_base:
                assert got_base == base_digest
                kept = [c for i, c in enumerate(self.held[customer]) if i not in removed]
            else:
                kept = []
            assert kept + appended == self.certs
            self.held[customer] = self.certs[:]
            self.cycles[customer] = {"cycleid": cycleid, "t": None}

    @rule(data=st.data(),
          variant=st.sampled_from(["valid", "other-cycleid", "stale", "bad-signature"]))
    def ack(self, data, variant):
        pending = [c for c, cycle in self.cycles.items() if cycle["t"] is None]
        customer = self._customer(data, pending)
        cycle = self.cycles.get(customer)
        cycleid = cycle["cycleid"] if cycle and variant != "other-cycleid" else OTHER_CYCLEID
        t = NOW - RECENCY_WINDOW - 1 if variant == "stale" else NOW
        digest = self._held_digest(customer)
        sig = self._signature(customer, "Certificates", cycleid, t, digest,
                              variant != "bad-signature")
        request = ACK_CERTS_REQUEST.encode((customer, cycleid, t, sig))
        event = (wire.LOG_ACK_CERTS_HCH, (customer, t, b"m", 1, NO_DIGEST))
        if customer not in self.keys:
            self._send(request, NOW, ERR_NOT_FOUND, event)
        elif cycle is None or cycle["t"] is not None:
            self._send(request, NOW, ERR_SEQUENCING, event)
        elif variant != "valid":
            refusal = {"other-cycleid": ERR_SEQUENCING, "stale": ERR_RECENCY,
                       "bad-signature": ERR_SIGNATURE}[variant]
            self._send(request, NOW, refusal)
        else:
            (chsig,) = ACK_CERTS_RESPONSE.decode(self._send(request, NOW, None))
            payload = wire.encode_signed_payload("Certificates", customer, cycleid, t, digest)
            self.signed.append((payload, chsig.r))
            cycle["t"] = t

    @rule(data=st.data(), variant=st.sampled_from(
        ["valid", "other-cycleid", "stale", "bad-signature", "before-download"]
    ))
    def submit(self, data, variant):
        acked = [c for c, cycle in self.cycles.items() if cycle["t"] is not None]
        customer = self._customer(data, acked)
        cycle = self.cycles.get(customer)
        cycleid = cycle["cycleid"] if cycle and variant != "other-cycleid" else OTHER_CYCLEID
        t_prime = {"stale": NOW + RECENCY_WINDOW + 1, "before-download": NOW - 1}.get(
            variant, NOW
        )
        sig = self._signature(customer, "Vouchers", cycleid, t_prime, ROOT,
                              variant != "bad-signature")
        request = SUBMIT_VOUCHERS_REQUEST.encode((customer, cycleid, t_prime, ROOT, sig))
        event = (wire.LOG_SUBMIT_VOUCHERS_HCH, ChameleonRecord(customer, b"m", 1, NO_DIGEST))
        if customer not in self.keys:
            self._send(request, NOW, ERR_NOT_FOUND, event)
        elif cycle is None or cycle["t"] is None:
            self._send(request, NOW, ERR_SEQUENCING, event)
        elif variant != "valid":
            refusal = {"other-cycleid": ERR_SEQUENCING, "stale": ERR_RECENCY,
                       "bad-signature": ERR_SIGNATURE,
                       "before-download": ERR_SEQUENCING}[variant]
            self._send(request, NOW, refusal)
        else:
            chsig, covered = SUBMIT_VOUCHERS_RESPONSE.decode(self._send(request, NOW, None))
            assert covered
            payload = wire.encode_signed_payload("Vouchers", customer, cycleid, t_prime, ROOT)
            self.signed.append((payload, chsig.r))
            del self.cycles[customer]

    @rule(kind=st.sampled_from(["add", "remove", "empty", "unlisted"]), data=st.data())
    def update(self, kind, data):
        adds, removes = [], []
        if kind == "add":
            self.added += 1
            adds = [b"cert-added-%d" % self.added]
        elif kind == "remove":
            removes = [data.draw(st.sampled_from(self.certs))]
        elif kind == "empty":
            removes = list(self.certs)
        else:
            removes = [b"never-listed"]
        version = self.insurer.cert_version
        if kind == "unlisted" or len(removes) == len(self.certs):
            # Refused: the event names a position past the list's end, or
            # every position with nothing appended.
            error = NotFoundError if kind == "unlisted" else ParameterError
            positions = [len(self.certs)] if kind == "unlisted" else range(len(self.certs))
            log, state = _read(self.log), self.insurer.snapshot_bytes()
            held = _held(self.insurer)
            with pytest.raises(error):
                self.insurer.update_cert_list(adds, removes)
            event = (wire.LOG_UPDATE_CERTS, (positions, [], version + 1))
            self._assert_unchanged(log, state, held, event)
            return
        assert self.insurer.update_cert_list(adds, removes) == version + 1
        if removes:
            self.certs.remove(removes[0])
        self.certs += adds

    @rule(data=st.data())
    def lookup(self, data):
        if self.signed:
            message, r = data.draw(st.sampled_from(self.signed))
            request = LOOKUP_RECORD_REQUEST.encode((1, crypto.hash_h(message)))
            found = LOOKUP_HIT_RESPONSE.decode(self._send(request, NOW, None))
            assert found == (True, message, r)
        miss = LOOKUP_RECORD_REQUEST.encode((1, NO_DIGEST))
        assert LOOKUP_MISS_RESPONSE.decode(self._send(miss, NOW, None)) == (False,)

    @rule()
    def restart(self):
        self.insurer.close()
        self.insurer = Insurer.load(self.log, rng=self.insurer.rng)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def replay_is_the_live_state(self):
        replayed = Insurer.load(self.log)
        replayed.close()
        assert replayed.snapshot_bytes() == self.insurer.snapshot_bytes()
        assert _held(replayed) == _held(self.insurer)

    @invariant()
    def every_countersigned_message_is_found(self):
        for message, r in self.signed:
            assert self.insurer.lookup_record(message_digest=crypto.hash_h(message)) == (
                message, r
            )


LoggedInsurer.TestCase.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None
)
TestLoggedInsurer = LoggedInsurer.TestCase
