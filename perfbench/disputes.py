"""disputes: the read side, where the crypto layer verifies instead of signs.

Set-up uses an in-process insurer with its fsync'd log, a 64-certificate
list and 32 customers with 2 closed cycles each; the second is submitted
after the update-interval bound.  For each customer it builds one valid
claim, claims with a known reject verdict that together cover every
Verdict code, one genuine disputed signature and one forged collision made
with crypto.find_collision.

The timed loop is single-threaded.  Each round takes one customer and
interleaves judge.verify_claim_bytes over that customer's claims with
LOOKUP_RECORD followed by judge.resolve_denial, comparing every verdict and
ruling with the expected one.  Every verification uses a different
recipient key, and claim decoding plus x509 parsing are exercised; no log
writes, tree builds or rollbacks happen.  A signing-side gain that costs
verification shows up here.
"""

import dataclasses
import os
import shutil
import time
from collections import defaultdict

import harness
import inputs
import spans
import stats
from conninsure import crypto, judge, wire
from conninsure.client import ClientState
from conninsure.insurer import Insurer
from conninsure.judge import Ruling, Verdict
from conninsure.scenario import START_TIME, SimClock
from conninsure.transport import InProcessChannel

CUSTOMERS = 32
LIST_SIZE = 64
PERIOD = 86_400
SUBMIT_AFTER = 600
DELTA_T = 3600


def _flip(blob: bytes, i: int = 0) -> bytes:
    return blob[:i] + bytes([blob[i] ^ 1]) + blob[i + 1:]


def claim_mix(valid, late, mismatch) -> list[tuple[bytes, bool, Verdict]]:
    """(claim bytes, rogue asserted, expected verdict), one per Verdict code."""
    e = valid.evidence
    t = e.transcript
    proof = valid.proof

    def with_transcript(**changes):
        transcript = dataclasses.replace(t, **changes)
        return dataclasses.replace(valid, evidence=dataclasses.replace(e, transcript=transcript))

    mix = [
        (valid, True, Verdict.ACCEPT),
        (dataclasses.replace(valid, chsig_certs=dataclasses.replace(
            valid.chsig_certs, inner_sig=_flip(valid.chsig_certs.inner_sig))),
         True, Verdict.BAD_CERT_SIG),
        (dataclasses.replace(valid, cert_index=(valid.cert_index + 1) % len(valid.certs)),
         True, Verdict.CERT_NOT_IN_LIST),
        (dataclasses.replace(valid, chsig_vouchers=dataclasses.replace(
            valid.chsig_vouchers, inner_sig=_flip(valid.chsig_vouchers.inner_sig))),
         True, Verdict.BAD_VOUCHER_SIG),
        (late, True, Verdict.UPDATE_LATE),
        (dataclasses.replace(valid, proof=dataclasses.replace(
            proof, path=((_flip(proof.path[0][0]), proof.path[0][1]),) + proof.path[1:])),
         True, Verdict.BAD_MERKLE_PATH),
        (with_transcript(client_random=_flip(t.client_random, 10)),
         True, Verdict.VOUCHER_MISMATCH),
        (with_transcript(signature=_flip(t.signature)), True, Verdict.BAD_TLS_SIG),
        (mismatch, True, Verdict.DOMAIN_MISMATCH),
        (valid, False, Verdict.NOT_ASSERTED_ROGUE),
    ]
    return [(claim.to_bytes(), rogue, verdict) for claim, rogue, verdict in mix]


@dataclasses.dataclass
class Dispute:
    recipient: crypto.ChameleonPublicKey
    message: bytes
    sig: crypto.ChameleonSignature
    expected: Ruling


@dataclasses.dataclass
class Customer:
    claims: list
    disputes: list


def disputes_for(state: ClientState, record) -> list[Dispute]:
    """The genuine countersignature on the first cycle's certificate list,
    and a collision on it that only the trapdoor holder can make."""
    message = wire.encode_signed_payload(
        "Certificates", state.customer, record.cycleid, record.t, record.cert_digest
    )
    sig = record.chsig_certs
    forged_message = wire.encode_signed_payload(
        "Certificates", state.customer, record.cycleid, record.t,
        crypto.hash_h(b"a list the insurer never sent"),
    )
    forged_r = crypto.find_collision(state.chameleon_kp, message, sig.r, forged_message)
    forged = crypto.ChameleonSignature(forged_r, sig.inner_sig, sig.context)
    recipient = state.chameleon_kp.public
    return [
        Dispute(recipient, message, sig, Ruling.INSURER_BOUND),
        Dispute(recipient, forged_message, forged, Ruling.CUSTOMER_FORGED),
    ]


class Disputes:
    """One set-up: the insurer with its log and every customer's claims and disputes."""

    def __init__(self, seed: int, directory: str):
        servers = [harness.TimedServer(s) for s in inputs.servers(seed, "disp", LIST_SIZE)]
        clock = SimClock(START_TIME)
        rng = inputs.source(seed, "browse")
        self.log = os.path.join(directory, "insurer.log")
        self.insurer = Insurer.setup([s.presented_cert for s in servers],
                                     rng=inputs.source(seed, "insurer"), log_path=self.log)
        self.channel = InProcessChannel(self.insurer, now_fn=clock)
        self.customers = []
        for i in range(CUSTOMERS):
            state = ClientState.register(self.channel, DELTA_T,
                                         rng=inputs.source(seed, f"customer{i}"))
            ours, other = servers[2 * i % LIST_SIZE], servers[(2 * i + 1) % LIST_SIZE]
            foreign = f"elsewhere{i:03d}.example.org"

            t = clock.now + PERIOD
            clock.now = t
            state.do_update_cycle(self.channel, t)
            state.browse(ours.domain, ours, t + 10, rng)
            # Vouches a connection whose certificate names another domain.
            state.browse(foreign, other, t + 20, rng)
            clock.now = t + SUBMIT_AFTER
            first = state.submit_cycle(self.channel, clock.now, rng)

            t = clock.now + PERIOD
            clock.now = t
            state.do_update_cycle(self.channel, t)
            state.browse(ours.domain, ours, t + 10, rng)
            clock.now = t + DELTA_T + 1
            late = state.submit_cycle(self.channel, clock.now, rng)
            if not first.covered or late.covered:
                raise RuntimeError("disputes set-up: unexpected coverage")

            claims = claim_mix(
                state.assemble_claim(first.cycleid, ours.domain),
                state.assemble_claim(late.cycleid, ours.domain),
                state.assemble_claim(first.cycleid, foreign),
            )
            self.customers.append(Customer(claims, disputes_for(state, first)))

    def dispute(self, d: Dispute) -> Ruling:
        """LOOKUP_RECORD for the disputed hash, then the judge's ruling."""
        params = d.recipient.params
        ch = params.element_bytes(crypto.chameleon_hash(params, d.recipient.y, d.message, d.sig.r))
        body = self.channel.request(wire.pack(
            wire.REQ_LOOKUP_RECORD,
            wire.pack(wire.TAG_UINT, wire.u64(0)) + wire.pack(wire.TAG_BYTES, ch),
        ))
        items = [value for _tag, value in wire.iter_items(body)]
        record = None
        if wire.decode_u64(items[0]) == 1:
            record = (items[1], wire.decode_varint(items[2]))
        return judge.resolve_denial(self.insurer.keypair.public, d.recipient, d.message,
                                    d.sig, record)

    def round(self, customer: Customer, tally: harness.Tally, samples: dict) -> None:
        """Every claim of one customer, with a dispute after each half."""
        pk_in = self.insurer.keypair.public
        spent = 0.0
        half = len(customer.claims) // 2
        for i, (claim, rogue, expected) in enumerate(customer.claims):
            verified = tally.run("verify claim", judge.verify_claim_bytes, claim, pk_in, rogue)
            if verified:
                samples["verify"].append(verified[0])
                spent += verified[0]
                tally.check(verified[1] is expected, f"verdict {verified[1]}, expected {expected}")
            if i % half == half - 1:
                d = customer.disputes[i // half]
                ruled = tally.run("dispute", self.dispute, d)
                if ruled:
                    samples["dispute"].append(ruled[0])
                    spent += ruled[0]
                    tally.check(ruled[1] is d.expected,
                                f"ruling {ruled[1]}, expected {d.expected}")
        samples["round"].append(spent)

    def measure(self, seconds: float, tally: harness.Tally) -> harness.Phase:
        samples = defaultdict(list)
        start = time.perf_counter()
        deadline = start + seconds
        rounds = 0
        while time.perf_counter() < deadline:
            self.round(self.customers[rounds % CUSTOMERS], tally, samples)
            rounds += 1
        return harness.Phase(samples, rounds, time.perf_counter() - start, 0)


def run(seed: int, seconds: int, trace: bool, work: harness.WorkDir) -> harness.Outcome:
    env = harness.environment("disputes", seed, seconds, trace, "in-process channel",
                              harness.FSYNC)
    tally = harness.Tally()
    report = stats.Report()
    recorder = spans.Recorder() if trace else None

    def make(k: int) -> Disputes:
        return Disputes(seed, work.sub(f"setup{k}"))

    def dispose(disputes: Disputes) -> None:
        disputes.insurer.close()
        shutil.rmtree(os.path.dirname(disputes.log))

    disputes, setup_times, restarts = harness.set_up(make, dispose, trace, recorder)
    log_bytes = os.path.getsize(disputes.log)

    phase, plain, window = harness.timed(
        lambda secs: disputes.measure(secs, tally), seconds,
        harness.switch(recorder, [], [disputes.channel]))
    peak = harness.peak_rss_mb()

    live = disputes.insurer.snapshot_bytes()
    disputes.insurer.close()
    harness.check_restart(tally, disputes.log, live)
    if trace:
        harness.add_layers(report, recorder, window, phase.ops, phase.log_bytes,
                           harness.overhead_pct(plain, phase, "round"))
        return harness.Outcome(env, tally, report, recorder.spans)

    harness.add_setup(report, setup_times, restarts)
    report.latency("verify", phase.samples["verify"])
    report.latency("dispute", phase.samples["dispute"], p90=False)
    report.add("log_bytes_per_cycle", log_bytes / (2 * CUSTOMERS), "B", 2 * CUSTOMERS)
    report.add("peak_rss_mb", peak, "MB", 1)
    harness.add_common(report, phase, "round")
    return harness.Outcome(env, tally, report)
