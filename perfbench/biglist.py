"""biglist: the certificate-list path at a realistic entry size.

One customer, an in-process channel on a simulated clock, and the fsync'd
log.  The list has 10 000 entries: pseudorandom fillers of 1 900 bytes
(the paper's s_cert) plus the real certificates of 16 simulated servers.
Before each cycle after the first, the insurer removes 1 % of the list and
adds 1 % new entries through update_cert_list.  Each cycle browses 8
domains and submits; ClientState.save runs after each update and each
submit, as the CLI does.  The run ends by assembling a claim for the first
cycle, which walks the whole rollback chain, and having the judge verify
it.

cert_list_digest, compute_rollback, build_tree, the client's state file
and the full-list log events carry this workload; modexp is a small
constant share, the opposite of fleet.
"""

import os
import shutil
import time
from collections import defaultdict

import harness
import inputs
import layers
import spans
import stats
from conninsure import judge
from conninsure.client import ClientState
from conninsure.insurer import Insurer
from conninsure.scenario import START_TIME, SimClock
from conninsure.transport import InProcessChannel

LIST_SIZE = 10_000
SERVERS = 16
BROWSES = 8
CHURN = LIST_SIZE // 100
PERIOD = 3600
SUBMIT_AFTER = 600
DELTA_T = 86_400
# Every cycle appends two full lists (about 38 MB) to the insurer's log, and
# the final restart check reads the whole log into memory twice over; this
# cap keeps that check near 1 GB however fast a cycle gets.
MAX_CYCLES = 12


class BigList:
    """One set-up: the insurer with its log, one customer, one closed cycle."""

    def __init__(self, seed: int, directory: str, tally: harness.Tally,
                 recorder: spans.Recorder | None = None):
        self.servers = [harness.TimedServer(s) for s in inputs.servers(seed, "big", SERVERS)]
        self.real = {s.presented_cert for s in self.servers}
        certs = inputs.mixed_list(seed, [s.presented_cert for s in self.servers], LIST_SIZE)
        self.churn_rng = inputs.source(seed, "churn")
        self.rng = inputs.source(seed, "browse")
        self.clock = SimClock(START_TIME)
        self.log = os.path.join(directory, "insurer.log")
        self.state_dir = os.path.join(directory, "client")
        self.tally = tally
        self.cycles = 0
        if recorder:
            harness.trace_on(recorder, self.servers, [])
        self.insurer = Insurer.setup(certs, rng=inputs.source(seed, "insurer"),
                                     log_path=self.log)
        self.channel = InProcessChannel(self.insurer, now_fn=self.clock)
        if recorder:
            layers.trace_channel(recorder, self.channel)
        self.state = ClientState.register(self.channel, DELTA_T,
                                          rng=inputs.source(seed, "customer0"))
        self.first = self.cycle(defaultdict(list))
        if recorder:
            harness.trace_off(recorder, self.servers)

    def churn(self) -> None:
        """Remove 1 % of the list (never a real server's certificate) and add 1 %."""
        certs = self.insurer.certs
        picked: set[int] = set()
        while len(picked) < CHURN:
            i = self.churn_rng.below(len(certs))
            if certs[i] not in self.real:
                picked.add(i)
        removes = [certs[i] for i in sorted(picked)]
        adds = inputs.fillers(self.churn_rng, CHURN)
        self.tally.run("update_cert_list", self.insurer.update_cert_list, adds, removes)

    def cycle(self, samples: dict):
        """One cycle, after the list churn unless it is the first; returns
        the cycleid and the first domain browsed."""
        if self.cycles:
            self.churn()
        t = self.clock.now + PERIOD
        half = self.cycles % 2 * BROWSES
        browse = self.servers[half:half + BROWSES]
        before = len(self.state.archive)
        harness.run_cycle(self.tally, self.state, self.channel, browse, self.rng, self.clock,
                          t, t + SUBMIT_AFTER, samples, save_dir=self.state_dir)
        self.cycles += 1
        if len(self.state.archive) > before:
            return self.state.archive[-1].cycleid, browse[0].domain
        return None

    def measure(self, seconds: float, max_cycles: int) -> harness.Phase:
        samples = defaultdict(list)
        log_before = os.path.getsize(self.log)
        start = time.perf_counter()
        deadline = start + seconds
        done = 0
        while time.perf_counter() < deadline and done < max_cycles:
            self.cycle(samples)
            done += 1
        elapsed = time.perf_counter() - start
        return harness.Phase(samples, len(samples["cycle"]), elapsed,
                             os.path.getsize(self.log) - log_before)

    def claim(self, report: stats.Report) -> None:
        """Claim on the first cycle; the judge must accept it."""
        if self.first is None:
            self.tally.fail("first cycle did not close")
            return
        cycleid, domain = self.first

        def assemble() -> bytes:
            return self.state.assemble_claim(cycleid, domain).to_bytes()

        built = self.tally.run("assemble claim", assemble)
        if built is None:
            return
        report.add("claim_p50_ms", built[0] * 1000, "ms", 1)
        verified = self.tally.run("verify claim", judge.verify_claim_bytes, built[1],
                                  self.insurer.keypair.public, True)
        if verified:
            report.add("verify_p50_ms", verified[0] * 1000, "ms", 1)
            self.tally.check(verified[1] is judge.Verdict.ACCEPT,
                             f"biglist claim verdict {verified[1]}")


def run(seed: int, seconds: int, trace: bool, work: harness.WorkDir) -> harness.Outcome:
    env = harness.environment("biglist", seed, seconds, trace, "in-process channel",
                              harness.FSYNC)
    tally = harness.Tally()
    report = stats.Report()
    recorder = spans.Recorder() if trace else None

    def make(k: int) -> BigList:
        return BigList(seed, work.sub(f"setup{k}"), tally, recorder)

    def dispose(big: BigList) -> None:
        big.insurer.close()
        shutil.rmtree(os.path.dirname(big.log))

    big, setup_times, restarts = harness.set_up(make, dispose, trace, recorder)

    phase, plain, window = harness.timed(
        lambda secs: big.measure(secs, round(MAX_CYCLES * secs / seconds)), seconds,
        harness.switch(recorder, big.servers, [big.channel]))
    peak = harness.peak_rss_mb()

    big.claim(report)
    live = big.insurer.snapshot_bytes()
    big.insurer.close()
    log = big.log
    del big  # the final restart check needs the memory
    harness.check_restart(tally, log, live)
    if trace:
        harness.add_layers(report, recorder, window, phase.ops, phase.log_bytes,
                           harness.overhead_pct(plain, phase, "cycle"))
        return harness.Outcome(env, tally, report, recorder.spans)

    harness.add_setup(report, setup_times, restarts)
    harness.add_cycles(report, phase)
    report.add("peak_rss_mb", peak, "MB", 1)
    return harness.Outcome(env, tally, report)
