"""fleet: the insurer's request path under many customers.

The insurer runs in its own process behind InsurerServer on 127.0.0.1,
writing its log after every event without fsync (see fleet_insurer.py).
This process is the load generator: two threads, each owning one TCP
connection, in a closed loop (each customer agent waits for every reply
before its next step).  Set-up registers 64 customers over a
32-certificate list of simulated-server certificates split into disjoint
halves, one half per connection.  Each connection then takes its
customers round-robin and runs one full cycle for each: update, browse 4
domains, submit.

Every insurer signature goes to a different recipient key, so a
per-recipient cache cannot hide the cost; snapshots fire every 256 log
events, several times per run.  Crypto, insurer and transport carry the
work; merkle and rollback almost none.
"""

import os
import pickle
import subprocess
import sys
import threading
import time
from collections import defaultdict

import harness
import inputs
import spans
import stats
from conninsure.client import ClientState
from conninsure.scenario import START_TIME, SimClock
from conninsure.transport import SocketChannel

CUSTOMERS = 64
LIST_SIZE = 32
CONNECTIONS = 2
BROWSES = 4
NOW = START_TIME + 3600
DELTA_T = 86_400
REPLY_TIMEOUT_S = 60
CHILD = os.path.join(harness.BENCH_DIR, "fleet_insurer.py")


class InsurerProcess:
    """The insurer's process, driven through pickles on its stdin and stdout."""

    def __init__(self, certs: list[bytes], seed: int, log: str):
        self.proc = subprocess.Popen(
            [sys.executable, CHILD], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self._send({"certs": certs, "seed": seed, "log": log, "now": NOW})
        self.address = self._receive()

    def _send(self, obj) -> None:
        pickle.dump(obj, self.proc.stdin)
        self.proc.stdin.flush()

    def _receive(self):
        # A hung insurer is killed, which ends the read with EOFError.
        timer = threading.Timer(REPLY_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            return pickle.load(self.proc.stdout)
        finally:
            timer.cancel()

    def command(self, *command):
        self._send(command)
        return self._receive()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Lane:
    """One connection with its half of the servers and its customers."""

    def __init__(self, channel, servers: list[harness.TimedServer], rng):
        self.channel = channel
        self.servers = servers
        self.rng = rng
        self.customers: list[ClientState] = []
        self.tally = harness.Tally()
        self.samples: dict = defaultdict(list)
        self.turns = 0

    def step(self, clock) -> None:
        state = self.customers[self.turns % len(self.customers)]
        first = self.turns * BROWSES
        browse = [self.servers[(first + j) % len(self.servers)] for j in range(BROWSES)]
        harness.run_cycle(self.tally, state, self.channel, browse, self.rng, clock,
                          NOW, NOW, self.samples)
        self.turns += 1

    def work(self, clock, deadline: float) -> None:
        """Cycles until the deadline."""
        try:
            while time.perf_counter() < deadline:
                self.step(clock)
        except Exception as exc:  # the lane stops; the run reports the failure
            self.tally.fail(f"lane stopped: {exc!r}")


class Fleet:
    """One set-up: the insurer process, two connections, 64 registered customers."""

    def __init__(self, seed: int, log: str, recorder: spans.Recorder | None = None):
        self.log = log
        self.recorder = recorder
        self.clock = SimClock(NOW)
        self.servers = [harness.TimedServer(s) for s in inputs.servers(seed, "fleet", LIST_SIZE)]
        self.insurer = InsurerProcess([s.presented_cert for s in self.servers], seed, log)
        self.channels = []
        try:
            self.channels = [SocketChannel(*self.insurer.address) for _ in range(CONNECTIONS)]
            half = LIST_SIZE // CONNECTIONS
            self.lanes = [
                Lane(channel, self.servers[i * half:(i + 1) * half],
                     inputs.source(seed, f"lane{i}"))
                for i, channel in enumerate(self.channels)
            ]
            if recorder:
                self.trace(True)
            for i in range(CUSTOMERS):
                lane = self.lanes[i % CONNECTIONS]
                lane.customers.append(ClientState.register(
                    lane.channel, DELTA_T, rng=inputs.source(seed, f"customer{i}")
                ))
            if recorder:
                self.trace(False)
        except BaseException:
            self.stop()
            raise

    def trace(self, on: bool) -> None:
        """Switch span recording on or off in both processes."""
        if on:
            harness.trace_on(self.recorder, self.servers, self.channels)
        else:
            harness.trace_off(self.recorder, self.servers)
        self.insurer.command("trace", on)

    def drive(self, deadline: float) -> None:
        threads = [
            threading.Thread(target=lane.work, args=(self.clock, deadline))
            for lane in self.lanes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def measure(self, seconds: float) -> harness.Phase:
        for lane in self.lanes:
            lane.samples = defaultdict(list)
        log_before = os.path.getsize(self.log)
        start = time.perf_counter()
        self.drive(start + seconds)
        elapsed = time.perf_counter() - start
        samples = defaultdict(list)
        for lane in self.lanes:
            for key, values in lane.samples.items():
                samples[key].extend(values)
        return harness.Phase(samples, len(samples["cycle"]), elapsed,
                             os.path.getsize(self.log) - log_before)

    def tally(self) -> harness.Tally:
        total = harness.Tally()
        for lane in self.lanes:
            total.merge(lane.tally)
        return total

    def stop(self) -> dict:
        """Close the connections and stop the insurer; returns its final report."""
        for channel in self.channels:
            channel.close()
        try:
            return self.insurer.command("stop")
        finally:
            self.insurer.close()


def run(seed: int, seconds: int, trace: bool, work: harness.WorkDir) -> harness.Outcome:
    env = harness.environment(
        "fleet", seed, seconds, trace,
        f"loopback TCP, {CONNECTIONS} connections, insurer in its own process",
        "insurer log written after every event, fsync skipped")
    tally = harness.Tally()
    report = stats.Report()
    recorder = spans.Recorder() if trace else None

    def dispose(fleet: Fleet) -> None:
        fleet.stop()
        tally.merge(fleet.tally())
        os.remove(fleet.log)

    fleet, setup_times, restarts = harness.set_up(
        lambda k: Fleet(seed, os.path.join(work.path, f"insurer{k}.log"), recorder),
        dispose, trace, recorder)

    try:
        phase, plain, window = harness.timed(fleet.measure, seconds,
                                             fleet.trace if trace else None)
        client_rss = harness.peak_rss_mb()
    finally:
        final = fleet.stop()
    tally.merge(fleet.tally())

    harness.check_restart(tally, fleet.log, final["snapshot"])
    if trace:
        recorder.spans.extend(final["spans"])
        harness.add_layers(report, recorder, window, phase.ops, phase.log_bytes,
                           harness.overhead_pct(plain, phase, "cycle"))
        return harness.Outcome(env, tally, report, recorder.spans)

    harness.add_setup(report, setup_times, restarts)
    harness.add_cycles(report, phase)
    report.add("peak_rss_mb", client_rss + final["peak_rss_mb"], "MB", 2)
    return harness.Outcome(env, tally, report)
