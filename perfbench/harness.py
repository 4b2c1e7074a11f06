"""Pieces shared by the workloads: operation accounting, the timed stand-in
for simulated servers, the environment record and the work directory."""

import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import layers
import spans
import stats
from conninsure import crypto
from conninsure.insurer import Insurer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

FSYNC = "insurer log fsync'd after every event"
SETUPS = 3
RESTART_BUDGET_S = 2.0
RESTART_MIN = 5


class Tally:
    """Counts attempted operations and those that failed or gave a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, what: str, fn, *args, **kwargs):
        """Call fn as one operation; returns (seconds, result), or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted; the run goes on
            self.fail(f"{what}: {exc!r}")
            return None
        return time.perf_counter() - start, result

    def check(self, good: bool, what: str) -> None:
        """Record a wrong output of an operation already counted by run()."""
        if not good:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: max(0, 20 - len(self.errors))])


class TimedServer:
    """Forwards to a SimServer and times its handshake.

    The simulated server's DH key generation and signing belong to the test
    harness, not to the protocol, so their time is kept apart: browse
    latencies subtract it, and with a recorder set it becomes the
    tlssim.handshake span under which crypto calls are not counted.
    """

    def __init__(self, server):
        self.server = server
        self.domain = server.domain
        self.handshake_s = 0.0
        self.recorder = None

    @property
    def presented_cert(self) -> bytes:
        return self.server.presented_cert

    def handshake(self, client_random, now, rng):
        start = time.perf_counter()
        if self.recorder is None:
            transcript = self.server.handshake(client_random, now, rng)
        else:
            with self.recorder.span(layers.HARNESS_SPAN):
                transcript = self.server.handshake(client_random, now, rng)
        self.handshake_s += time.perf_counter() - start
        return transcript


def run_cycle(tally: Tally, state, channel, servers: list[TimedServer], rng, clock,
              t: int, t_submit: int, samples: dict, save_dir: str | None = None) -> None:
    """One customer cycle: update, browse each server, submit.

    Appends seconds to samples["update"], ["browse"] (handshake excluded),
    ["submit"] and, when the cycle closes, ["cycle"]: the client's time in
    the cycle without the handshakes.  The client itself checks both
    countersignatures; the cycle must also come back covered.
    """
    clock.now = t
    done = tally.run("update", state.do_update_cycle, channel, t)
    if done is None:
        return
    samples["update"].append(done[0])
    spent = done[0]
    if save_dir is not None:
        saved = tally.run("save", state.save, save_dir)
        spent += saved[0] if saved else 0.0
    for i, server in enumerate(servers):
        before = server.handshake_s
        browsed = tally.run("browse", state.browse, server.domain, server, t + 10 * (i + 1), rng)
        if browsed is None:
            continue
        seconds = browsed[0] - (server.handshake_s - before)
        samples["browse"].append(seconds)
        spent += seconds
        tally.check(browsed[1].status == "vouched", f"browse {server.domain}: {browsed[1].status}")
    clock.now = t_submit
    done = tally.run("submit", state.submit_cycle, channel, t_submit, rng)
    if done is None:
        return
    samples["submit"].append(done[0])
    spent += done[0]
    tally.check(done[1].covered is True, "submitted cycle is not covered")
    if save_dir is not None:
        saved = tally.run("save", state.save, save_dir)
        spent += saved[0] if saved else 0.0
    samples["cycle"].append(spent)


@dataclass
class Phase:
    """What one timed phase produced."""

    samples: dict
    ops: int
    elapsed_s: float
    log_bytes: int


@dataclass
class Outcome:
    """Everything a workload run hands back to run.py."""

    env: dict
    tally: Tally
    report: stats.Report
    spans: list = field(default_factory=list)


def timed(measure, seconds: float, trace=None):
    """Run the timed phase: measure(seconds) -> Phase.

    With trace, a callable that switches span recording on and off, the
    phase is split into an untraced half and a traced half; returns (traced
    half, untraced half, the traced half's time window).  Otherwise returns
    (phase, None, None).
    """
    if trace is None:
        return measure(seconds), None, None
    plain = measure(seconds / 2)
    trace(True)
    start = time.perf_counter()
    phase = measure(seconds / 2)
    window = (start, time.perf_counter())
    trace(False)
    return phase, plain, window


def add_common(report: stats.Report, phase: Phase, op: str) -> None:
    """The metrics every workload reports about its timed phase."""
    report.add("ops_per_s", phase.ops / phase.elapsed_s, "1/s", phase.ops)
    report.latency("op", phase.samples[op], p90=False)


def add_cycles(report: stats.Report, phase: Phase) -> None:
    """The metrics of a workload whose operations are customer cycles."""
    s = phase.samples
    report.add("cycles_per_s", phase.ops / phase.elapsed_s, "1/s", phase.ops)
    report.latency("update", s["update"])
    report.latency("submit", s["submit"])
    report.latency("browse", s["browse"], p90=False)
    report.add("log_bytes_per_cycle", phase.log_bytes / max(phase.ops, 1), "B", phase.ops)
    add_common(report, phase, "cycle")


def add_layers(report: stats.Report, recorder, window: tuple[float, float], ops: int,
               log_bytes: int, overhead_pct: float) -> None:
    """Per-layer metrics: counts and transport figures from the spans inside
    the traced phase's window, mean times from every traced call."""
    everything = spans.summarise(recorder.spans, layers.HARNESS_SPAN)
    lo, hi = window
    inside = [s for s in recorder.spans if s.start >= lo and s.end <= hi]
    phase = spans.summarise(inside, layers.HARNESS_SPAN)
    values = layers.metrics(everything, phase, ops, log_bytes, overhead_pct)
    for name, (value, unit) in values.items():
        report.add(name, value, unit, ops)


def overhead_pct(untraced: Phase, traced: Phase, op: str) -> float:
    """How much slower the median operation ran with tracing on."""
    plain = stats.percentile(untraced.samples[op], 50)
    slow = stats.percentile(traced.samples[op], 50)
    return (slow / plain - 1) * 100 if plain and slow else 0.0


def trace_on(recorder, servers: list[TimedServer], channels: list) -> None:
    """Start recording spans of this process's calls into conninsure."""
    layers.install(recorder)
    for channel in channels:
        layers.trace_channel(recorder, channel)
    for server in servers:
        server.recorder = recorder


def trace_off(recorder, servers: list[TimedServer]) -> None:
    recorder.uninstall()
    for server in servers:
        server.recorder = None


def switch(recorder, servers: list[TimedServer], channels: list):
    """A trace(on) callable for timed(), or None without a recorder."""
    if recorder is None:
        return None

    def trace(on: bool) -> None:
        if on:
            trace_on(recorder, servers, channels)
        else:
            trace_off(recorder, servers)

    return trace


def peak_rss_mb() -> float:
    """This process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(workload: str, seed: int, seconds: int, trace: bool, transport: str,
                fsync: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "modexp_backend": crypto.modexp_backend(),
        "nproc": os.cpu_count(),
        "transport": transport,
        "fsync": fsync,
    }


class WorkDir:
    """A fresh directory under perfbench/out, removed when the run ends."""

    def __init__(self, name: str):
        self.path = os.path.join(OUT_DIR, f"{name}-{os.getpid()}")

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path


def check_restart(tally: Tally, log: str, live_snapshot: bytes) -> None:
    """Insurer.load on the final log must reproduce the live insurer's state."""
    loaded = tally.run("restart on the final log", Insurer.load, log)
    if loaded:
        tally.check(loaded[1].snapshot_bytes() == live_snapshot,
                    "reloaded insurer state differs from the live state")
        loaded[1].close()


def restart_loads(log: str, recorder=None) -> list[float]:
    """Seconds taken by each of repeated Insurer.load calls on the log.

    Called right after set-up, so the log has the same content on every
    run of a seed.  Loads repeat for RESTART_BUDGET_S, at least RESTART_MIN
    times; with a recorder they are traced.
    """
    if recorder:
        layers.install(recorder)
    times = []
    try:
        deadline = time.perf_counter() + RESTART_BUDGET_S
        while len(times) < RESTART_MIN or time.perf_counter() < deadline:
            start = time.perf_counter()
            Insurer.load(log).close()
            times.append(time.perf_counter() - start)
    finally:
        if recorder:
            recorder.uninstall()
    return times


def set_up(make, dispose, trace: bool, recorder=None):
    """Set the workload up SETUPS times (once when tracing), timing each,
    and time restarts on each set-up's log.  make(k) builds set-up k;
    dispose() releases all but the last, which is returned with the set-up
    times and restart times."""
    count = 1 if trace else SETUPS
    times, restarts = [], []
    for k in range(count):
        start = time.perf_counter()
        built = make(k)
        times.append(time.perf_counter() - start)
        restarts += restart_loads(built.log, recorder)
        if k < count - 1:
            dispose(built)
    return built, times, restarts


def add_setup(report: stats.Report, setup_times: list[float], restarts: list[float]) -> None:
    """setup_s is the median set-up; restart_s is the fastest of the loads
    made after each set-up.  The loads repeat identical work, so the
    fastest is the one least disturbed by other load on the machine."""
    report.add("setup_s", statistics.median(setup_times), "s", len(setup_times))
    report.add("restart_s", min(restarts), "s", len(restarts))
