"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the conninsure modules at run time.
Each call becomes a span: its name, start and end, the span that caused
it and the root span of its thread's call tree, which identifies the
request.  Spans stay in memory and are summarised or written out when the
run ends.  A span's self time is its duration minus the part of that
interval its child spans cover.
"""

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self, first_id: int = 1):
        self.spans: list[Span] = []
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, int, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent, root = stack[-1] if stack else (None, sid)
        stack.append((sid, root))
        return sid, parent, root, time.perf_counter()

    def _close(self, opened: tuple, name: str, size: int = 0) -> None:
        end = time.perf_counter()
        self._stack().pop()
        sid, parent, root, start = opened
        self.spans.append(Span(sid, parent, root, name, start, end, size))

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, name)

    def wrap(self, name: str, fn, size_of=None):
        """Return fn recording one span per call; size_of(args, result) sizes it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                size = size_of(args, result) if size_of and result is not None else 0
                self._close(opened, name, size)

        return traced

    def patch(self, owner, attr: str, name: str, size_of=None) -> None:
        """Replace owner.attr by a traced version until uninstall().

        A module-level function is also replaced in every conninsure module
        that imported it by name, so calls through either binding are seen.
        """
        raw = vars(owner).get(attr) if hasattr(owner, "__dict__") else None
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(name, raw.__func__, size_of))
            self._set(owner, attr, traced)
            return
        original = getattr(owner, attr)
        traced = self.wrap(name, original, size_of)
        self._set(owner, attr, traced)
        if isinstance(owner, type(sys)):
            for mod_name, module in list(sys.modules.items()):
                if module is owner or not mod_name.startswith("conninsure"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, traced)

    def _set(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = s.duration - covered
    return out


def under(spans: list[Span], ancestor: str) -> set[int]:
    """Ids of spans that have a span named `ancestor` above them."""
    by_id = {s.id: s for s in spans}
    memo: dict[int, bool] = {}

    def inside(s: Span) -> bool:
        if s.id not in memo:
            parent = by_id.get(s.parent)
            memo[s.id] = parent is not None and (
                parent.name == ancestor or inside(parent)
            )
        return memo[s.id]

    return {s.id for s in spans if inside(s)}


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    duration_s: float = 0.0
    size: int = 0


def summarise(spans: list[Span], harness: str | None = None,
              harness_prefix: str = "crypto.") -> dict[str, Totals]:
    """Per-name call counts and times.

    Spans whose name starts with harness_prefix and that run under a span
    named `harness` are left out: that work belongs to the test harness.
    """
    selfs = self_times(spans)
    skip = under(spans, harness) if harness else set()
    out: dict[str, Totals] = defaultdict(Totals)
    for s in spans:
        if s.id in skip and s.name.startswith(harness_prefix):
            continue
        t = out[s.name]
        t.calls += 1
        t.self_s += selfs[s.id]
        t.duration_s += s.duration
        t.size += s.size
    return dict(out)
