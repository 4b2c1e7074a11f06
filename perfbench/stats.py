"""Sample summaries and the metric table the benchmark prints."""

import math
import statistics
from dataclasses import dataclass

# A percentile above the median is reported only when at least this many
# samples lie beyond it; p90 therefore needs 100 samples.
MIN_BEYOND = 10


def percentile(samples: list[float], p: int) -> float | None:
    """The median, or a nearest-rank percentile above it.

    Returns None when there are no samples, or when p > 50 and fewer than
    MIN_BEYOND samples lie beyond the percentile.
    """
    n = len(samples)
    if n == 0:
        return None
    if p == 50:
        return statistics.median(samples)
    if n * (100 - p) / 100 < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * n) - 1)]


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    n: int

    def line(self) -> str:
        return f"  {self.name:<40} {self.value:>14.4f} {self.unit:<8} n={self.n}"


class Report:
    """Ordered metrics of one run; each printed with its unit and sample count."""

    def __init__(self):
        self.metrics: dict[str, Metric] = {}

    def add(self, name: str, value: float | None, unit: str, n: int) -> None:
        if value is not None:
            self.metrics[name] = Metric(name, float(value), unit, n)

    def latency(self, prefix: str, samples_s: list[float], p90: bool = True) -> None:
        """Add <prefix>_p50_ms, and <prefix>_p90_ms when the sample allows it."""
        ms = [s * 1000 for s in samples_s]
        self.add(f"{prefix}_p50_ms", percentile(ms, 50), "ms", len(ms))
        if p90:
            self.add(f"{prefix}_p90_ms", percentile(ms, 90), "ms", len(ms))
