"""Seeded inputs.  Every workload derives all of its inputs from --seed, so
the same seed gives the same certificates, list entries and customer keys."""

from conninsure import tlssim
from conninsure.rand import RandomSource
from conninsure.scenario import START_TIME

# The paper's s_cert: the size of a typical certificate-list entry.
FILLER_BYTES = 1900


def source(seed: int, label: str) -> RandomSource:
    """An independent random stream for one purpose of one seed."""
    return RandomSource(f"perfbench:{seed}:{label}".encode())


def servers(seed: int, label: str, count: int) -> list[tlssim.SimServer]:
    """Simulated TLS servers with real self-signed Ed25519 certificates."""
    rng = source(seed, f"servers:{label}")
    return [
        tlssim.SimServer.create(f"{label}{i:03d}.example.org", rng=rng, now=START_TIME)
        for i in range(count)
    ]


def fillers(rng: RandomSource, count: int) -> list[bytes]:
    """Pseudorandom list entries of FILLER_BYTES each."""
    return [rng.bytes(FILLER_BYTES) for _ in range(count)]


def mixed_list(seed: int, real: list[bytes], size: int) -> list[bytes]:
    """A list of `size` entries: fillers with the real certificates placed
    at seeded positions."""
    rng = source(seed, "list")
    entries = fillers(rng, size - len(real))
    for cert in real:
        entries.insert(rng.below(len(entries) + 1), cert)
    return entries
