"""Deterministic end-to-end scenarios: one insurer, a fleet of simulated
servers, one client, and optionally a mid-run certificate substitution
whose rogue twin the insurer has vetted into its list (the stolen-key
insurance case).  All randomness flows from one seed; the clock is
simulated, shared by client and insurer.
"""

import time
from dataclasses import dataclass, field

from . import crypto, judge, tlssim
from .client import ClientState
from .errors import ParameterError
from .insurer import Insurer
from .rand import RandomSource
from .transport import InProcessChannel

START_TIME = 1_700_000_000
CYCLE_PERIOD = 86_400


class SimClock:
    def __init__(self, start: int = START_TIME):
        self.now = start

    def advance(self, seconds: int) -> int:
        self.now += seconds
        return self.now

    def __call__(self) -> int:
        return self.now


@dataclass
class CycleReport:
    index: int
    cycleid_hex: str
    vouchers: int
    warnings: int
    covered: bool
    covered_self: bool


@dataclass
class ScenarioReport:
    scenario: str
    cycles: int
    domains: int
    seed: int
    rogue_domain: str | None = None
    rogue_cycle: int | None = None
    late_cycle: int | None = None
    cycle_reports: list = field(default_factory=list)
    claim_bytes: bytes | None = None
    verdict: str | None = None
    insurer_public: crypto.PublicKey | None = None
    elapsed_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "cycles": self.cycles,
            "domains": self.domains,
            "seed": self.seed,
            "rogue_domain": self.rogue_domain,
            "rogue_cycle": self.rogue_cycle,
            "late_cycle": self.late_cycle,
            "cycle_reports": [vars(c) for c in self.cycle_reports],
            "claim_size": None if self.claim_bytes is None else len(self.claim_bytes),
            "verdict": self.verdict,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def run_scenario(
    scenario: str = "honest",
    cycles: int = 5,
    domains: int = 20,
    seed: int = 0,
    rogue_cycle: int = 3,
    late_cycle: int | None = None,
) -> ScenarioReport:
    """Run a full multi-cycle simulation and, in mitm mode, drive one claim
    through the judge."""
    if scenario not in ("honest", "mitm"):
        raise ParameterError(f"unknown scenario {scenario!r}")
    if scenario == "mitm" and not 1 <= rogue_cycle <= cycles:
        raise ParameterError(
            f"rogue cycle {rogue_cycle} outside the run of {cycles} cycles"
        )
    started = time.perf_counter()
    rng = RandomSource(seed)
    clock = SimClock()

    domain_names = [f"d{i:03d}.example.org" for i in range(domains)]
    servers = {
        name: tlssim.SimServer.create(name, rng=rng, now=clock.now)
        for name in domain_names
    }
    insurer = Insurer.setup(
        [servers[name].presented_cert for name in domain_names], rng=rng
    )
    channel = InProcessChannel(insurer, now_fn=clock)
    client = ClientState.register(channel, requested_delta_t=CYCLE_PERIOD, rng=rng)

    rogue_domain = domain_names[0] if scenario == "mitm" else None
    report = ScenarioReport(
        scenario=scenario,
        cycles=cycles,
        domains=domains,
        seed=seed,
        rogue_domain=rogue_domain,
        rogue_cycle=rogue_cycle if scenario == "mitm" else None,
        late_cycle=late_cycle,
        insurer_public=insurer.keypair.public,
    )
    rogue_cycleid = None

    for index in range(1, cycles + 1):
        if scenario == "mitm" and index == rogue_cycle:
            # The attacker's twin certificate slipped through vetting and
            # joins the list before this cycle's download.
            rogue_cert, rogue_secret = tlssim.make_self_signed_cert(
                rogue_domain, rng=rng, now=clock.now
            )
            insurer.update_cert_list(adds=[rogue_cert], removes=[])
            servers[rogue_domain].substitute(rogue_cert, rogue_secret, crypto.SCHEME_ED25519)

        record = client.do_update_cycle(channel, now=clock.now)
        if scenario == "mitm" and index == rogue_cycle:
            rogue_cycleid = record.cycleid
        warnings_before = len(client.warnings)
        for name in domain_names:
            clock.advance(10)
            client.browse(name, servers[name], now=clock.now, rng=rng)

        # The update bound is one period: a late cycle misses it by a second.
        clock.now = record.t + CYCLE_PERIOD + (1 if late_cycle == index else 0)
        closed = client.submit_cycle(channel, now=clock.now, rng=rng)
        report.cycle_reports.append(
            CycleReport(
                index=index,
                cycleid_hex=closed.cycleid.hex(),
                vouchers=len(closed.evidences),
                warnings=len(client.warnings) - warnings_before,
                covered=closed.covered,
                covered_self=closed.covered_self,
            )
        )

        if scenario == "mitm" and index == rogue_cycle:
            servers[rogue_domain].restore()

    if scenario == "mitm":
        claim = client.assemble_claim(rogue_cycleid, rogue_domain)
        report.claim_bytes = claim.to_bytes()
        verdict = judge.verify_claim(claim, insurer.keypair.public, rogue_asserted=True)
        report.verdict = verdict.value

    report.elapsed_s = time.perf_counter() - started
    return report
