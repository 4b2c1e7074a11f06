"""What this implementation stores, measured next to the paper's figures.

A seeded in-process deployment on GROUP_2048_256 (one logged insurer, one
customer, 20 simulated servers, every server browsed in each of 3 cycles)
is run once, and the bytes it wrote are pinned.  The tests pin what the
code writes; they do not assert the paper's figures, which
`estimator.REFERENCE` holds and the tests print alongside (run with -s).
"""

import os
from collections import Counter

import pytest

from conninsure import crypto, tlssim, wire
from conninsure.client import ClientState
from conninsure.estimator import REFERENCE
from conninsure.insurer import Insurer
from conninsure.rand import RandomSource
from conninsure.scenario import SimClock
from conninsure.transport import InProcessChannel

DOMAINS = 20
CYCLES = 3


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """(bytes logged per cycle by event tag, archive.tlv bytes, vouchers)."""
    workdir = tmp_path_factory.mktemp("storage")
    rng = RandomSource(1)
    clock = SimClock()
    names = [f"d{i:03d}.example.org" for i in range(DOMAINS)]
    servers = {name: tlssim.SimServer.create(name, rng=rng, now=clock.now) for name in names}
    log = str(workdir / "insurer.log")
    insurer = Insurer.setup([servers[n].presented_cert for n in names], rng=rng, log_path=log)
    channel = InProcessChannel(insurer, now_fn=clock)
    client = ClientState.register(channel, 86_400, rng=rng, group=crypto.GROUP_2048_256)
    registered = os.path.getsize(log)
    vouchers = 0
    for _ in range(CYCLES):
        client.do_update_cycle(channel, now=clock.advance(3600))
        for name in names:
            vouchers += client.browse(name, servers[name], clock.advance(1), rng).status == "vouched"
        client.submit_cycle(channel, now=clock.advance(60), rng=rng)
        client.save(str(workdir / "client"))
    insurer.close()
    with open(log, "rb") as fh:
        fh.seek(registered)
        cycle_frames = list(wire.iter_frames(fh.read()))
    per_tag = Counter()
    for payload in cycle_frames:
        per_tag[payload[0]] += 4 + len(payload)
    archive = os.path.getsize(workdir / "client" / "archive.tlv")
    return {tag: size / CYCLES for tag, size in per_tag.items()}, archive, vouchers


def test_insurer_log_bytes_per_cycle(measured):
    """BEGIN + ACK + SUBMIT, each ACK and SUBMIT with a 32-byte h(CH)."""
    per_tag, _, _ = measured
    assert per_tag == {
        wire.LOG_BEGIN_CYCLE: 72, wire.LOG_ACK_CERTS_HCH: 236,
        wire.LOG_SUBMIT_VOUCHERS_HCH: 219,
    }
    print(f"\ninsurer log: {sum(per_tag.values()):.0f} B per customer cycle; "
          f"paper: {REFERENCE.voucher_bytes_insurer} B")


def test_client_archive_bytes_per_voucher(measured):
    """The closed cycles' records, shared cycle overhead included."""
    _, archive, vouchers = measured
    assert vouchers == DOMAINS * CYCLES
    assert archive == 83_210
    print(f"\nclient archive.tlv: {archive / vouchers:.1f} B per voucher; paper: "
          f"{REFERENCE.voucher_bytes_customer} B per voucher plus "
          f"{REFERENCE.cycle_overhead_bytes} B per cycle")
