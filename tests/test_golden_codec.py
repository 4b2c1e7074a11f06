"""Byte-exact golden artifacts for every record, message, log and client file.

`build_artifacts` runs a small seeded deployment on TOY_GROUP: one insurer
with a log, one customer over three update cycles with a list change, an
untrusted server, a claim, and lookups.  Every call that draws randomness
gets an explicit RandomSource and every call that reads a clock gets `now`,
so the bytes are a function of the code alone.  The test compares each
artifact with tests/fixtures/golden_codec.json and decodes each fixture back.

tests/fixtures/insurer_log_v1.hex is the same deployment's log as written
when BEGIN_CYCLE and UPDATE_CERTS events carried the whole list; it is not
regenerated, and must still load to the same state.

Regenerate the fixture file (only when a layout change is intended):

    PYTHONPATH=src python tests/test_golden_codec.py --write
"""

import json
import os
import shutil
import sys
import tempfile

import pytest

from conninsure import crypto, insurer as insurer_mod, tlssim, wire
from conninsure.client import ClientState
from conninsure.errors import CorruptionError
from conninsure.insurer import (
    BEGIN_CYCLE_REQUEST,
    Insurer,
    RegistrationRequest,
    handle_request,
)
from conninsure.model import (
    Claim,
    Contract,
    CycleRecord,
    HandshakeTranscript,
    InclusionProof,
    RollbackDelta,
    Voucher,
    VoucherEvidence,
)
from conninsure.rand import RandomSource
from conninsure.transport import unwrap_response
from support import load_hex_fixture

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_codec.json")
START = 1_700_000_000
DOMAINS = ("alpha.example.org", "beta.example.org")

# Name -> decoder whose output re-encodes with to_bytes().
RECORD_TYPES = {
    "contract": Contract,
    "voucher": Voucher,
    "transcript": HandshakeTranscript,
    "evidence": VoucherEvidence,
    "inclusion_proof": InclusionProof,
    "cycle_record_open": CycleRecord,
    "cycle_record_closed": CycleRecord,
    "claim": Claim,
    "rollback_delta": RollbackDelta,
    "registration_request": RegistrationRequest,
}

ENDPOINTS = {
    wire.REQ_REGISTER: "register",
    wire.REQ_BEGIN_CYCLE_DELTA: "begin_cycle_delta",
    wire.REQ_ACK_CERTS: "ack_certs",
    wire.REQ_SUBMIT_VOUCHERS: "submit_vouchers",
}


class _Clock:
    def __init__(self):
        self.now = START

    def __call__(self):
        return self.now


class _RecordingChannel:
    """In-process channel that keeps the first request/response per endpoint
    under the endpoint's name, or under `name` when that is set."""

    def __init__(self, insurer, clock, out):
        self.insurer = insurer
        self.clock = clock
        self.out = out
        self.name = None

    def request(self, payload):
        response = handle_request(self.insurer, payload, self.clock.now)
        name = self.name or ENDPOINTS[payload[0]]
        self.out.setdefault(f"{name}_request", payload)
        self.out.setdefault(f"{name}_response", response)
        return unwrap_response(response)


def _lookup(kind, key):
    return wire.pack(
        wire.REQ_LOOKUP_RECORD,
        wire.pack(wire.TAG_UINT, wire.u64(kind)) + wire.pack(wire.TAG_BYTES, key),
    )


def build_artifacts(workdir, monkeypatch_interval):
    """Run the seeded deployment in workdir; return (artifacts, insurer, client)."""
    monkeypatch_interval(7)
    out = {}
    server_rng = RandomSource(101)
    servers = [
        tlssim.SimServer.create(d, rng=server_rng, now=START, dh_group=crypto.TOY_GROUP)
        for d in DOMAINS
    ]
    untrusted = tlssim.SimServer.create(
        "gamma.example.org", rng=server_rng, now=START, dh_group=crypto.TOY_GROUP
    )
    spare, _ = tlssim.make_self_signed_cert("delta.example.org", rng=server_rng, now=START)

    log_path = os.path.join(workdir, "insurer.log")
    insurer = Insurer.setup(
        [s.presented_cert for s in servers], rng=RandomSource(102), log_path=log_path
    )
    clock = _Clock()
    channel = _RecordingChannel(insurer, clock, out)
    client_rng = RandomSource(103)
    client = ClientState.register(
        channel, requested_delta_t=3600, rng=client_rng, group=crypto.TOY_GROUP
    )
    client_dir = os.path.join(workdir, "client")

    for cycle in range(1, 4):
        if cycle == 2:
            insurer.update_cert_list(adds=[spare], removes=[])
        if cycle == 3:
            insurer.update_cert_list(adds=[], removes=[spare])
        clock.now += 600
        # The third cycle's delta removes a certificate from the held list.
        channel.name = "begin_cycle_removal" if cycle == 3 else None
        client.do_update_cycle(channel, now=clock.now)
        channel.name = None
        for server in servers if cycle < 3 else servers[:1]:
            clock.now += 10
            client.browse(server.domain, server, now=clock.now, rng=client_rng)
        if cycle == 1:
            clock.now += 10
            client.browse(untrusted.domain, untrusted, now=clock.now, rng=client_rng)
            out["cycle_record_open"] = client.open_cycle.to_bytes()
        if cycle < 3:
            clock.now += 60
            client.submit_cycle(channel, now=clock.now, rng=client_rng)

    client.save(client_dir)
    first = client.archive[0]
    evidence = first.evidences[DOMAINS[1]]
    claim = client.assemble_claim(first.cycleid, DOMAINS[1])
    out["contract"] = client.contract.to_bytes()
    out["voucher"] = evidence.voucher.to_bytes()
    out["transcript"] = evidence.transcript.to_bytes()
    out["evidence"] = evidence.to_bytes()
    out["inclusion_proof"] = claim.proof.to_bytes()
    out["cycle_record_closed"] = first.to_bytes()
    out["claim"] = claim.to_bytes()
    out["rollback_delta"] = client.rollback_entries[0].delta.to_bytes()
    out["registration_request"] = out["register_request"]

    record = insurer.records[0]
    for name, kind, key in (
        ("lookup_hit", 0, record.ch),
        ("lookup_miss", 1, b"\x00" * 32),
    ):
        request = _lookup(kind, key)
        out[f"{name}_request"] = request
        out[f"{name}_response"] = handle_request(insurer, request, clock.now)
    error_request = BEGIN_CYCLE_REQUEST.encode((99, b""))
    out["error_request"] = error_request
    out["error_response"] = handle_request(insurer, error_request, clock.now)

    insurer.close()
    with open(log_path, "rb") as fh:
        out["insurer_log"] = fh.read()
    out["insurer_snapshot"] = insurer.snapshot_bytes()
    for name in ("state.tlv", "archive.tlv", "rollback.tlv"):
        with open(os.path.join(client_dir, name), "rb") as fh:
            out[name.replace(".", "_")] = fh.read()
    return out, insurer, client


def load_fixture():
    with open(FIXTURE) as fh:
        return {name: bytes.fromhex(blob) for name, blob in json.load(fh).items()}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    try:
        yield build_artifacts(
            str(tmp_path_factory.mktemp("golden")),
            lambda n: mp.setattr(insurer_mod, "SNAPSHOT_INTERVAL", n),
        )
    finally:
        mp.undo()


@pytest.fixture(scope="module")
def golden():
    return load_fixture()


@pytest.fixture(scope="module")
def full_list_log():
    return load_hex_fixture("insurer_log_v1.hex")


def test_fixture_covers_every_artifact(built, golden):
    artifacts, _, _ = built
    assert sorted(artifacts) == sorted(golden)


def _event_tags(log: bytes) -> set[int]:
    tags = []
    offset = 0
    while offset < len(log):
        length = int.from_bytes(log[offset : offset + 4], "big")
        tags.append(log[offset + 4])
        offset += 4 + length
    assert tags[-1] != wire.LOG_SNAPSHOT
    return set(tags)


def test_log_has_every_event_kind_and_a_snapshot(golden):
    assert _event_tags(golden["insurer_log"]) == {
        wire.LOG_SETUP, wire.LOG_REGISTER, wire.LOG_UPDATE_CERTS,
        wire.LOG_BEGIN_CYCLE, wire.LOG_ACK_CERTS, wire.LOG_SUBMIT_VOUCHERS,
        wire.LOG_SNAPSHOT,
    }


def test_full_list_log_has_the_full_list_events(full_list_log):
    assert _event_tags(full_list_log) == {
        wire.LOG_SETUP, wire.LOG_REGISTER, wire.LOG_UPDATE_CERTS_LIST,
        wire.LOG_BEGIN_CYCLE_LIST, wire.LOG_ACK_CERTS, wire.LOG_SUBMIT_VOUCHERS,
        wire.LOG_SNAPSHOT,
    }


@pytest.mark.parametrize(
    "name", sorted(load_fixture()) if os.path.exists(FIXTURE) else []
)
def test_artifact_bytes_unchanged(built, golden, name):
    artifacts, _, _ = built
    assert artifacts[name].hex() == golden[name].hex()


@pytest.mark.parametrize("name", sorted(RECORD_TYPES))
def test_record_fixture_decodes_and_reencodes(golden, name):
    blob = golden[name]
    assert RECORD_TYPES[name].from_bytes(blob).to_bytes() == blob


def _loads_to_snapshot(log: bytes, path, snapshot: bytes) -> None:
    path.write_bytes(log)
    loaded = Insurer.load(str(path))
    try:
        assert loaded.snapshot_bytes() == snapshot
    finally:
        loaded.close()


def test_insurer_log_fixture_replays(built, golden, tmp_path):
    _, live, _ = built
    assert golden["insurer_snapshot"] == live.snapshot_bytes()
    _loads_to_snapshot(golden["insurer_log"], tmp_path / "insurer.log", live.snapshot_bytes())


def test_full_list_log_fixture_replays(golden, full_list_log, tmp_path):
    """A log written when cycles and updates carried whole lists loads to
    the state the current log does."""
    path = tmp_path / "insurer.log"
    _loads_to_snapshot(full_list_log, path, golden["insurer_snapshot"])


def _split_last_frame(log: bytes) -> tuple[bytes, bytes]:
    """The log without its last frame, and that frame."""
    frames = [wire.frame(payload) for payload in wire.iter_frames(log)]
    return b"".join(frames[:-1]), frames[-1]


def test_torn_insurer_log_is_cut_to_its_whole_frames(golden, tmp_path):
    """Cut at every offset inside its last frame, the log loads to the state
    before that frame, and the file ends at the last whole frame."""
    whole, last = _split_last_frame(golden["insurer_log"])
    path = tmp_path / "insurer.log"
    path.write_bytes(whole)
    expected = Insurer.load(str(path))
    expected.close()
    for cut in range(1, len(last)):
        path.write_bytes(whole + last[:cut])
        with pytest.warns(RuntimeWarning, match=f"{cut} bytes at byte offset {len(whole)}"):
            loaded = Insurer.load(str(path))
        loaded.close()
        assert loaded.snapshot_bytes() == expected.snapshot_bytes()
        assert path.read_bytes() == whole


def test_trailing_bytes_inside_a_log_frame_rejected(golden, tmp_path):
    whole, last = _split_last_frame(golden["insurer_log"])
    path = tmp_path / "insurer.log"
    path.write_bytes(whole + wire.frame(last[4:] + b"\x00" * 7))
    with pytest.raises(CorruptionError, match="trailing bytes"):
        Insurer.load(str(path))


def test_corrupt_frame_before_the_tail_names_its_offset(golden, tmp_path):
    """An unknown event tag in a middle frame is corruption, not a torn
    tail: the load raises CorruptionError with the frame's byte offset."""
    log = golden["insurer_log"]
    frames = [wire.frame(payload) for payload in wire.iter_frames(log)]
    middle = len(frames) // 2
    offset = sum(map(len, frames[:middle]))
    path = tmp_path / "insurer.log"
    path.write_bytes(log[: offset + 4] + b"\xee" + log[offset + 5 :])
    with pytest.raises(CorruptionError, match=f"byte offset {offset}: unknown log event"):
        Insurer.load(str(path))
    assert path.read_bytes()[offset + 4] == 0xEE  # nothing was cut off


@pytest.mark.parametrize("name", ["archive.tlv", "rollback.tlv"])
def test_corrupt_client_log_frame_names_its_offset(golden, tmp_path, name):
    for other in ("state.tlv", "archive.tlv", "rollback.tlv"):
        (tmp_path / other).write_bytes(golden[other.replace(".", "_")])
    data = golden[name.replace(".", "_")]
    assert len(list(wire.iter_frames(data))) > 1
    (tmp_path / name).write_bytes(data[:4] + b"\xee" + data[5:])
    with pytest.raises(CorruptionError, match=f"{name}: frame at byte offset 0:"):
        ClientState.load(str(tmp_path))


def test_client_file_fixtures_reload(built, golden, tmp_path):
    _, _, live = built
    for name in ("state.tlv", "archive.tlv", "rollback.tlv"):
        (tmp_path / name).write_bytes(golden[name.replace(".", "_")])
    loaded = ClientState.load(str(tmp_path))
    assert loaded.contract == live.contract
    assert loaded.certs == live.certs
    assert loaded.current_index == live.current_index
    assert loaded.warnings == live.warnings
    assert loaded.open_cycle == live.open_cycle
    assert loaded.archive == live.archive
    assert loaded.rollback_entries == live.rollback_entries
    loaded.save(str(tmp_path))
    assert (tmp_path / "state.tlv").read_bytes() == golden["state_tlv"]


def _write_fixture():
    workdir = tempfile.mkdtemp()
    try:
        artifacts, _, _ = build_artifacts(
            workdir, lambda n: setattr(insurer_mod, "SNAPSHOT_INTERVAL", n)
        )
    finally:
        shutil.rmtree(workdir)
    with open(FIXTURE, "w") as fh:
        json.dump({k: v.hex() for k, v in sorted(artifacts.items())}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(artifacts)} artifacts to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write_fixture()
