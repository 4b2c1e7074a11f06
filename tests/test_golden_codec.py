"""Byte-exact golden artifacts for every record, message, log and client file.

`build_artifacts` runs a small seeded deployment on TOY_GROUP: one insurer
with a log, one customer over three update cycles with a list change, an
untrusted server, a claim, and lookups.  Every call that draws randomness
gets an explicit RandomSource and every call that reads a clock gets `now`,
so the bytes are a function of the code alone.  The test compares each
artifact with tests/fixtures/golden_codec.json and decodes each fixture back.

tests/fixtures/insurer_log_v*.hex are the same deployment's log in formats
no longer written: v1 when BEGIN_CYCLE and UPDATE_CERTS events carried the
whole list, v2 when the insurer appended SNAPSHOT frames, v3 when ACK_CERTS
and SUBMIT_VOUCHERS events logged the chameleon hash itself.  They are not
regenerated, and each must still load to the same state.
tests/fixtures/client_dir_v1.json holds the same deployment's client files
as written when state.tlv held the whole list and there was no list.tlv;
it is not regenerated either, and must still load to the same state.
tests/fixtures/dense_tree_v1.json holds the artifacts that changed when new
cycles moved from the dense voucher tree to the sparse one (each cycle's
root, so the records, messages, logs and claim that carry it), plus the
client files, as the dense tree gave them.  It is not regenerated: its
insurer log must replay, its claim must be accepted, and its client files
must reload and give the same claim through the dense builder.

Regenerate the fixture file (only when a layout change is intended):

    PYTHONPATH=src python tests/test_golden_codec.py --write
"""

import glob
import json
import os
import shutil
import sys
import tempfile

import pytest

from conninsure import crypto, judge, merkle, tlssim, wire
from conninsure.client import ClientState
from conninsure.errors import CorruptionError
from conninsure.insurer import (
    ACK_CERTS_RESPONSE,
    BEGIN_CYCLE_REQUEST,
    BEGIN_CYCLE_RESPONSE,
    LIST_DELTA,
    REGISTER_RESPONSE,
    SUBMIT_VOUCHERS_RESPONSE,
    Insurer,
    RegistrationRequest,
    handle_request,
    setup_public_key,
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
from conninsure.transport import InProcessChannel, unwrap_response
from support import fixture_path, load_hex_fixture, record_ch

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_codec.json")
START = 1_700_000_000
DOMAINS = ("alpha.example.org", "beta.example.org")
CLIENT_FILES = ("state.tlv", "archive.tlv", "rollback.tlv", "list.tlv")

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


def build_artifacts(workdir):
    """Run the seeded deployment in workdir; return (artifacts, insurer, client)."""
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
            client.save(client_dir)  # list.tlv: a base, then a delta per save

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

    for name, kind, key in (
        ("lookup_hit", 0, record_ch(insurer, insurer.records[0])),
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
    for name in CLIENT_FILES:
        with open(os.path.join(client_dir, name), "rb") as fh:
            out[_artifact(name)] = fh.read()
    return out, insurer, client


def _artifact(file_name: str) -> str:
    return file_name.replace(".", "_")


def load_fixture():
    with open(FIXTURE) as fh:
        return {name: bytes.fromhex(blob) for name, blob in json.load(fh).items()}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    return build_artifacts(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def golden():
    return load_fixture()


# Logs in formats no longer written, oldest first.
OLD_LOGS = sorted(
    os.path.basename(path) for path in glob.glob(fixture_path("insurer_log_v*.hex"))
)


@pytest.fixture(scope="module")
def dense(golden):
    """The deployment's artifacts as the dense voucher tree gave them."""
    with open(fixture_path("dense_tree_v1.json")) as fh:
        frozen = {name: bytes.fromhex(blob) for name, blob in json.load(fh).items()}
    return {**golden, **frozen}


@pytest.fixture(scope="module")
def client_dir_v1():
    with open(fixture_path("client_dir_v1.json")) as fh:
        return {name: bytes.fromhex(blob) for name, blob in json.load(fh).items()}


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


# The event kinds of a log whose ACK and SUBMIT events log CH itself.
_FULL_CH_EVENT_KINDS = {
    wire.LOG_SETUP, wire.LOG_REGISTER, wire.LOG_UPDATE_CERTS,
    wire.LOG_BEGIN_CYCLE, wire.LOG_ACK_CERTS, wire.LOG_SUBMIT_VOUCHERS,
}
_EVENT_KINDS = _FULL_CH_EVENT_KINDS - {
    wire.LOG_ACK_CERTS, wire.LOG_SUBMIT_VOUCHERS
} | {wire.LOG_ACK_CERTS_HCH, wire.LOG_SUBMIT_VOUCHERS_HCH}


def test_log_has_every_event_kind_and_no_snapshot(golden):
    assert _event_tags(golden["insurer_log"]) == _EVENT_KINDS


def test_full_ch_log_has_the_full_ch_events():
    assert _event_tags(load_hex_fixture("insurer_log_v3.hex")) == _FULL_CH_EVENT_KINDS


def test_full_list_log_has_the_full_list_events():
    assert _event_tags(load_hex_fixture("insurer_log_v1.hex")) == {
        wire.LOG_SETUP, wire.LOG_REGISTER, wire.LOG_UPDATE_CERTS_LIST,
        wire.LOG_BEGIN_CYCLE_LIST, wire.LOG_ACK_CERTS, wire.LOG_SUBMIT_VOUCHERS,
        wire.LOG_SNAPSHOT,
    }


def test_snapshot_log_has_every_event_kind_and_a_snapshot():
    assert _event_tags(load_hex_fixture("insurer_log_v2.hex")) == {
        *_FULL_CH_EVENT_KINDS, wire.LOG_SNAPSHOT
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


def _assert_loads_to_golden(log: bytes, path, golden) -> None:
    """The log loads to the golden state and answers the golden lookups."""
    path.write_bytes(log)
    loaded = Insurer.load(str(path))
    loaded.close()
    assert loaded.snapshot_bytes() == golden["insurer_snapshot"]
    for name in ("lookup_hit", "lookup_miss"):
        response = handle_request(loaded, golden[f"{name}_request"], START)
        assert response == golden[f"{name}_response"]


def test_insurer_log_fixture_replays(built, golden, tmp_path):
    _, live, _ = built
    assert golden["insurer_snapshot"] == live.snapshot_bytes()
    _assert_loads_to_golden(golden["insurer_log"], tmp_path / "insurer.log", golden)


@pytest.mark.parametrize("name", OLD_LOGS)
def test_old_insurer_log_fixture_replays(dense, tmp_path, name):
    """A log in a format no longer written loads to the state the current
    log format did when the deployment's roots came from the dense tree."""
    _assert_loads_to_golden(load_hex_fixture(name), tmp_path / "insurer.log", dense)


def test_dense_tree_insurer_log_replays(dense, tmp_path):
    _assert_loads_to_golden(dense["insurer_log"], tmp_path / "insurer.log", dense)


def test_dense_tree_claim_is_accepted(built, dense):
    _, live, _ = built
    claim = Claim.from_bytes(dense["claim"])
    assert judge.verify_claim(claim, live.keypair.public, True) is judge.Verdict.ACCEPT


def test_dense_tree_client_files_claim_through_the_dense_builder(
    dense, tmp_path, monkeypatch
):
    """Client files whose cycles have dense roots reload and save to the
    same bytes, and a claim on such a cycle builds the dense tree once and
    is the claim the dense tree gave."""
    calls = []
    dense_builder = merkle.build_dense_tree
    monkeypatch.setattr(
        merkle, "build_dense_tree", lambda *args: calls.append(args) or dense_builder(*args)
    )
    _write_client_files(tmp_path, dense, CLIENT_FILES)
    loaded = ClientState.load(str(tmp_path))
    loaded.save(str(tmp_path))
    for name in CLIENT_FILES:
        assert (tmp_path / name).read_bytes() == dense[_artifact(name)]
    claim = loaded.assemble_claim(loaded.archive[0].cycleid, DOMAINS[1])
    assert claim.to_bytes() == dense["claim"]
    assert len(calls) == 1


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


@pytest.mark.parametrize("name", ["archive.tlv", "rollback.tlv", "list.tlv"])
def test_corrupt_client_log_frame_names_its_offset(golden, tmp_path, name):
    _write_client_files(tmp_path, golden, CLIENT_FILES)
    data = golden[_artifact(name)]
    assert len(list(wire.iter_frames(data))) > 1
    (tmp_path / name).write_bytes(data[:4] + b"\xee" + data[5:])
    with pytest.raises(CorruptionError, match=f"{name}: frame at byte offset 0:"):
        ClientState.load(str(tmp_path))


def _write_client_files(directory, artifacts, names) -> None:
    for name in names:
        (directory / name).write_bytes(artifacts[_artifact(name)])


def _assert_same_client(loaded, live) -> None:
    assert loaded.contract == live.contract
    assert loaded.certs == live.certs
    assert loaded.current_index == live.current_index
    assert loaded.warnings == live.warnings
    assert loaded.open_cycle == live.open_cycle
    assert loaded.archive == live.archive
    assert loaded.rollback_entries == live.rollback_entries


def test_list_log_fixture_is_a_base_and_deltas(golden):
    """The list log holds the first save's list, then one delta per save."""
    frames = [LIST_DELTA.decode(payload) for payload in wire.iter_frames(golden["list_tlv"])]
    assert [version for _, _, version in frames] == [1, 2, 3]
    assert [len(removed) for removed, _, _ in frames] == [0, 0, 1]


def test_client_file_fixtures_reload(built, golden, tmp_path):
    _, _, live = built
    _write_client_files(tmp_path, golden, CLIENT_FILES)
    loaded = ClientState.load(str(tmp_path))
    _assert_same_client(loaded, live)
    loaded.save(str(tmp_path))
    for name in CLIENT_FILES:
        assert (tmp_path / name).read_bytes() == golden[_artifact(name)]


def test_client_files_before_the_list_log_migrate(dense, client_dir_v1, tmp_path):
    """Client files from when state.tlv held the whole list load to the
    state the client files of their time (with dense roots) load to.  The
    next save writes list.tlv as one base frame and state.tlv without the
    list, and those reload to the same state."""
    (tmp_path / "dense").mkdir()
    _write_client_files(tmp_path / "dense", dense, CLIENT_FILES)
    same = ClientState.load(str(tmp_path / "dense"))
    _write_client_files(tmp_path, client_dir_v1, CLIENT_FILES[:3])
    loaded = ClientState.load(str(tmp_path))
    _assert_same_client(loaded, same)
    loaded.save(str(tmp_path))
    assert (tmp_path / "state.tlv").read_bytes() == dense["state_tlv"]
    for name in ("archive.tlv", "rollback.tlv"):
        assert (tmp_path / name).read_bytes() == client_dir_v1[_artifact(name)]
    (base,) = wire.iter_frames((tmp_path / "list.tlv").read_bytes())
    assert LIST_DELTA.decode(base) == ((), same.certs, same.current_index)
    _assert_same_client(ClientState.load(str(tmp_path)), same)


def _views(value) -> list[str]:
    """Where a memoryview sits in value: in a container, or in an attribute
    of an object of this package's types, at any depth."""
    found, seen, stack = [], set(), [(value, "value")]
    while stack:
        obj, where = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, memoryview):
            found.append(where)
        elif isinstance(obj, dict):
            stack += [(key, f"{where} key {key!r}") for key in obj]
            stack += [(item, f"{where}[{key!r}]") for key, item in obj.items()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += [(item, f"{where}[{i}]") for i, item in enumerate(obj)]
        elif type(obj).__module__.startswith("conninsure."):
            names = list(getattr(obj, "__dict__", ()))
            names += [n for cls in type(obj).__mro__ for n in getattr(cls, "__slots__", ())]
            stack += [(getattr(obj, n), f"{where}.{n}") for n in names if hasattr(obj, n)]
    return found


_RESPONSES = {
    "register_response": REGISTER_RESPONSE,
    "begin_cycle_delta_response": BEGIN_CYCLE_RESPONSE,
    "begin_cycle_removal_response": BEGIN_CYCLE_RESPONSE,
    "ack_certs_response": ACK_CERTS_RESPONSE,
    "submit_vouchers_response": SUBMIT_VOUCHERS_RESPONSE,
}


def test_no_decoded_value_holds_a_view(golden, client_dir_v1, tmp_path):
    """Decoders read a buffer in place and copy each leaf out, so nothing
    they return keeps the buffer alive: one leaked view would pin a whole
    log file's buffer for as long as the value lives."""
    decoded = {}
    for name, record_type in RECORD_TYPES.items():
        decoded[name] = record_type.from_bytes(golden[name])
        decoded[f"{name} from a view"] = record_type.from_bytes(memoryview(golden[name]))
    claim = memoryview(b"\x00" + golden["claim"] + b"\x00")[1:-1]
    decoded["claim from a view inside a larger buffer"] = Claim.from_bytes(claim)
    for name, response in _RESPONSES.items():
        decoded[name] = response.decode_body(unwrap_response(golden[name]))
    logs = {"insurer_log": golden["insurer_log"]}
    logs.update((name, load_hex_fixture(name)) for name in OLD_LOGS)
    for name, log in logs.items():
        path = tmp_path / name
        path.write_bytes(log)
        decoded[name] = Insurer.load(str(path))
        decoded[name].close()
        decoded[f"{name} key"] = setup_public_key(str(path))
    for name, files, names in [("client files", golden, CLIENT_FILES),
                               ("client_dir_v1", client_dir_v1, CLIENT_FILES[:3])]:
        (tmp_path / name).mkdir()
        _write_client_files(tmp_path / name, files, names)
        decoded[name] = ClientState.load(str(tmp_path / name))
    assert len(decoded) == 2 * len(RECORD_TYPES) + 1 + len(_RESPONSES) + 2 * len(logs) + 2
    assert _views(decoded) == []
    assert _views({"a": [memoryview(b"x")]}) == ["value['a'][0]"]


def test_large_payloads_are_read_in_place_and_leave_no_view(tmp_path):
    """A list larger than wire._VIEW_MIN reaches the decoders as a view of
    the buffer it was read into: in the insurer log's SETUP, in the
    whole-list download and in the client's list.tlv.  What they decode
    holds no view, and equals what was written."""
    server = tlssim.SimServer.create(
        DOMAINS[0], rng=RandomSource(101), now=START, dh_group=crypto.TOY_GROUP
    )
    certs = [server.presented_cert] + [bytes([i]) * 2000 for i in range(1, 40)]
    log = str(tmp_path / "insurer.log")
    insurer = Insurer.setup(certs, rng=RandomSource(102), log_path=log)
    channel = InProcessChannel(insurer, now_fn=lambda: START + 600)
    payloads = []
    request = channel.request
    channel.request = lambda payload: payloads.append(request(payload)) or payloads[-1]
    client = ClientState.register(
        channel, requested_delta_t=3600, rng=RandomSource(103), group=crypto.TOY_GROUP
    )
    client.do_update_cycle(channel, now=START + 600)
    client.save(str(tmp_path / "client"))
    insurer.close()

    (download,) = [p for p in payloads if len(p) > wire._VIEW_MIN]
    setup = next(wire.iter_frames((tmp_path / "insurer.log").read_bytes()))
    (base,) = wire.iter_frames((tmp_path / "client" / "list.tlv").read_bytes())
    assert [type(p) for p in (download, setup, base)] == [memoryview] * 3
    del payloads, download, setup, base
    loaded = {
        "insurer": Insurer.load(log),
        "client": ClientState.load(str(tmp_path / "client")),
        "key": setup_public_key(log),
    }
    assert loaded["insurer"].certs == certs and loaded["client"].certs == certs
    assert _views(loaded) == [] and _views(client) == []


def _write_fixture():
    workdir = tempfile.mkdtemp()
    try:
        artifacts, _, _ = build_artifacts(workdir)
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
