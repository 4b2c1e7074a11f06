"""Client agent: cycle participation, browsing, submission, claim assembly,
rollback fidelity, and on-disk state determinism."""

import pytest

from support import FailAt, fail_once, fail_write, io_error, torn_write
from conninsure import crypto, merkle, tlssim, wire
from conninsure.client import ClientState
from conninsure.errors import (
    InsurerMisbehavior,
    NotFoundError,
    ParameterError,
    SequencingError,
)
from conninsure.insurer import BEGIN_CYCLE_RESPONSE, Insurer
from conninsure.model import PAD_DOMAIN
from conninsure.rand import RandomSource
from conninsure.scenario import SimClock
from conninsure.transport import InProcessChannel

DOMAINS = [f"d{i:03d}.example.org" for i in range(4)]


@pytest.fixture
def world():
    """Insurer + servers + registered client on a shared simulated clock."""
    rng = RandomSource(55)
    clock = SimClock()
    servers = {
        d: tlssim.SimServer.create(d, rng=rng, now=clock.now) for d in DOMAINS
    }
    insurer = Insurer.setup([servers[d].presented_cert for d in DOMAINS], rng=rng)
    channel = InProcessChannel(insurer, now_fn=clock)
    client = ClientState.register(
        channel, requested_delta_t=86_400, rng=rng, group=crypto.TOY_GROUP
    )
    return insurer, servers, channel, client, clock, rng


class TestUpdateCycle:
    def test_first_cycle_stores_record(self, world):
        _, _, channel, client, clock, _ = world
        record = client.do_update_cycle(channel, now=clock.now)
        assert record.cycle_index == 1
        assert record.list_size == len(DOMAINS)
        assert client.open_cycle is record

    def test_double_update_rejected(self, world):
        _, _, channel, client, clock, _ = world
        client.do_update_cycle(channel, now=clock.now)
        with pytest.raises(SequencingError):
            client.do_update_cycle(channel, now=clock.now)

    def test_tampered_list_aborts(self, world):
        """C tampered in transit: the exchange dies (the signatures cover the
        digest of what each side saw) and the client opens no cycle."""
        from conninsure.errors import SignatureInvalid

        _, _, channel, client, clock, _ = world

        class TamperingChannel:
            def request(self, payload):
                response = channel.request(payload)
                tag, _, _ = wire.unpack(payload)
                if tag == wire.REQ_BEGIN_CYCLE_DELTA:
                    cycleid, base, removed, certs = BEGIN_CYCLE_RESPONSE.decode_body(response)
                    certs[0] = b"tampered-in-transit"
                    return BEGIN_CYCLE_RESPONSE.encode_body((cycleid, base, removed, certs))
                return response

        with pytest.raises(SignatureInvalid):
            client.do_update_cycle(TamperingChannel(), now=clock.now)
        assert client.open_cycle is None

    def test_bad_countersignature_aborts(self, world):
        """A countersignature that fails chameleon verification aborts."""
        _, _, channel, client, clock, _ = world

        class ForgingChannel:
            def request(self, payload):
                response = channel.request(payload)
                tag, _, _ = wire.unpack(payload)
                if tag == wire.REQ_ACK_CERTS:
                    sig = wire.decode_chameleon_signature(response)
                    bad = crypto.ChameleonSignature(
                        sig.r, sig.inner_sig[:-1] + b"\x00", sig.context
                    )
                    return wire.encode_chameleon_signature(bad)
                return response

        with pytest.raises(InsurerMisbehavior):
            client.do_update_cycle(ForgingChannel(), now=clock.now)
        assert client.open_cycle is None


def _rewriting_channel(channel, rewrite, seen):
    """Passes requests to channel, records their tags in seen, and lets
    rewrite(cycleid, base, removed, appended) change a begin-cycle response."""

    class Rewriting:
        def request(self, payload):
            seen.append(payload[0])
            response = channel.request(payload)
            if payload[0] == wire.REQ_BEGIN_CYCLE_DELTA:
                fields = rewrite(*BEGIN_CYCLE_RESPONSE.decode_body(response))
                return BEGIN_CYCLE_RESPONSE.encode_body(fields)
            return response

    return Rewriting()


HOSTILE_DELTAS = {
    "unsorted": lambda c, b, r, a: (c, b, [2, 1], a),
    "duplicate": lambda c, b, r, a: (c, b, [1, 1], a),
    "out-of-range": lambda c, b, r, a: (c, b, [len(DOMAINS) + 1], a),
    "wrong-base": lambda c, b, r, a: (c, b"\x00" * 32, r, a),
    "removal-from-empty": lambda c, b, r, a: (c, b"", [0], a),
    "empty-list": lambda c, b, r, a: (c, b"", [], []),
}


class TestDeltaDownload:
    def _second_cycle_ready(self, world, tmp_path):
        insurer, _, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        client.save(str(tmp_path))
        insurer.update_cert_list([b"appended-cert"], [insurer.certs[1]])

    def test_update_downloads_only_the_change(self, world, tmp_path):
        insurer, _, channel, client, clock, _ = world
        self._second_cycle_ready(world, tmp_path)
        got = []
        rewrite = lambda *fields: got.append(fields) or fields
        client.do_update_cycle(_rewriting_channel(channel, rewrite, []), now=clock.now)
        (cycleid, base, removed, appended), = got
        assert base == client.archive[-1].cert_digest
        assert (list(removed), appended) == ([1], [b"appended-cert"])
        assert client.certs == insurer.certs
        delta = client.rollback_entries[-1].delta
        assert delta.added == ((len(DOMAINS) - 1, crypto.hash_h(b"appended-cert")),)
        assert delta.removed == ((1, client.reconstruct_list(1)[1]),)

    @pytest.mark.parametrize("kind", sorted(HOSTILE_DELTAS))
    def test_hostile_delta_is_refused_before_signing(self, world, tmp_path, kind):
        _, _, channel, client, clock, _ = world
        self._second_cycle_ready(world, tmp_path)
        before = (list(client.certs), list(client.rollback_entries), client.current_index)
        on_disk = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        seen = []
        hostile = _rewriting_channel(channel, HOSTILE_DELTAS[kind], seen)
        with pytest.raises(InsurerMisbehavior):
            client.do_update_cycle(hostile, now=clock.now)
        assert seen == [wire.REQ_BEGIN_CYCLE_DELTA]  # nothing was signed and sent
        assert client.open_cycle is None
        assert (client.certs, client.rollback_entries, client.current_index) == before
        client.save(str(tmp_path))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == on_disk

    @pytest.mark.parametrize("interval", [256, 1], ids=["held-list-replayed", "snapshot"])
    def test_cycle_after_insurer_restart_and_client_load(
        self, tmp_path, monkeypatch, interval
    ):
        """After a restart the insurer answers with a delta from the held
        list it replayed, or, if a snapshot dropped it, with the whole list;
        either way the client ends on the current list and both cycles'
        claims are accepted."""
        import conninsure.insurer as insurer_module
        from conninsure import judge

        monkeypatch.setattr(insurer_module, "SNAPSHOT_INTERVAL", interval)
        rng = RandomSource(56)
        clock = SimClock()
        servers = {d: tlssim.SimServer.create(d, rng=rng, now=clock.now) for d in DOMAINS}
        log = str(tmp_path / "insurer.log")
        insurer = Insurer.setup(
            [servers[d].presented_cert for d in DOMAINS], rng=rng, log_path=log
        )
        channel = InProcessChannel(insurer, now_fn=clock)
        client = ClientState.register(channel, 86_400, rng=rng, group=crypto.TOY_GROUP)
        first = client.do_update_cycle(channel, now=clock.now)
        client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)
        client.submit_cycle(channel, now=clock.advance(60), rng=rng)
        client.save(str(tmp_path / "client"))
        insurer.update_cert_list([b"appended-cert"], [servers[DOMAINS[2]].presented_cert])
        insurer.close()

        insurer = Insurer.load(log)
        assert bool(insurer.held) is (interval > 1)
        channel = InProcessChannel(insurer, now_fn=clock)
        client = ClientState.load(str(tmp_path / "client"))
        second = client.do_update_cycle(channel, now=clock.advance(3600))
        client.browse(DOMAINS[1], servers[DOMAINS[1]], clock.now, rng)
        client.submit_cycle(channel, now=clock.advance(60), rng=rng)
        assert client.certs == insurer.certs
        assert second.cert_digest == wire.cert_list_digest(insurer.certs)
        # Even from the whole list, the rollback holds only what changed.
        delta = client.rollback_entries[-1].delta
        assert delta.added == ((len(DOMAINS) - 1, crypto.hash_h(b"appended-cert")),)
        assert delta.removed == ((2, servers[DOMAINS[2]].presented_cert),)
        for record, domain in ((first, DOMAINS[0]), (second, DOMAINS[1])):
            claim = client.assemble_claim(record.cycleid, domain)
            verdict = judge.verify_claim_bytes(claim.to_bytes(), insurer.keypair.public, True)
            assert verdict is judge.Verdict.ACCEPT
        insurer.close()


class TestBrowse:
    def test_vetted_cert_yields_evidence(self, world):
        _, servers, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        result = client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)
        assert result.status == "vouched"
        tlssim.validate_evidence(result.evidence)

    def test_unvetted_cert_warns_without_voucher(self, world):
        _, _, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        stranger = tlssim.SimServer.create("stranger.example.org", rng=rng, now=clock.now)
        result = client.browse("stranger.example.org", stranger, clock.now, rng)
        assert result.status == "untrusted"
        assert result.evidence is None
        assert "stranger.example.org" not in client.open_cycle.evidences
        assert client.warnings[-1][1] == "stranger.example.org"

    def test_second_visit_reuses_voucher(self, world):
        _, servers, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        first = client.browse(DOMAINS[1], servers[DOMAINS[1]], clock.now, rng)
        second = client.browse(DOMAINS[1], servers[DOMAINS[1]], clock.now + 60, rng)
        assert second.status == "reused"
        assert second.evidence is first.evidence
        assert len(client.open_cycle.evidences) == 1

    def test_browse_without_cycle_rejected(self, world):
        _, servers, _, client, clock, rng = world
        with pytest.raises(SequencingError):
            client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)


class TestSubmitCycle:
    def test_zero_vouchers_submits_padding_tree(self, world):
        _, _, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        record = client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        assert record.voucher_root is not None
        assert record.covered is True
        assert record.evidences == {}

    def test_full_boundary_no_padding(self, world):
        _, servers, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        for d in DOMAINS:
            client.browse(d, servers[d], clock.now, rng)
        record = client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        assert len(record.evidences) == record.list_size

    def test_root_regenerates_from_archived_seed(self, world):
        _, servers, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        for d in DOMAINS[:2]:
            client.browse(d, servers[d], clock.now, rng)
        record = client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        vouchers = [record.evidences[d].voucher for d in sorted(record.evidences)]
        rebuilt = merkle.build_tree(
            vouchers, record.list_size, record.tree_seed,
            client.customer, record.cycleid,
        )
        assert rebuilt.root == record.voucher_root

    def test_coverage_self_monitoring_agrees(self, world):
        _, _, channel, client, clock, _ = world
        client.do_update_cycle(channel, now=clock.now)
        record = client.submit_cycle(channel, now=clock.advance(86_400))
        assert record.covered is True and record.covered_self is True

        client.do_update_cycle(channel, now=clock.now)
        record = client.submit_cycle(channel, now=clock.advance(86_401))
        assert record.covered is False and record.covered_self is False


class TestRollbackFidelity:
    def test_five_cycles_reconstruct_origin(self, world):
        """Reconstructed digests equal those bound in the countersignatures."""
        insurer, _, channel, client, clock, rng = world
        digests = []
        for i in range(5):
            record = client.do_update_cycle(channel, now=clock.now)
            digests.append(record.cert_digest)
            client.submit_cycle(channel, now=clock.advance(3600))
            insurer.update_cert_list(
                [b"churn-%d" % i], [insurer.certs[0]] if i % 2 else []
            )
        for index in range(1, 6):
            rebuilt = client.reconstruct_list(index)
            assert wire.cert_list_digest(rebuilt) == digests[index - 1]


class TestClaims:
    def _vouch_and_close(self, world, domains=2):
        _, servers, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        for d in DOMAINS[:domains]:
            client.browse(d, servers[d], clock.now, rng)
        return client.submit_cycle(channel, now=clock.advance(3600), rng=rng)

    def test_claim_for_unvouched_domain_rejected(self, world):
        record = self._vouch_and_close(world)
        client = world[3]
        with pytest.raises(NotFoundError):
            client.assemble_claim(record.cycleid, DOMAINS[3])

    def test_claim_on_padding_domain_rejected(self, world):
        record = self._vouch_and_close(world)
        client = world[3]
        with pytest.raises(ParameterError):
            client.assemble_claim(record.cycleid, PAD_DOMAIN)

    def test_unknown_cycle_rejected(self, world):
        self._vouch_and_close(world)
        client = world[3]
        with pytest.raises(NotFoundError):
            client.assemble_claim(b"\xaa" * 32, DOMAINS[0])

    def test_claim_roundtrips_and_verifies_inclusion(self, world):
        record = self._vouch_and_close(world)
        client = world[3]
        claim = client.assemble_claim(record.cycleid, DOMAINS[0])
        assert claim.cycleid == record.cycleid
        leaf = merkle.leaf_digest(claim.evidence.voucher)
        assert merkle.verify_inclusion(claim.voucher_root, leaf, claim.proof)


class TestPersistence:
    def test_claim_byte_identical_after_reload(self, tmp_path, world):
        insurer, servers, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        for d in DOMAINS[:3]:
            client.browse(d, servers[d], clock.now, rng)
        record = client.submit_cycle(channel, now=clock.advance(3600), rng=rng)

        before = client.assemble_claim(record.cycleid, DOMAINS[1]).to_bytes()
        client.save(str(tmp_path))
        reloaded = ClientState.load(str(tmp_path))
        after = reloaded.assemble_claim(record.cycleid, DOMAINS[1]).to_bytes()
        assert before == after

    def test_open_cycle_survives_reload(self, tmp_path, world):
        _, servers, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)
        client.save(str(tmp_path))

        reloaded = ClientState.load(str(tmp_path))
        assert reloaded.open_cycle is not None
        assert DOMAINS[0] in reloaded.open_cycle.evidences
        record = reloaded.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        assert record.covered is True

    def test_incremental_archive_appends(self, tmp_path, world):
        _, _, channel, client, clock, rng = world
        for _ in range(3):
            client.do_update_cycle(channel, now=clock.now)
            client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
            client.save(str(tmp_path))
        reloaded = ClientState.load(str(tmp_path))
        assert len(reloaded.archive) == 3

    def test_rollback_log_survives_reload(self, tmp_path, world):
        insurer, _, channel, client, clock, rng = world
        for i in range(4):
            client.do_update_cycle(channel, now=clock.now)
            client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
            insurer.update_cert_list([b"new-%d" % i], [])
            client.save(str(tmp_path))
        reloaded = ClientState.load(str(tmp_path))
        assert len(reloaded.rollback_entries) == 3
        assert reloaded.reconstruct_list(1) == client.reconstruct_list(1)

    def test_prune_rollbacks_compacts_log(self, tmp_path, world):
        insurer, _, channel, client, clock, rng = world
        for i in range(4):
            client.do_update_cycle(channel, now=clock.now)
            client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
            insurer.update_cert_list([b"new-%d" % i], [])
        client.save(str(tmp_path))

        # deltas sit at +3600, +7200, +10800 relative to the run start;
        # now - retention lands between the first and second
        removed = client.prune_rollbacks(now=clock.now, retention_seconds=10_000)
        assert removed == 1
        client.save(str(tmp_path))
        reloaded = ClientState.load(str(tmp_path))
        assert len(reloaded.rollback_entries) == 2
        # the unpruned tail still reconstructs its cycles
        assert reloaded.reconstruct_list(3) == client.reconstruct_list(3)

    @pytest.mark.parametrize("name", ["archive.tlv", "rollback.tlv"])
    def test_torn_log_frame_is_cut_off(self, tmp_path, world, name):
        """A log cut inside its last frame, as a crash mid-append leaves it,
        loads the frames before it, is truncated to them, and the cut is
        reported."""
        insurer, _, channel, client, clock, rng = world
        for i in range(2):
            client.do_update_cycle(channel, now=clock.now)
            client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
            insurer.update_cert_list([b"new-%d" % i], [])
        client.do_update_cycle(channel, now=clock.now)
        client.save(str(tmp_path))
        path = tmp_path / name
        frames = list(wire.iter_frames(path.read_bytes()))
        assert len(frames) == 2
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.warns(RuntimeWarning, match=f"{name}: dropped a partial frame"):
            reloaded = ClientState.load(str(tmp_path))
        assert path.read_bytes() == wire.frame(frames[0])
        kept = {"archive.tlv": 2, "rollback.tlv": 2, name: 1}
        assert reloaded.archive == client.archive[: kept["archive.tlv"]]
        assert reloaded.rollback_entries == client.rollback_entries[: kept["rollback.tlv"]]


def _closed_cycle(world, client, i: int):
    """One cycle with one voucher, then a list change at the insurer."""
    insurer, servers, channel, _, clock, rng = world
    client.do_update_cycle(channel, now=clock.now)
    client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)
    record = client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
    insurer.update_cert_list([b"new-%d" % i], [])
    return record


def _claim(client, record) -> bytes:
    return client.assemble_claim(record.cycleid, DOMAINS[0]).to_bytes()


class TestSaveFaults:
    # A save after a closed cycle makes 8 such calls: the archive write and
    # fsync, the rollback write and fsync, then the state write, fsync,
    # rename and directory fsync.
    @pytest.mark.parametrize("n", range(1, 9))
    def test_failed_save_loses_no_saved_cycle(self, tmp_path, world, monkeypatch, n):
        directory = str(tmp_path)
        client = world[3]
        saved = []
        for i in range(2):
            saved.append(_closed_cycle(world, client, i))
            client.save(directory)
        claims = [_claim(client, record) for record in saved]
        _closed_cycle(world, client, 2)
        FailAt(monkeypatch, n)
        with pytest.raises(OSError, match="injected"):
            client.save(directory)
        monkeypatch.undo()

        reloaded = ClientState.load(directory)
        assert [_claim(reloaded, record) for record in saved] == claims
        record = _closed_cycle(world, reloaded, 3)
        reloaded.save(directory)
        assert _claim(ClientState.load(directory), record) == _claim(reloaded, record)

    # A first save makes 12 such calls: each of the three files is created
    # by a write, an fsync, a rename and a directory fsync.
    @pytest.mark.parametrize("n", range(1, 13))
    def test_failed_first_save_leaves_no_state(self, tmp_path, world, monkeypatch, n):
        client = world[3]
        FailAt(monkeypatch, n)
        with pytest.raises(OSError, match="injected"):
            client.save(str(tmp_path))
        monkeypatch.undo()
        assert not (tmp_path / "state.tlv").exists()
        assert not list(tmp_path.glob("*.tmp"))

        client.save(str(tmp_path))
        reloaded = ClientState.load(str(tmp_path))
        assert reloaded.contract == client.contract
        record = _closed_cycle(world, reloaded, 0)
        reloaded.save(str(tmp_path))
        assert _claim(ClientState.load(str(tmp_path)), record) == _claim(reloaded, record)

    @pytest.mark.parametrize(
        "name, saved_before",
        [("archive.tlv", 0), ("archive.tlv", 1), ("rollback.tlv", 1)],
    )
    def test_save_retried_after_a_torn_append(
        self, tmp_path, world, monkeypatch, name, saved_before
    ):
        """A torn append is cut back off its file, and a torn first write
        leaves no file, so saving again from the same live state loads every
        cycle."""
        directory = str(tmp_path)
        client = world[3]
        records = []
        for i in range(saved_before):
            records.append(_closed_cycle(world, client, i))
            client.save(directory)
        for i in range(saved_before, 3):
            records.append(_closed_cycle(world, client, i))

        fail_write(monkeypatch, torn_write, name)
        with pytest.raises(OSError, match="injected"):
            client.save(directory)
        monkeypatch.undo()
        client.save(directory)

        reloaded = ClientState.load(directory)
        assert reloaded.archive == client.archive
        assert reloaded.rollback_entries == client.rollback_entries
        assert [_claim(reloaded, r) for r in records] == [_claim(client, r) for r in records]

    def test_archived_cycle_left_open_by_a_failed_save_is_closed(
        self, tmp_path, world, monkeypatch
    ):
        """A crash between the archive append and the state replace leaves
        the cycle open in state.tlv and closed in archive.tlv."""
        _, servers, channel, client, clock, rng = world
        directory = str(tmp_path)
        client.do_update_cycle(channel, now=clock.now)
        client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)
        client.save(directory)
        record = client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        fail_once(monkeypatch, wire.os, "replace", io_error)
        with pytest.raises(OSError):
            client.save(directory)

        reloaded = ClientState.load(directory)
        assert reloaded.open_cycle is None
        assert _claim(reloaded, record) == _claim(client, record)
        reloaded.do_update_cycle(channel, now=clock.now)
        assert reloaded.submit_cycle(channel, now=clock.advance(3600), rng=rng).covered
