"""Client agent: cycle participation, browsing, submission, claim assembly,
rollback fidelity, and on-disk state determinism."""

import dataclasses
import errno
import json
import os

import pytest

from support import (
    FailAt,
    count_written,
    fail_once,
    fail_write,
    fixture_path,
    flip_signature_bit,
    io_error,
    short_r_voucher,
    torn_write,
)
from conninsure import crypto, judge, merkle, tlssim, wire
from conninsure.client import ARCHIVE_FILE, LIST_FILE, ROLLBACK_FILE, STATE_FILE, ClientState
from conninsure.errors import (
    CorruptionError,
    EncodingError,
    EvidenceError,
    InsurerMisbehavior,
    NotFoundError,
    ParameterError,
    SequencingError,
)
from conninsure.insurer import (
    ACK_CERTS_RESPONSE,
    BEGIN_CYCLE_RESPONSE,
    LIST_DELTA,
    REGISTER_RESPONSE,
    SUBMIT_VOUCHERS_RESPONSE,
    Insurer,
)
from conninsure.model import PAD_DOMAIN, CycleRecord, RollbackEntry
from conninsure.rand import RandomSource
from conninsure.scenario import SimClock
from conninsure.transport import InProcessChannel

DOMAINS = [f"d{i:03d}.example.org" for i in range(4)]


@pytest.fixture
def world():
    """Insurer + servers + registered client on a shared simulated clock."""
    return _make_world()


def _make_world(fillers: list[bytes] = ()):
    """The world, with fillers listed after the servers' certificates."""
    rng = RandomSource(55)
    clock = SimClock()
    servers = {
        d: tlssim.SimServer.create(d, rng=rng, now=clock.now) for d in DOMAINS
    }
    certs = [servers[d].presented_cert for d in DOMAINS] + list(fillers)
    insurer = Insurer.setup(certs, rng=rng)
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
                    sig = wire.CHAMELEON_SIGNATURE.decode(response)
                    bad = crypto.ChameleonSignature(
                        sig.r, sig.inner_sig[:-1] + b"\x00", sig.context
                    )
                    return wire.CHAMELEON_SIGNATURE.encode(bad)
                return response

        with pytest.raises(InsurerMisbehavior):
            client.do_update_cycle(ForgingChannel(), now=clock.now)
        assert client.open_cycle is None

    @pytest.mark.parametrize("tag", [wire.REQ_ACK_CERTS, wire.REQ_SUBMIT_VOUCHERS],
                             ids=["ack", "submit"])
    def test_countersignature_with_flipped_randomizer_aborts(self, world, tag):
        _, _, channel, client, clock, rng = world
        q = client.chameleon_kp.params.q
        response_type = {
            wire.REQ_ACK_CERTS: ACK_CERTS_RESPONSE,
            wire.REQ_SUBMIT_VOUCHERS: SUBMIT_VOUCHERS_RESPONSE,
        }[tag]

        class FlippingChannel:
            def request(self, payload):
                response = channel.request(payload)
                if payload[0] == tag:
                    sig, *rest = response_type.decode_body(response)
                    bad = dataclasses.replace(sig, r=(sig.r + 1) % q)
                    return response_type.encode_body((bad, *rest))
                return response

        flipping = FlippingChannel()
        with pytest.raises(InsurerMisbehavior):
            client.do_update_cycle(flipping, now=clock.now)
            client.submit_cycle(flipping, now=clock.advance(60), rng=rng)
        assert client.archive == []

    @pytest.mark.parametrize("field, match", [
        ("delta_t", "requested delta_t"),
        ("pk_a", "does not embed the applicant's keys"),
    ], ids=["delta_t", "pk_a"])
    def test_contract_rewritten_in_transit_refused(self, world, field, match):
        """A REGISTER answer whose update bound or applicant key was
        rewritten in transit is refused: no signature in the contract binds
        either."""
        _, _, channel, _, _, rng = world
        stranger = crypto.generate_sig_keypair(crypto.SCHEME_ED25519, RandomSource(44)).public
        rewritten = {"delta_t": 1, "pk_a": stranger}[field]

        class RewritingChannel:
            def request(self, payload):
                response = channel.request(payload)
                if payload[0] == wire.REQ_REGISTER:
                    (contract,) = REGISTER_RESPONSE.decode_body(response)
                    return REGISTER_RESPONSE.encode_body(
                        (dataclasses.replace(contract, **{field: rewritten}),)
                    )
                return response

        with pytest.raises(InsurerMisbehavior, match=match):
            ClientState.register(
                RewritingChannel(), 86_400, rng=rng, group=crypto.TOY_GROUP
            )

    def test_contract_with_another_insurer_key_refused(self, world):
        """With the insurer's key pinned, a REGISTER answer whose contract
        names another key is refused; the real one is taken."""
        insurer, _, channel, _, _, rng = world
        stranger = crypto.generate_sig_keypair(crypto.SCHEME_ED25519, rng).public

        class RewritingChannel:
            def request(self, payload):
                response = channel.request(payload)
                if payload[0] == wire.REQ_REGISTER:
                    (contract,) = REGISTER_RESPONSE.decode_body(response)
                    return REGISTER_RESPONSE.encode_body(
                        (dataclasses.replace(contract, pk_in=stranger),)
                    )
                return response

        pinned = insurer.keypair.public
        with pytest.raises(InsurerMisbehavior, match="pinned insurer key"):
            ClientState.register(RewritingChannel(), 86_400, rng=rng,
                                 group=crypto.TOY_GROUP, insurer_key=pinned)
        client = ClientState.register(channel, 86_400, rng=rng,
                                      group=crypto.TOY_GROUP, insurer_key=pinned)
        assert client.contract.pk_in == pinned

    def test_client_with_wrong_trapdoor_accepts_good_countersignatures(self, world):
        """A state whose y is not g^x checks the insurer's signatures the
        two-base way and still takes them as good."""
        _, _, channel, client, clock, rng = world
        kp = client.chameleon_kp
        client.chameleon_kp = crypto.ChameleonKeyPair(kp.params, kp.x % kp.params.q + 1, kp.y)
        client.do_update_cycle(channel, now=clock.now)
        assert client.submit_cycle(channel, now=clock.advance(60), rng=rng).covered


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

    @pytest.mark.parametrize("snapshots", [False, True], ids=["held-list-replayed", "snapshot"])
    def test_cycle_after_insurer_restart_and_client_load(self, tmp_path, snapshots):
        """After a restart, from a log with or without an old snapshot, the
        insurer answers with a delta from the held list it replayed; the
        client ends on the current list and both cycles' claims are
        accepted."""
        import conninsure.insurer as insurer_module

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
        held = {c: listing.digest for c, listing in insurer.held.items()}
        if snapshots:  # as a log written when the insurer appended snapshots
            snapshot = insurer_module._SNAPSHOT.encode(insurer._snapshot_values())
            wire.append_frames(log, [snapshot])

        insurer = Insurer.load(log)
        assert {c: listing.digest for c, listing in insurer.held.items()} == held
        channel = InProcessChannel(insurer, now_fn=clock)
        client = ClientState.load(str(tmp_path / "client"))
        second = client.do_update_cycle(channel, now=clock.advance(3600))
        client.browse(DOMAINS[1], servers[DOMAINS[1]], clock.now, rng)
        client.submit_cycle(channel, now=clock.advance(60), rng=rng)
        assert client.certs == insurer.certs
        assert second.cert_digest == wire.cert_list_digest(insurer.certs)
        # The rollback holds only what changed.
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

    def test_non_ascii_domain_refused_before_it_is_recorded(self, world, tmp_path):
        """A domain no save could encode is refused, so later saves work."""
        _, _, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        stranger = tlssim.SimServer.create("stranger.example.org", rng=rng, now=clock.now)
        with pytest.raises(EncodingError, match="non-ASCII"):
            client.browse("\u00e9.example", stranger, clock.now, rng)
        assert client.warnings == []
        client.save(str(tmp_path))

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

    def test_submit_builds_the_tree_once_through_the_module(self, world, monkeypatch):
        """The submit commits the root of one merkle.build_tree call over
        list_size leaves, looked up on the module at call time."""
        _, servers, channel, client, clock, rng = world
        calls, build = [], merkle.build_tree
        monkeypatch.setattr(
            merkle, "build_tree", lambda *args: calls.append(args) or build(*args)
        )
        client.do_update_cycle(channel, now=clock.now)
        for d in DOMAINS[:2]:
            client.browse(d, servers[d], clock.now, rng)
        record = client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        assert [args[1] for args in calls] == [record.list_size]
        assert build(*calls[0]).root == record.voucher_root

    def test_coverage_self_monitoring_agrees(self, world):
        _, _, channel, client, clock, _ = world
        client.do_update_cycle(channel, now=clock.now)
        record = client.submit_cycle(channel, now=clock.advance(86_400))
        assert record.covered is True and record.covered_self is True

        client.do_update_cycle(channel, now=clock.now)
        record = client.submit_cycle(channel, now=clock.advance(86_401))
        assert record.covered is False and record.covered_self is False

    def test_submission_past_the_term_is_not_covered(self, world):
        """A cycle begun at t_end and submitted 200 s later is inside delta_t
        but outside the contract term: neither party counts it covered."""
        record = _cycle_past_the_term(world)
        assert record.covered is False and record.covered_self is False


def _cycle_past_the_term(world):
    """A cycle begun at the contract's t_end, browsed at t_end + 100 and
    submitted at t_end + 200."""
    _, servers, channel, client, clock, rng = world
    clock.advance(client.contract.t_end - clock.now)
    client.do_update_cycle(channel, now=clock.now)
    client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.advance(100), rng)
    return client.submit_cycle(channel, now=clock.advance(100), rng=rng)


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

    def test_claim_on_a_new_cycle_never_builds_the_dense_tree(self, world, monkeypatch):
        record = self._vouch_and_close(world)
        client = world[3]
        calls = []
        monkeypatch.setattr(merkle, "build_dense_tree", lambda *args: calls.append(args))
        claim = client.assemble_claim(record.cycleid, DOMAINS[0])
        assert calls == []
        assert claim.voucher_root == record.voucher_root

    def test_claim_submitted_past_the_term_is_update_late(self, world):
        insurer, client = world[0], world[3]
        record = _cycle_past_the_term(world)
        claim = client.assemble_claim(record.cycleid, DOMAINS[0])
        verdict = judge.verify_claim(claim, insurer.keypair.public, rogue_asserted=True)
        assert verdict is judge.Verdict.UPDATE_LATE


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

    @pytest.mark.parametrize("name", [ARCHIVE_FILE, STATE_FILE])
    def test_saved_evidence_that_does_not_verify_names_the_frame(self, tmp_path, world, name):
        """A saved evidence whose server signature fails, in archive.tlv or
        in state.tlv's open cycle, is checked where a claim uses it, not at
        load: the directory loads, the claim on that evidence is refused,
        and a claim on an intact cycle still assembles."""
        _, servers, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)
        intact = client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        client.save(str(tmp_path))
        client.do_update_cycle(channel, now=clock.now)
        client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)
        if name == ARCHIVE_FILE:
            client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
            client.archive[-1] = flip_signature_bit(client.archive[-1], DOMAINS[0])
        else:
            client.open_cycle = flip_signature_bit(client.open_cycle, DOMAINS[0])
        client.save(str(tmp_path))

        reloaded = ClientState.load(str(tmp_path))
        if name == STATE_FILE:
            reloaded.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        with pytest.raises(EvidenceError, match="server signature does not verify"):
            reloaded.assemble_claim(reloaded.archive[-1].cycleid, DOMAINS[0])
        assert _claim(reloaded, intact) == _claim(client, intact)

    def test_load_checks_no_evidence_and_a_claim_checks_one(
        self, tmp_path, world, monkeypatch
    ):
        """Loading three archived cycles and an open one verifies no server
        signature; a claim verifies one, that of the evidence it carries."""
        _, servers, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        for d in DOMAINS[:3]:
            client.browse(d, servers[d], clock.now, rng)
        first = client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        for i in range(2):
            _closed_cycle(world, client, i)
        client.do_update_cycle(channel, now=clock.now)
        client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)
        client.save(str(tmp_path))
        calls = []
        real_verify = tlssim.verify_transcript_signature
        monkeypatch.setattr(
            tlssim, "verify_transcript_signature",
            lambda *a: calls.append(1) or real_verify(*a),
        )
        reloaded = ClientState.load(str(tmp_path))
        assert len(reloaded.archive) == 3 and reloaded.open_cycle.evidences
        assert calls == []
        reloaded.assemble_claim(first.cycleid, DOMAINS[1])
        assert len(calls) == 1

    def test_state_file_alone_loads_with_empty_logs(self, tmp_path):
        """The first layout's save wrote state.tlv before archive.tlv and
        rollback.tlv, so a crash could leave state.tlv alone: it loads with
        no archived cycle and no rollback delta."""
        with open(fixture_path("client_dir_v1.json")) as fh:
            state = bytes.fromhex(json.load(fh)["state_tlv"])
        (tmp_path / STATE_FILE).write_bytes(state)
        loaded = ClientState.load(str(tmp_path))
        assert (loaded.archive, loaded.rollback_entries) == ([], [])
        assert loaded.current_index == 3
        assert loaded.reconstruct_list(3) == loaded.certs != []

    def test_archived_voucher_its_type_refuses_names_the_frame(self, tmp_path, world):
        """A decoded value that Voucher refuses is corruption of the frame
        that holds it, not a bare ParameterError."""
        _, servers, channel, client, clock, rng = world
        client.do_update_cycle(channel, now=clock.now)
        client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)
        record = client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        client.save(str(tmp_path))
        evidence = record.evidences[DOMAINS[0]]
        bad = dataclasses.replace(
            record,
            evidences={
                DOMAINS[0]: dataclasses.replace(
                    evidence, voucher=short_r_voucher(evidence.voucher)
                )
            },
        )
        wire.replace_frames(str(tmp_path / ARCHIVE_FILE), [bad.to_bytes()])
        with pytest.raises(
            CorruptionError,
            match=r"archive\.tlv: frame at byte offset 0: voucher randomness must be 32 bytes",
        ):
            ClientState.load(str(tmp_path))

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


def _list_frames(directory) -> list[tuple]:
    """The (removed, appended, cycle index) frames of list.tlv."""
    with open(os.path.join(directory, LIST_FILE), "rb") as fh:
        return [LIST_DELTA.decode(payload) for payload in wire.iter_frames(fh.read())]


def _next_cycle_covered(world, client, directory: str, i: int) -> None:
    """The client's next cycle completes covered, and its save reloads to
    the same list and a byte-identical claim."""
    record = _closed_cycle(world, client, i)
    assert record.covered
    client.save(directory)
    reloaded = ClientState.load(directory)
    assert reloaded.certs == client.certs
    assert _claim(reloaded, record) == _claim(client, record)


def _rewrite_list(directory, frames) -> None:
    wire.replace_frames(os.path.join(directory, LIST_FILE), list(map(LIST_DELTA.encode, frames)))


def _skip_a_cycle(directory, world) -> None:
    """list.tlv with its delta frame renumbered from cycle 2 to 3."""
    base, (removed, appended, _) = _list_frames(directory)
    _rewrite_list(directory, [base, (removed, appended, 3)])


def _rewrite_first_archived(directory, change) -> None:
    path = os.path.join(directory, ARCHIVE_FILE)
    with open(path, "rb") as fh:
        records = [CycleRecord.from_bytes(payload) for payload in wire.iter_frames(fh.read())]
    records[0] = change(records[0])
    wire.replace_frames(path, [record.to_bytes() for record in records])


def _remove_past_the_list(directory, world) -> None:
    """rollback.tlv with each delta putting back a certificate at a
    position past the end of the list it rebuilds."""
    path = os.path.join(directory, ROLLBACK_FILE)
    with open(path, "rb") as fh:
        entries = [RollbackEntry.from_bytes(payload) for payload in wire.iter_frames(fh.read())]
    wire.replace_frames(path, [
        dataclasses.replace(
            entry, delta=dataclasses.replace(entry.delta, removed=((99, b"gone"),))
        ).to_bytes()
        for entry in entries
    ])


def _unlisted_evidence(world, record):
    """record with its evidence for DOMAINS[0] replaced by one for the same
    voucher, validly signed by a server whose certificate is not listed."""
    clock, rng = world[4:]
    evidence = record.evidences[DOMAINS[0]]
    outsider = tlssim.SimServer.create(DOMAINS[0], rng=rng, now=clock.now)
    transcript = outsider.handshake(evidence.transcript.client_random, clock.now, rng)
    forged = tlssim.extract_evidence(transcript, evidence.voucher, outsider.presented_cert)
    return dataclasses.replace(record, evidences={DOMAINS[0]: forged})


# Edits of a saved directory of two cycles: (edit, error, message).
TAMPERED = {
    "list-skips-a-cycle": (
        _skip_a_cycle, CorruptionError,
        r"list\.tlv: frame at byte offset \d+ does not follow cycle 1",
    ),
    "list-ends-early": (
        lambda directory, world: _rewrite_list(directory, _list_frames(directory)[:1]),
        CorruptionError, r"list\.tlv ends at cycle 1, state at 2",
    ),
    "rollback-removed-past-the-list": (
        _remove_past_the_list, CorruptionError, "removed-cert position 99 out of range",
    ),
    "rollback-missing": (
        lambda directory, world: wire.replace_frames(
            os.path.join(directory, ROLLBACK_FILE), []
        ),
        CorruptionError, "rollback delta for cycle 2 is missing",
    ),
    "archived-digest": (
        lambda directory, world: _rewrite_first_archived(
            directory, lambda record: dataclasses.replace(record, cert_digest=bytes(32))
        ),
        CorruptionError, "reconstructed list does not match the cycle digest",
    ),
    "archived-seed": (
        lambda directory, world: _rewrite_first_archived(
            directory, lambda record: dataclasses.replace(record, tree_seed=bytes(32))
        ),
        CorruptionError, "regenerated tree root does not match submission",
    ),
    "archived-unlisted-cert": (
        lambda directory, world: _rewrite_first_archived(
            directory, lambda record: _unlisted_evidence(world, record)
        ),
        NotFoundError, "presented certificate is not in that cycle's list",
    ),
}


class TestTamperedFiles:
    @pytest.mark.parametrize("case", sorted(TAMPERED))
    def test_tampered_file_is_refused(self, tmp_path, world, case):
        """Two cycles saved, then one file edited: loading the state, or the
        claim on the first cycle after it, refuses the edit."""
        tamper, error, match = TAMPERED[case]
        directory = str(tmp_path)
        client = world[3]
        records = []
        for i in range(2):
            records.append(_closed_cycle(world, client, i))
            client.save(directory)
        tamper(directory, world)
        with pytest.raises(error, match=match):
            _claim(ClientState.load(directory), records[0])


class TestSaveFaults:
    def _fail_third_save(self, tmp_path, world, monkeypatch, n, compacts):
        """Two cycles saved, a third closed; the n-th writer call of its save
        fails.  After a reload both saved cycles give the same claims."""
        insurer = world[0]
        directory = str(tmp_path)
        client = world[3]
        saved = []
        for i in range(2):
            saved.append(_closed_cycle(world, client, i))
            client.save(directory)
        claims = [_claim(client, record) for record in saved]
        if compacts:  # a delta larger than list.tlv's base
            insurer.update_cert_list([b"big" * len(b"".join(insurer.certs))], [])
        _closed_cycle(world, client, 2)
        FailAt(monkeypatch, n)
        with pytest.raises(OSError, match="injected"):
            client.save(directory)
        monkeypatch.undo()

        reloaded = ClientState.load(directory)
        assert [_claim(reloaded, record) for record in saved] == claims
        _next_cycle_covered(world, reloaded, directory, 3)

    # A save after a closed cycle makes 10 such calls: the archive write and
    # fsync, the rollback write and fsync, the list write and fsync, then
    # the state write, fsync, rename and directory fsync.
    @pytest.mark.parametrize("n", range(1, 11))
    def test_failed_save_loses_no_saved_cycle(self, tmp_path, world, monkeypatch, n):
        self._fail_third_save(tmp_path, world, monkeypatch, n, compacts=False)

    # When the save compacts list.tlv, the list write and fsync are a write,
    # an fsync, a rename and a directory fsync: 12 calls.  From the rename
    # on, list.tlv holds a base frame past state.tlv's current_index.
    @pytest.mark.parametrize("n", range(1, 13))
    def test_failed_compacting_save_loses_no_saved_cycle(
        self, tmp_path, world, monkeypatch, n
    ):
        self._fail_third_save(tmp_path, world, monkeypatch, n, compacts=True)

    def test_delta_frame_past_the_state_is_taken_back(self, tmp_path, world, monkeypatch):
        """A save that appended its delta to list.tlv and failed before it
        replaced state.tlv leaves a frame past current_index: load takes the
        list back to current_index, and the next save rewrites list.tlv
        whole."""
        directory = str(tmp_path)
        client = world[3]
        saved = [_closed_cycle(world, client, 0)]
        client.save(directory)
        claims = [_claim(client, record) for record in saved]
        _closed_cycle(world, client, 1)
        fail_once(monkeypatch, wire.os, "replace", io_error)  # state.tlv's rename
        with pytest.raises(OSError, match="injected"):
            client.save(directory)
        monkeypatch.undo()
        assert [index for _, _, index in _list_frames(directory)] == [1, 2]

        reloaded = ClientState.load(directory)
        assert reloaded.current_index == 1
        assert reloaded.certs == client.reconstruct_list(1)
        assert [_claim(reloaded, record) for record in saved] == claims
        _next_cycle_covered(world, reloaded, directory, 2)
        assert [index for _, _, index in _list_frames(directory)] == [2]

    def test_list_frame_past_the_registration_is_taken_back(
        self, tmp_path, world, monkeypatch
    ):
        """The same when only the registration was saved: load takes the
        list back to cycle 0, the empty list, and the next save rewrites
        list.tlv whole."""
        directory = str(tmp_path)
        client = world[3]
        client.save(directory)
        _closed_cycle(world, client, 0)
        real_replace = wire.os.replace

        def replace(src, dst):
            if os.path.basename(dst) == STATE_FILE:
                raise OSError(errno.EIO, "injected I/O error")
            real_replace(src, dst)

        monkeypatch.setattr(wire.os, "replace", replace)
        with pytest.raises(OSError, match="injected"):
            client.save(directory)
        monkeypatch.undo()
        assert _list_frames(directory) == [((), client.certs, 1)]

        reloaded = ClientState.load(directory)
        assert (reloaded.current_index, reloaded.certs) == (0, [])
        _next_cycle_covered(world, reloaded, directory, 1)
        assert _list_frames(directory) == [((), reloaded.certs, 1)]
        assert reloaded.certs != client.certs

    def test_save_after_a_failed_cut_rewrites_the_list(self, tmp_path, world, monkeypatch):
        """An append to list.tlv that tears and cannot be cut back raises
        CorruptionError; saving again replaces list.tlv instead of
        appending behind the torn bytes."""
        directory = str(tmp_path)
        client = world[3]
        saved = [_closed_cycle(world, client, 0)]
        client.save(directory)
        saved.append(_closed_cycle(world, client, 1))
        fail_write(monkeypatch, torn_write, LIST_FILE)
        fail_once(monkeypatch, wire.os, "ftruncate", io_error)
        with pytest.raises(CorruptionError, match="could not be cut off"):
            client.save(directory)
        monkeypatch.undo()
        client.save(directory)
        assert [index for _, _, index in _list_frames(directory)] == [2]

        reloaded = ClientState.load(directory)
        assert reloaded.certs == client.certs
        assert [_claim(reloaded, r) for r in saved] == [_claim(client, r) for r in saved]
        _next_cycle_covered(world, reloaded, directory, 2)

    @pytest.mark.parametrize("name", [ARCHIVE_FILE, ROLLBACK_FILE])
    def test_save_after_a_failed_cut_rewrites_the_log(
        self, tmp_path, world, monkeypatch, name
    ):
        """An append to archive.tlv or rollback.tlv that tears and cannot be
        cut back raises CorruptionError; saving again replaces that log
        instead of appending behind the torn bytes."""
        directory = str(tmp_path)
        client = world[3]
        saved = [_closed_cycle(world, client, 0)]
        client.save(directory)
        saved.append(_closed_cycle(world, client, 1))
        fail_write(monkeypatch, torn_write, name)
        fail_once(monkeypatch, wire.os, "ftruncate", io_error)
        with pytest.raises(CorruptionError, match="could not be cut off"):
            client.save(directory)
        monkeypatch.undo()
        client.save(directory)

        reloaded = ClientState.load(directory)
        assert reloaded.archive == client.archive
        assert reloaded.rollback_entries == client.rollback_entries
        assert reloaded.certs == client.certs
        assert [_claim(reloaded, r) for r in saved] == [_claim(client, r) for r in saved]
        _next_cycle_covered(world, reloaded, directory, 2)

    def test_delta_from_the_empty_list_is_saved_whole(self, tmp_path, world):
        """When the insurer sends the whole list as a delta from the empty
        list, as after a restart from a snapshot, the save replaces list.tlv
        with one base frame instead of appending that delta."""
        insurer, servers, channel, client, clock, rng = world
        directory = str(tmp_path)
        saved = [_closed_cycle(world, client, i) for i in range(2)]
        client.save(directory)
        claims = [_claim(client, record) for record in saved]
        resend = lambda c, b, r, a: (c, b"", [], list(insurer.certs))
        client.do_update_cycle(_rewriting_channel(channel, resend, []), now=clock.now)
        client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)
        saved.append(client.submit_cycle(channel, now=clock.advance(3600), rng=rng))
        claims.append(_claim(client, saved[-1]))
        client.save(directory)
        assert _list_frames(directory) == [((), client.certs, 3)]

        reloaded = ClientState.load(directory)
        assert [_claim(reloaded, record) for record in saved] == claims
        _next_cycle_covered(world, reloaded, directory, 3)

    # A first save makes 16 such calls: each of the four files is created
    # by a write, an fsync, a rename and a directory fsync.
    @pytest.mark.parametrize("n", range(1, 17))
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
        [("archive.tlv", 0), ("archive.tlv", 1), ("rollback.tlv", 1),
         ("list.tlv", 0), ("list.tlv", 1)],
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
        assert reloaded.certs == client.certs
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


FILLER_SIZE = 500


def _fillers(tag: bytes, count: int) -> list[bytes]:
    return [tag + b"-%05d-" % i + bytes(FILLER_SIZE - len(tag) - 7) for i in range(count)]


class TestListLog:
    def _cycle_writes(self, monkeypatch, tmp_path, size: int, churn: int):
        """Bytes written by file in the two saves of one cycle, after churn
        of a list with size fillers: (update save, submit save)."""
        world = _make_world(_fillers(b"filler", size))
        insurer, servers, channel, client, clock, rng = world
        directory = str(tmp_path / f"{size}-{churn}")
        client.do_update_cycle(channel, now=clock.now)
        client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        client.save(directory)
        removes = insurer.certs[len(DOMAINS):len(DOMAINS) + churn]
        insurer.update_cert_list(_fillers(b"new", churn), removes)

        written = count_written(monkeypatch)
        client.do_update_cycle(channel, now=clock.advance(3600))
        client.save(directory)
        update_save = dict(written)
        written.clear()
        client.browse(DOMAINS[0], servers[DOMAINS[0]], clock.now, rng)
        client.submit_cycle(channel, now=clock.advance(60), rng=rng)
        client.save(directory)
        monkeypatch.undo()
        return update_save, dict(written)

    def test_save_cost_follows_the_churn_not_the_list(self, monkeypatch, tmp_path):
        total = {}
        for size in (200, 400):
            for churn in (1, 8):
                update_save, submit_save = self._cycle_writes(
                    monkeypatch, tmp_path, size, churn
                )
                assert LIST_FILE in update_save
                assert LIST_FILE not in submit_save
                total[size, churn] = sum(update_save.values()) + sum(submit_save.values())
        for churn in (1, 8):
            assert abs(total[400, churn] - total[200, churn]) < FILLER_SIZE
        for size in (200, 400):
            # Each churned entry is in the forward delta and in the rollback.
            grown = total[size, 8] - total[size, 1]
            assert 7 * 2 * FILLER_SIZE <= grown < 7 * 3 * FILLER_SIZE
            assert total[size, 8] < size * FILLER_SIZE / 4

    def test_list_log_stays_within_twice_its_base(self, tmp_path, world):
        """Deltas are appended until they would outgrow the base frame, and
        then list.tlv is compacted to one base frame; every save reloads to
        the same list."""
        insurer, _, _, client, _, _ = world
        directory = str(tmp_path)
        frame_counts = []
        for i in range(12):
            _closed_cycle(world, client, i)
            removes = [insurer.certs[-2]] if i else []
            insurer.update_cert_list([b"%03d" % i * 50], removes)
            client.save(directory)
            data = (tmp_path / LIST_FILE).read_bytes()
            frames = list(wire.iter_frames(data))
            assert len(data) <= 2 * (4 + len(frames[0]))
            frame_counts.append(len(frames))
            assert ClientState.load(directory).certs == client.certs
        assert max(frame_counts) > 2
        assert 1 in frame_counts[1:]
