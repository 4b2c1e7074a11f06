"""Client agent: cycle participation, browsing, submission, claim assembly,
rollback fidelity, and on-disk state determinism."""

import pytest

from conninsure import crypto, merkle, tlssim, wire
from conninsure.client import ClientState
from conninsure.errors import (
    EncodingError,
    InsurerMisbehavior,
    NotFoundError,
    ParameterError,
    SequencingError,
)
from conninsure.insurer import Insurer
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
                if tag == wire.REQ_BEGIN_CYCLE:
                    raw = wire.fields(response, wire.TAG_BYTES, wire.TAG_LIST)
                    certs = wire.decode_list(wire.pack(wire.TAG_LIST, raw[1]))
                    certs[0] = b"tampered-in-transit"
                    return wire.pack(wire.TAG_BYTES, raw[0]) + wire.encode_list(certs)
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
    def test_torn_log_frame_raises(self, tmp_path, world, name):
        """A log cut inside its last frame is reported, not silently
        shortened: the cut frame may hold claimable evidence."""
        insurer, _, channel, client, clock, rng = world
        for i in range(2):
            client.do_update_cycle(channel, now=clock.now)
            client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
            insurer.update_cert_list([b"new-%d" % i], [])
        client.do_update_cycle(channel, now=clock.now)
        client.save(str(tmp_path))
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(EncodingError, match="offset"):
            ClientState.load(str(tmp_path))
