"""Insurer service: cycle state machine, recency, replay protection, the
chameleon-record log, persistence, and the framed endpoints exercised
through raw request bytes."""

import dataclasses
import gc
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conninsure.insurer as insurer_module
from support import (
    FailAt,
    count_powers,
    fail_once,
    fail_write,
    io_error,
    short_write,
    torn_write,
    unchecked_proof,
)
from conninsure import crypto, wire
from conninsure.errors import (
    CorruptionError,
    ExpiredContractError,
    NotFoundError,
    ParameterError,
    RecencyError,
    RegistrationRejected,
    SequencingError,
    SignatureInvalid,
)
from conninsure.insurer import (
    ACK_CERTS_REQUEST,
    BEGIN_CYCLE_REQUEST,
    BEGIN_CYCLE_RESPONSE,
    ERR_INTERNAL,
    ERR_REGISTRATION,
    ERROR_RESPONSE,
    SUBMIT_VOUCHERS_REQUEST,
    Insurer,
    RegistrationRequest,
    handle_request,
)
from conninsure.model import chameleon_context, registration_context
from conninsure.rand import RandomSource

NOW = 1_700_000_000
CERTS = [b"cert-alpha", b"cert-beta", b"cert-gamma"]


def _registration(rng, group=crypto.TOY_GROUP):
    keypair = crypto.generate_sig_keypair(rng=rng)
    chameleon = crypto.generate_chameleon_keypair(group, rng)
    proof = crypto.prove_trapdoor(
        chameleon, registration_context(keypair.public), rng
    )
    request = RegistrationRequest(
        pk_a=keypair.public,
        chameleon=chameleon.public,
        trapdoor_proof=proof,
        requested_delta_t=86_400,
    )
    return keypair, chameleon, request


@pytest.fixture
def insurer():
    return Insurer.setup(CERTS, rng=RandomSource(11))


@pytest.fixture
def enrolled(insurer):
    rng = RandomSource(12)
    keypair, chameleon, request = _registration(rng)
    contract = insurer.register(request, NOW)
    return insurer, keypair, chameleon, contract, rng


def _ack_payload(contract, cycleid, t, certs):
    return wire.encode_signed_payload(
        "Certificates", contract.customer, cycleid, t, wire.cert_list_digest(certs)
    )


def _run_cycle(insurer, keypair, contract, t, root=b"\x00" * 32, t_prime=None):
    cycleid, _, _, certs = insurer.begin_cycle(contract.customer, b"", t)
    payload = _ack_payload(contract, cycleid, t, certs)
    insurer.ack_certificates(
        contract.customer, cycleid, t, crypto.sign(keypair, payload), t
    )
    t_prime = t if t_prime is None else t_prime
    submit = wire.encode_signed_payload(
        "Vouchers", contract.customer, cycleid, t_prime, root
    )
    return insurer.accept_vouchers(
        contract.customer, cycleid, t_prime, root, crypto.sign(keypair, submit), t_prime
    )


class TestSetup:
    def test_initial_list_returned(self, insurer):
        assert insurer.certs == CERTS

    def test_two_setups_distinct_keys(self):
        a = Insurer.setup(CERTS, rng=RandomSource(1))
        b = Insurer.setup(CERTS, rng=RandomSource(2))
        assert a.keypair.public != b.keypair.public

    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            Insurer.setup([])

    def test_persistence_roundtrip(self, tmp_path, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        log = str(tmp_path / "insurer.log")
        persisted = Insurer.setup(CERTS, rng=RandomSource(11), log_path=log)
        request = _registration(RandomSource(12))[2]
        persisted.register(request, NOW)
        c = persisted.contracts[1]
        kp = crypto.generate_sig_keypair(rng=RandomSource(12))
        _run_cycle(persisted, kp, c, NOW + 10)
        persisted.update_cert_list([b"cert-delta"], [])
        snapshot = persisted.snapshot_bytes()
        persisted.close()

        reloaded = Insurer.load(log)
        assert reloaded.snapshot_bytes() == snapshot
        reloaded.close()

    def test_every_log_frame_is_fsynced(self, tmp_path, monkeypatch):
        """Periodic snapshots are made durable like the events they follow."""
        import conninsure.insurer as insurer_module

        monkeypatch.setattr(insurer_module, "SNAPSHOT_INTERVAL", 2)
        synced = []
        real_fsync = insurer_module.os.fsync
        monkeypatch.setattr(
            insurer_module.os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        log = tmp_path / "insurer.log"
        persisted = Insurer.setup(CERTS, rng=RandomSource(11), log_path=str(log))
        persisted.register(_registration(RandomSource(12))[2], NOW)
        # Certificates large enough that two events outweigh the snapshot.
        persisted.update_cert_list([b"cert-delta" * 25], [])
        persisted.update_cert_list([b"cert-epsilon" * 25], [])
        persisted.close()
        frames = list(wire.iter_frames(log.read_bytes()))
        tags = [frame[0] for frame in frames]
        assert tags.count(wire.LOG_SNAPSHOT) == 2
        # and set-up fsyncs the directory it created the log in
        assert len(synced) == len(frames) + 1 == 7

    def test_refuses_an_existing_log(self, tmp_path):
        log = tmp_path / "insurer.log"
        Insurer.setup(CERTS, rng=RandomSource(11), log_path=str(log)).close()
        before = log.read_bytes()
        with pytest.raises(ParameterError, match="exists"):
            Insurer.setup(CERTS, rng=RandomSource(12), log_path=str(log))
        assert log.read_bytes() == before

    # Set-up creates the log by a write, an fsync, a rename and a directory
    # fsync; whichever fails, no log is left and set-up can be retried.
    @pytest.mark.parametrize("n", range(1, 5))
    def test_failed_setup_leaves_no_log(self, tmp_path, monkeypatch, n):
        log = str(tmp_path / "insurer.log")
        FailAt(monkeypatch, n)
        with pytest.raises(OSError, match="injected"):
            Insurer.setup(CERTS, rng=RandomSource(11), log_path=log)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

        insurer = Insurer.setup(CERTS, rng=RandomSource(11), log_path=log)
        insurer.update_cert_list([b"cert-delta"], [])
        assert _reloaded_snapshot(log) == insurer.snapshot_bytes()


class TestRegistration:
    def test_valid_application(self, insurer):
        _, _, request = _registration(RandomSource(3))
        contract = insurer.register(request, NOW)
        assert contract.customer == 1
        assert contract.pk_in == insurer.keypair.public
        assert contract.t0 == NOW

    def test_two_registrations_distinct_customers(self, insurer):
        c1 = insurer.register(_registration(RandomSource(3))[2], NOW)
        c2 = insurer.register(_registration(RandomSource(4))[2], NOW)
        assert c1.customer != c2.customer

    def test_proof_for_different_key_rejected(self, insurer):
        rng = RandomSource(5)
        keypair, chameleon, request = _registration(rng)
        other = crypto.generate_chameleon_keypair(crypto.TOY_GROUP, rng)
        bad = RegistrationRequest(
            request.pk_a, other.public, request.trapdoor_proof, 86_400
        )
        with pytest.raises(RegistrationRejected):
            insurer.register(bad, NOW)

    def test_proof_check_does_not_block_other_customers(self, enrolled, monkeypatch):
        """While one registration's proof check runs, another customer's
        begin_cycle completes."""
        insurer, _, _, contract, rng = enrolled
        _, _, request = _registration(rng)
        entered, release = threading.Event(), threading.Event()
        real = crypto.verify_trapdoor

        def held(*args):
            entered.set()
            release.wait(timeout=30)
            return real(*args)

        monkeypatch.setattr(crypto, "verify_trapdoor", held)
        registered, began = [], []
        registering = threading.Thread(
            target=lambda: registered.append(insurer.register(request, NOW))
        )
        beginning = threading.Thread(
            target=lambda: began.append(insurer.begin_cycle(contract.customer, b"", NOW))
        )
        registering.start()
        try:
            assert entered.wait(timeout=10)
            beginning.start()
            beginning.join(timeout=5)
            assert not beginning.is_alive() and len(began) == 1
            assert registering.is_alive() and registered == []
        finally:
            release.set()
            registering.join(timeout=30)
            beginning.join(timeout=30)
        assert not registering.is_alive()
        assert registered[0].customer == contract.customer + 1

    def test_unknown_group_or_key_refused_before_any_power(self, insurer, monkeypatch):
        """A chameleon key on g squared of the 2048/256 group or on an
        8192-bit modulus, with a proof whose challenge holds, or a key with
        y = 2^2048 gets ERR_REGISTRATION, and the insurer builds no comb and
        calls no modexp for it."""
        params = crypto.GROUP_2048_256
        _, _, good = _registration(RandomSource(41), params)
        y, context = good.chameleon.y, registration_context(good.pk_a)
        requests = [
            dataclasses.replace(
                good,
                chameleon=crypto.ChameleonPublicKey(group, y),
                trapdoor_proof=unchecked_proof(group, y, context),
            )
            for group in (
                dataclasses.replace(params, g=params.g**2 % params.p),
                crypto.GroupParams((1 << 8191) + 1, params.q, 2),
            )
        ]
        requests.append(
            dataclasses.replace(good, chameleon=crypto.ChameleonPublicKey(params, 1 << 2048))
        )
        crypto.generator_comb.cache_clear()
        powers = count_powers(monkeypatch)
        for request in requests:
            response = handle_request(insurer, request.to_bytes(), NOW)
            assert _error_code(response) == ERR_REGISTRATION
        assert powers == [] and not insurer.contracts
        # The same counters see the powers of a registration that is checked.
        assert _error_code(handle_request(insurer, good.to_bytes(), NOW)) is None
        assert sorted(set(powers)) == ["comb", "modexp"]


class TestCycleStateMachine:
    def test_first_cycle_succeeds(self, enrolled):
        insurer, _, _, contract, _ = enrolled
        cycleid, _, _, certs = insurer.begin_cycle(contract.customer, b"", NOW + 5)
        assert certs == CERTS
        assert len(cycleid) == 32

    def test_second_begin_without_submission(self, enrolled):
        insurer, _, _, contract, _ = enrolled
        insurer.begin_cycle(contract.customer, b"", NOW + 5)
        with pytest.raises(SequencingError):
            insurer.begin_cycle(contract.customer, b"", NOW + 6)

    def test_submit_before_ack_rejected(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        cycleid = insurer.begin_cycle(contract.customer, b"", NOW)[0]
        payload = wire.encode_signed_payload(
            "Vouchers", contract.customer, cycleid, NOW, b"\x00" * 32
        )
        with pytest.raises(SequencingError):
            insurer.accept_vouchers(
                contract.customer, cycleid, NOW, b"\x00" * 32,
                crypto.sign(keypair, payload), NOW,
            )

    def test_expired_contract_rejected(self, enrolled):
        insurer, _, _, contract, _ = enrolled
        with pytest.raises(ExpiredContractError):
            insurer.begin_cycle(contract.customer, b"", contract.t_end + 1)

    def test_full_cycle_closes(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        sig, covered = _run_cycle(insurer, keypair, contract, NOW + 10)
        assert covered
        assert contract.customer not in insurer.open_cycles


class TestAckCertificates:
    def test_honest_flow_returns_valid_signature(self, enrolled):
        insurer, keypair, chameleon, contract, _ = enrolled
        cycleid, _, _, certs = insurer.begin_cycle(contract.customer, b"", NOW)
        payload = _ack_payload(contract, cycleid, NOW, certs)
        chsig = insurer.ack_certificates(
            contract.customer, cycleid, NOW, crypto.sign(keypair, payload), NOW
        )
        assert crypto.chameleon_verify(
            insurer.keypair.public, chameleon.public, payload, chsig,
            context=chameleon_context(contract.customer, "Certificates"),
        )

    def test_stale_timestamp_rejected(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        cycleid, _, _, certs = insurer.begin_cycle(contract.customer, b"", NOW)
        stale = NOW - 301
        payload = _ack_payload(contract, cycleid, stale, certs)
        with pytest.raises(RecencyError):
            insurer.ack_certificates(
                contract.customer, cycleid, stale, crypto.sign(keypair, payload), NOW
            )

    def test_bad_signature_rejected(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        cycleid = insurer.begin_cycle(contract.customer, b"", NOW)[0]
        with pytest.raises(SignatureInvalid):
            insurer.ack_certificates(contract.customer, cycleid, NOW, b"junk", NOW)

    def test_unknown_cycleid_rejected(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        insurer.begin_cycle(contract.customer, b"", NOW)
        with pytest.raises(SequencingError):
            insurer.ack_certificates(contract.customer, b"\xff" * 32, NOW, b"sig", NOW)

    def test_cross_customer_replay_rejected(self, insurer):
        """A signature issued by one customer never acks another's cycle."""
        rng_a, rng_b = RandomSource(21), RandomSource(22)
        kp_a, _, req_a = _registration(rng_a)
        kp_b, _, req_b = _registration(rng_b)
        alice = insurer.register(req_a, NOW)
        bob = insurer.register(req_b, NOW)
        cid_a, _, _, certs_a = insurer.begin_cycle(alice.customer, b"", NOW)
        cid_b, _, _, certs_b = insurer.begin_cycle(bob.customer, b"", NOW)
        sig_alice = crypto.sign(kp_a, _ack_payload(alice, cid_a, NOW, certs_a))
        with pytest.raises(SignatureInvalid):
            insurer.ack_certificates(bob.customer, cid_b, NOW, sig_alice, NOW)


class TestAcceptVouchers:
    def test_boundary_covered(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        _, covered = _run_cycle(
            insurer, keypair, contract, NOW, t_prime=NOW + contract.delta_t
        )
        assert covered is True

    def test_boundary_plus_one_uncovered_but_accepted(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        sig, covered = _run_cycle(
            insurer, keypair, contract, NOW, t_prime=NOW + contract.delta_t + 1
        )
        assert covered is False
        assert sig is not None  # the cycle still closed

    def test_wrong_cycleid_rejected(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        cycleid, _, _, certs = insurer.begin_cycle(contract.customer, b"", NOW)
        payload = _ack_payload(contract, cycleid, NOW, certs)
        insurer.ack_certificates(
            contract.customer, cycleid, NOW, crypto.sign(keypair, payload), NOW
        )
        with pytest.raises(SequencingError):
            insurer.accept_vouchers(
                contract.customer, b"\xee" * 32, NOW, b"\x00" * 32, b"sig", NOW
            )


class TestUpdateCertList:
    def test_add_one(self, insurer):
        insurer.update_cert_list([b"cert-new"], [])
        assert len(insurer.certs) == 4

    def test_remove_restores(self, insurer):
        insurer.update_cert_list([b"cert-new"], [])
        insurer.update_cert_list([], [b"cert-new"])
        assert insurer.certs == CERTS

    def test_remove_nonmember_rejected(self, insurer):
        with pytest.raises(NotFoundError):
            insurer.update_cert_list([], [b"never-there"])

    def test_cycles_pin_their_snapshot(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        cycleid1, _, _, certs1 = insurer.begin_cycle(contract.customer, b"", NOW)
        insurer.update_cert_list([b"cert-new"], [])
        # the open cycle still acks against its own snapshot
        payload = _ack_payload(contract, cycleid1, NOW, certs1)
        insurer.ack_certificates(
            contract.customer, cycleid1, NOW, crypto.sign(keypair, payload), NOW
        )
        submit = wire.encode_signed_payload(
            "Vouchers", contract.customer, cycleid1, NOW, b"\x00" * 32
        )
        insurer.accept_vouchers(
            contract.customer, cycleid1, NOW, b"\x00" * 32,
            crypto.sign(keypair, submit), NOW,
        )
        certs2 = insurer.begin_cycle(contract.customer, b"", NOW)[3]
        assert certs2 == CERTS + [b"cert-new"]


class TestDeltaDownload:
    def _close(self, insurer, keypair, contract, cycleid, certs, t):
        payload = _ack_payload(contract, cycleid, t, certs)
        insurer.ack_certificates(
            contract.customer, cycleid, t, crypto.sign(keypair, payload), t
        )
        submit = wire.encode_signed_payload(
            "Vouchers", contract.customer, cycleid, t, b"\x00" * 32
        )
        insurer.accept_vouchers(
            contract.customer, cycleid, t, b"\x00" * 32, crypto.sign(keypair, submit), t
        )
        return wire.cert_list_digest(certs)

    def test_delta_from_the_held_list(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        cycleid, base, removed, certs = insurer.begin_cycle(contract.customer, b"", NOW)
        held = self._close(insurer, keypair, contract, cycleid, certs, NOW)
        insurer.update_cert_list([b"cert-delta"], [b"cert-beta"])
        insurer.update_cert_list([b"cert-epsilon"], [b"cert-delta"])
        _, base, removed, appended = insurer.begin_cycle(contract.customer, held, NOW)
        assert (base, removed, appended) == (held, [1], [b"cert-epsilon"])

    def test_unknown_base_gets_the_whole_list(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        cycleid, _, _, certs = insurer.begin_cycle(contract.customer, b"", NOW)
        self._close(insurer, keypair, contract, cycleid, certs, NOW)
        insurer.update_cert_list([b"cert-delta"], [])
        _, base, removed, appended = insurer.begin_cycle(
            contract.customer, b"\x11" * 32, NOW
        )
        assert (base, removed, appended) == (b"", [], CERTS + [b"cert-delta"])

    def test_held_lists_bounded_by_customers(self, insurer):
        """Through 20 churned cycles of three customers, no more list
        versions stay alive than one per customer plus the current one."""
        rng = RandomSource(13)
        customers = []
        for _ in range(3):
            keypair, _, request = _registration(rng)
            customers.append((keypair, insurer.register(request, NOW), b""))
        versions = weakref.WeakSet([insurer.listing])
        for i in range(20):
            insurer.update_cert_list([b"churn-%d" % i], [insurer.certs[i % 3]])
            versions.add(insurer.listing)
            for k, (keypair, contract, held) in enumerate(customers):
                if (i + k) % 2:
                    continue  # customers update at different times
                cycleid, _, _, _ = insurer.begin_cycle(contract.customer, held, NOW + i)
                certs = insurer.open_cycles[contract.customer].certs
                held = self._close(insurer, keypair, contract, cycleid, certs, NOW + i)
                customers[k] = (keypair, contract, held)
            gc.collect()
            assert len(versions) <= len(customers) + 1
        assert len(versions) > 1

    def test_remove_takes_the_first_listed_copy(self, insurer):
        insurer.update_cert_list([b"cert-alpha"], [])
        insurer.update_cert_list([], [b"cert-alpha", b"cert-alpha"])
        assert insurer.certs == [b"cert-beta", b"cert-gamma"]
        with pytest.raises(NotFoundError):
            insurer.update_cert_list([], [b"cert-beta", b"cert-beta"])
        with pytest.raises(ParameterError):
            insurer.update_cert_list([], [b"cert-beta", b"cert-gamma"])

    @settings(max_examples=200, deadline=None)
    @given(
        certs=st.lists(st.sampled_from([b"a", b"b", b"c"]), min_size=1, max_size=10),
        removes=st.lists(st.sampled_from([b"a", b"b", b"c", b"d"]), max_size=8),
    )
    def test_removals_match_one_index_per_removal(self, certs, removes):
        """The one-walk removal takes what list.index per removal, skipping
        positions already taken, would take, and fails where it would."""
        removed: set[int] = set()
        try:
            for cert in removes:
                pos = certs.index(cert)
                while pos in removed:
                    pos = certs.index(cert, pos + 1)
                removed.add(pos)
        except ValueError:
            removed = None
        insurer = Insurer.setup(certs, rng=RandomSource(11))
        if removed is None:
            with pytest.raises(NotFoundError):
                insurer.update_cert_list([b"added"], removes)
            assert (insurer.certs, insurer.cert_version) == (certs, 0)
        else:
            insurer.update_cert_list([b"added"], removes)
            kept = [cert for i, cert in enumerate(certs) if i not in removed]
            assert insurer.certs == kept + [b"added"]

    @pytest.mark.parametrize("tag, value, match", [
        (wire.LOG_BEGIN_CYCLE, (1, b"\x21" * 32, 5), "version 5"),
        (wire.LOG_UPDATE_CERTS, ((), [b"x"], 3), "version 3"),
        (wire.LOG_UPDATE_CERTS, ((2, 1), [], 1), "positions"),
        (wire.LOG_UPDATE_CERTS, ((3,), [], 1), "positions"),
    ])
    def test_event_inconsistent_with_the_list_is_corruption(
        self, tmp_path, tag, value, match
    ):
        log = tmp_path / "insurer.log"
        persisted = Insurer.setup(CERTS, rng=RandomSource(11), log_path=str(log))
        persisted.register(_registration(RandomSource(12))[2], NOW)
        persisted.close()
        offset = log.stat().st_size
        with open(log, "ab") as fh:
            fh.write(wire.frame(insurer_module._EVENTS[tag].encode(value)))
        with pytest.raises(CorruptionError, match=f"byte offset {offset}: .*{match}"):
            Insurer.load(str(log))


class TestRecordLog:
    def test_one_chameleon_hash_per_countersignature(self, enrolled, monkeypatch):
        insurer, keypair, _, contract, _ = enrolled
        calls = []
        real_hash = crypto.chameleon_hash
        monkeypatch.setattr(
            crypto, "chameleon_hash", lambda *a, **k: calls.append(1) or real_hash(*a, **k)
        )
        _run_cycle(insurer, keypair, contract, NOW + 10)
        assert len(calls) == len(insurer.records) == 2

    def test_recorded_message_found(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        _run_cycle(insurer, keypair, contract, NOW)
        record = insurer.records[-1]
        assert insurer.lookup_record(ch=record.ch) == (record.message, record.r)
        assert insurer.lookup_record(
            message_digest=crypto.hash_h(record.message)
        ) == (record.message, record.r)

    def test_never_signed_message_absent(self, insurer):
        assert insurer.lookup_record(ch=b"\x00" * 10) is None
        assert insurer.lookup_record(message_digest=b"\x00" * 32) is None

    def test_forged_collision_finds_original(self, enrolled):
        """The record log lets the judge uncover trapdoor forgeries."""
        insurer, keypair, chameleon, contract, _ = enrolled
        _run_cycle(insurer, keypair, contract, NOW)
        record = insurer.records[-1]
        forged_message = b"entirely-different-bytes"
        forged_r = crypto.find_collision(
            chameleon, record.message, record.r, forged_message
        )
        forged_ch = chameleon.params.element_bytes(
            crypto.chameleon_hash(
                chameleon.params, chameleon.y, forged_message, forged_r
            )
        )
        found = insurer.lookup_record(ch=forged_ch)
        assert found == (record.message, record.r)
        assert found[0] != forged_message

    def test_log_monotonic(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        lengths = [len(insurer.records)]
        _run_cycle(insurer, keypair, contract, NOW)
        lengths.append(len(insurer.records))
        _run_cycle(insurer, keypair, contract, NOW + 400)
        lengths.append(len(insurer.records))
        assert lengths == sorted(lengths) and lengths[-1] == 4

    def test_every_signature_has_one_record(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        _run_cycle(insurer, keypair, contract, NOW)
        assert len(insurer.records) == 2  # one ack + one submission


class TestCycleidUniqueness:
    def test_many_cycles_all_distinct(self, enrolled):
        insurer, keypair, _, contract, _ = enrolled
        seen = set()
        for i in range(500):
            cycleid = insurer.begin_cycle(contract.customer, b"", NOW + i)[0]
            assert cycleid not in seen
            seen.add(cycleid)
            certs = insurer.open_cycles[contract.customer].certs
            t = NOW + i
            payload = _ack_payload(contract, cycleid, t, certs)
            insurer.ack_certificates(
                contract.customer, cycleid, t, crypto.sign(keypair, payload), t
            )
            submit = wire.encode_signed_payload(
                "Vouchers", contract.customer, cycleid, t, b"\x00" * 32
            )
            insurer.accept_vouchers(
                contract.customer, cycleid, t, b"\x00" * 32,
                crypto.sign(keypair, submit), t,
            )


class TestEndpointSurfaces:
    """Drive the wire-level endpoints with raw frames."""

    def test_register_endpoint(self, insurer):
        _, _, request = _registration(RandomSource(31))
        response = handle_request(insurer, request.to_bytes(), NOW)
        tag, body, _ = wire.unpack(response)
        assert tag == wire.RESP_OK
        from conninsure.model import Contract

        contract = Contract.from_bytes(body)
        assert contract.customer == 1

    def test_begin_ack_submit_lookup_endpoints(self, insurer):
        keypair, chameleon, request = _registration(RandomSource(32))
        handle_request(insurer, request.to_bytes(), NOW)
        contract = insurer.contracts[1]

        begin = wire.pack(
            wire.REQ_BEGIN_CYCLE_DELTA,
            wire.pack(wire.TAG_UINT, wire.u64(1)) + wire.pack(wire.TAG_BYTES, b""),
        )
        tag, body, _ = wire.unpack(handle_request(insurer, begin, NOW))
        assert tag == wire.RESP_OK
        raw = wire.fields(body, wire.TAG_BYTES, wire.TAG_BYTES, wire.TAG_LIST, wire.TAG_LIST)
        cycleid = raw[0]
        assert raw[1] == raw[2] == b""  # from the empty list, nothing removed
        certs = wire.decode_list(raw[3])
        assert certs == CERTS

        payload = _ack_payload(contract, cycleid, NOW, certs)
        ack = wire.pack(
            wire.REQ_ACK_CERTS,
            wire.pack(wire.TAG_UINT, wire.u64(1))
            + wire.pack(wire.TAG_BYTES, cycleid)
            + wire.pack(wire.TAG_UINT, wire.u64(NOW))
            + wire.pack(wire.TAG_BYTES, crypto.sign(keypair, payload)),
        )
        tag, body, _ = wire.unpack(handle_request(insurer, ack, NOW))
        assert tag == wire.RESP_OK
        chsig = wire.CHAMELEON_SIGNATURE.decode(body)
        assert crypto.chameleon_verify(
            insurer.keypair.public, chameleon.public, payload, chsig
        )

        root = b"\x07" * 32
        submit_payload = wire.encode_signed_payload("Vouchers", 1, cycleid, NOW, root)
        submit = wire.pack(
            wire.REQ_SUBMIT_VOUCHERS,
            wire.pack(wire.TAG_UINT, wire.u64(1))
            + wire.pack(wire.TAG_BYTES, cycleid)
            + wire.pack(wire.TAG_UINT, wire.u64(NOW))
            + wire.pack(wire.TAG_BYTES, root)
            + wire.pack(wire.TAG_BYTES, crypto.sign(keypair, submit_payload)),
        )
        tag, body, _ = wire.unpack(handle_request(insurer, submit, NOW))
        assert tag == wire.RESP_OK
        raw = wire.fields(body, wire.TAG_CHAMELEON_SIG, wire.TAG_UINT)
        assert wire.decode_u64(raw[1]) == 1  # covered

        record = insurer.records[-1]
        lookup = wire.pack(
            wire.REQ_LOOKUP_RECORD,
            wire.pack(wire.TAG_UINT, wire.u64(0)) + wire.pack(wire.TAG_BYTES, record.ch),
        )
        tag, body, _ = wire.unpack(handle_request(insurer, lookup, NOW))
        assert tag == wire.RESP_OK
        raw = wire.fields(body, wire.TAG_UINT, wire.TAG_BYTES, wire.TAG_INT)
        assert wire.decode_u64(raw[0]) == 1
        assert raw[1] == record.message

    def test_error_response_carries_code(self, insurer):
        begin = BEGIN_CYCLE_REQUEST.encode((999, b""))
        tag, body, _ = wire.unpack(handle_request(insurer, begin, NOW))
        assert tag == wire.RESP_ERR
        raw = wire.fields(body, wire.TAG_UINT, wire.TAG_TEXT)
        from conninsure.insurer import ERR_NOT_FOUND

        assert wire.decode_u64(raw[0]) == ERR_NOT_FOUND

    def test_unknown_endpoint_is_encoding_error(self, insurer):
        bogus = wire.pack(0x7F, b"")
        tag, body, _ = wire.unpack(handle_request(insurer, bogus, NOW))
        assert tag == wire.RESP_ERR


# The insurer's five state changes, in protocol order.
OPERATIONS = (
    "register", "begin_cycle", "ack_certificates", "accept_vouchers", "update_cert_list"
)

# Ways a log append can fail: which call, and what it does instead.
APPEND_FAULTS = {
    "write-raises": ("write", io_error),
    "write-torn": ("write", torn_write),
    "write-short": ("write", short_write),
    "fsync-raises": ("fsync", io_error),
}


def _error_code(response: bytes) -> int | None:
    tag, body, _ = wire.unpack(response)
    return ERROR_RESPONSE.decode_body(body)[0] if tag == wire.RESP_ERR else None


def _operate(insurer, customer: dict, name: str) -> int | None:
    """Run one state change for customer 1 through its endpoint (the list
    update is an operator call) and return the error code, None on success."""
    if name == "update_cert_list":
        insurer.update_cert_list([b"cert-delta"], [])
        return None
    if name == "register":
        request = customer["request"].to_bytes()
    elif name == "begin_cycle":
        request = BEGIN_CYCLE_REQUEST.encode((1, b""))
    elif name == "ack_certificates":
        payload = wire.encode_signed_payload(
            "Certificates", 1, customer["cycleid"], NOW,
            wire.cert_list_digest(customer["certs"]),
        )
        request = ACK_CERTS_REQUEST.encode(
            (1, customer["cycleid"], NOW, crypto.sign(customer["keypair"], payload))
        )
    else:
        root = b"\x07" * 32
        payload = wire.encode_signed_payload("Vouchers", 1, customer["cycleid"], NOW, root)
        request = SUBMIT_VOUCHERS_REQUEST.encode(
            (1, customer["cycleid"], NOW, root, crypto.sign(customer["keypair"], payload))
        )
    response = handle_request(insurer, request, NOW)
    code = _error_code(response)
    if name == "begin_cycle" and code is None:
        customer["cycleid"], _, _, customer["certs"] = BEGIN_CYCLE_RESPONSE.decode(response)
    return code


def _reloaded_snapshot(log: str) -> bytes:
    reloaded = Insurer.load(log)
    reloaded.close()
    return reloaded.snapshot_bytes()


def _fail_second_fsync(monkeypatch) -> None:
    """Make the second os.fsync from now on raise an injected I/O error."""
    synced = []
    real_fsync = insurer_module.os.fsync

    def fsync(fd):
        synced.append(fd)
        if len(synced) == 2:
            io_error(real_fsync, fd)
        real_fsync(fd)

    monkeypatch.setattr(insurer_module.os, "fsync", fsync)


def _single_and_reloaded_logs(tmp_path, certs, updates) -> tuple[bytes, bytes]:
    """The log of one insurer making the list updates, and that of one
    reloaded from its log before each update."""
    single, reloaded = tmp_path / "single.log", tmp_path / "reloaded.log"
    insurer = Insurer.setup(certs, rng=RandomSource(11), log_path=str(single))
    for adds, removes in updates:
        insurer.update_cert_list(adds, removes)
    insurer.close()
    Insurer.setup(certs, rng=RandomSource(11), log_path=str(reloaded)).close()
    for adds, removes in updates:
        insurer = Insurer.load(str(reloaded))
        insurer.update_cert_list(adds, removes)
        insurer.close()
    return single.read_bytes(), reloaded.read_bytes()


def _assert_snapshots_follow_the_rule(frames: list[bytes]) -> None:
    """A snapshot follows exactly the events after which the frames since
    the last SETUP or SNAPSHOT are SNAPSHOT_INTERVAL events (a SETUP
    counting itself) and at least as many payload bytes as it."""
    due = False
    for payload in frames:
        if payload[0] in (wire.LOG_SETUP, wire.LOG_SNAPSHOT):
            assert due is (payload[0] == wire.LOG_SNAPSHOT)
            events, size, since = int(payload[0] == wire.LOG_SETUP), len(payload), 0
        else:
            assert not due
            events, since = events + 1, since + len(payload)
        due = events >= insurer_module.SNAPSHOT_INTERVAL and since >= size
    assert not due


class TestLogFaults:
    """A failed log append leaves memory equal to what the log replays to."""

    @pytest.mark.parametrize("fault", sorted(APPEND_FAULTS))
    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_failed_append_changes_nothing(self, tmp_path, monkeypatch, operation, fault):
        log = str(tmp_path / "insurer.log")
        insurer = Insurer.setup(CERTS, rng=RandomSource(11), log_path=log)
        keypair, _, request = _registration(RandomSource(12))
        customer = {"keypair": keypair, "request": request}
        for name in OPERATIONS[: OPERATIONS.index(operation)]:
            assert _operate(insurer, customer, name) is None
        before = insurer.snapshot_bytes()

        call, action = APPEND_FAULTS[fault]
        if call == "write":
            fail_write(monkeypatch, action)
        else:
            fail_once(monkeypatch, wire.os, "fsync", action)
        if operation == "update_cert_list":
            with pytest.raises(OSError):
                _operate(insurer, customer, operation)
        else:
            assert _operate(insurer, customer, operation) == ERR_INTERNAL
        assert insurer.snapshot_bytes() == before
        assert _reloaded_snapshot(log) == before

        assert _operate(insurer, customer, operation) is None
        assert insurer.snapshot_bytes() != before
        assert _reloaded_snapshot(log) == insurer.snapshot_bytes()
        insurer.close()

    def test_failed_cut_refuses_later_changes(self, tmp_path, monkeypatch):
        """If the torn append cannot be cut off either, the insurer takes no
        further event; a restart drops the torn frame."""
        log = str(tmp_path / "insurer.log")
        insurer = Insurer.setup(CERTS, rng=RandomSource(11), log_path=log)
        before = insurer.snapshot_bytes()
        fail_write(monkeypatch, torn_write)
        fail_once(monkeypatch, wire.os, "ftruncate", io_error)
        with pytest.raises(CorruptionError, match="could not be cut off"):
            insurer.update_cert_list([b"cert-delta"], [])
        with pytest.raises(CorruptionError, match="restart"):
            insurer.update_cert_list([b"cert-delta"], [])
        assert insurer.snapshot_bytes() == before
        insurer.close()

        with pytest.warns(RuntimeWarning, match="partial frame"):
            reloaded = Insurer.load(log)
        assert reloaded.snapshot_bytes() == before
        assert reloaded.update_cert_list([b"cert-delta"], []) == 1
        reloaded.close()

    def test_reload_counts_the_tail_toward_the_next_snapshot(self, tmp_path, monkeypatch):
        """A log driven with a reload before every event, as the CLI drives
        it, takes its snapshots where a log driven by one process does: a
        reloaded insurer snapshots after SNAPSHOT_INTERVAL - tail events."""
        monkeypatch.setattr(insurer_module, "SNAPSHOT_INTERVAL", 3)
        # Each update swaps one large certificate for the next, so the
        # snapshot stays the same size, any two events outweigh it, and the
        # event count alone decides.
        big = [bytes([i]) * 300 for i in range(9)]
        updates = [([big[i + 1]], [big[i]]) for i in range(8)]
        certs = CERTS + big[:1]
        single, reloaded = _single_and_reloaded_logs(tmp_path, certs, updates)
        tags = [payload[0] for payload in wire.iter_frames(single)]
        assert tags.count(wire.LOG_SNAPSHOT) == 3
        assert reloaded == single

    def test_reload_keeps_the_byte_count_toward_the_next_snapshot(
        self, tmp_path, monkeypatch
    ):
        """Where the bytes decide, a log driven through reloads still takes
        its snapshots where one driven by a single process does."""
        monkeypatch.setattr(insurer_module, "SNAPSHOT_INTERVAL", 1)
        updates = [([b"cert-%d" % i], []) for i in range(30)]
        single, reloaded = _single_and_reloaded_logs(tmp_path, CERTS, updates)
        frames = list(wire.iter_frames(single))
        snapshots = [payload for payload in frames if payload[0] == wire.LOG_SNAPSHOT]
        assert 2 <= len(snapshots) < len(updates) // 4
        _assert_snapshots_follow_the_rule(frames)
        assert reloaded == single

    def test_snapshots_cost_no_more_than_the_events(self, tmp_path, monkeypatch):
        """The events since a snapshot pay for it: over a log of 1 000
        events, SETUP and snapshots together are at most the event bytes
        plus the latest of them, so the log grows linearly."""
        monkeypatch.setattr(insurer_module, "SNAPSHOT_INTERVAL", 8)
        log = tmp_path / "insurer.log"
        insurer = Insurer.setup(CERTS, rng=RandomSource(11), log_path=str(log))
        rng = RandomSource(12)
        customers = []
        for _ in range(4):
            keypair, _, request = _registration(rng)
            customers.append((keypair, insurer.register(request, NOW)))
        for i in range(332):
            keypair, contract = customers[i % len(customers)]
            _run_cycle(insurer, keypair, contract, NOW + i)
        insurer.close()
        frames = list(wire.iter_frames(log.read_bytes()))
        checkpoints = [p for p in frames if p[0] in (wire.LOG_SETUP, wire.LOG_SNAPSHOT)]
        events = [p for p in frames if p[0] not in (wire.LOG_SETUP, wire.LOG_SNAPSHOT)]
        assert len(events) >= 1000 and len(checkpoints) >= 4
        _assert_snapshots_follow_the_rule(frames)
        assert sum(map(len, checkpoints)) <= sum(map(len, events)) + len(checkpoints[-1])
        assert _reloaded_snapshot(str(log)) == insurer.snapshot_bytes()

    def test_failed_snapshot_keeps_its_event(self, tmp_path, monkeypatch):
        """The periodic snapshot is appended after its event is applied; if
        it fails, the operation still succeeds and the next event appends
        the snapshot."""
        monkeypatch.setattr(insurer_module, "SNAPSHOT_INTERVAL", 2)
        log = tmp_path / "insurer.log"
        insurer = Insurer.setup(CERTS, rng=RandomSource(11), log_path=str(log))
        _fail_second_fsync(monkeypatch)  # the first is the event's
        # A certificate large enough that its event outweighs the SETUP.
        assert insurer.update_cert_list([b"cert-delta" * 25], []) == 1
        assert _reloaded_snapshot(str(log)) == insurer.snapshot_bytes()
        insurer.update_cert_list([b"cert-epsilon"], [])
        insurer.close()
        tags = [payload[0] for payload in wire.iter_frames(log.read_bytes())]
        assert tags == [
            wire.LOG_SETUP, wire.LOG_UPDATE_CERTS, wire.LOG_UPDATE_CERTS, wire.LOG_SNAPSHOT
        ]
        assert _reloaded_snapshot(str(log)) == insurer.snapshot_bytes()

    @pytest.mark.parametrize("reload", [False, True], ids=["live", "reloaded"])
    def test_failed_snapshot_keeps_its_byte_count(self, tmp_path, monkeypatch, reload):
        """After a failed snapshot append the bytes since the SETUP still
        count, in memory and as a reload restores them: the next event,
        however small, retries the snapshot."""
        monkeypatch.setattr(insurer_module, "SNAPSHOT_INTERVAL", 1)
        log = tmp_path / "insurer.log"
        insurer = Insurer.setup(CERTS, rng=RandomSource(11), log_path=str(log))
        _fail_second_fsync(monkeypatch)
        insurer.update_cert_list([b"cert-delta" * 25], [])
        if reload:
            insurer.close()
            insurer = Insurer.load(str(log))
        insurer.update_cert_list([b"cert-epsilon"], [])
        insurer.close()
        tags = [payload[0] for payload in wire.iter_frames(log.read_bytes())]
        assert tags == [
            wire.LOG_SETUP, wire.LOG_UPDATE_CERTS, wire.LOG_UPDATE_CERTS, wire.LOG_SNAPSHOT
        ]
        assert _reloaded_snapshot(str(log)) == insurer.snapshot_bytes()
