"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).  Tolerances are pinned
here and nowhere else."""

import functools
import time

from conninsure import crypto, judge, merkle, tlssim, wire
from conninsure.bench import bench_chameleon
from conninsure.client import ClientState
from conninsure.estimator import (
    cert_storage_bytes,
    customer_voucher_storage_bytes,
    insurer_voucher_storage_bytes,
)
from conninsure.insurer import Insurer, RegistrationRequest
from conninsure.judge import Ruling, Verdict
from conninsure.model import (
    Claim,
    Voucher,
    chameleon_context,
    registration_context,
)
from conninsure.rand import RandomSource
from conninsure.scenario import SimClock, run_scenario
from conninsure.transport import InProcessChannel
from claim_mutations import claim_mutations
from support import load_hex_fixture


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:02d} FAIL: {title}")
                raise
            print(f"[acceptance] criterion {number:02d} PASS: {title}")

        return wrapper

    return decorate


@criterion(1, "end-to-end insurance case with mutation soundness, < 30 s")
def test_01_end_to_end_insurance_case():
    started = time.perf_counter()
    report = run_scenario("mitm", cycles=5, domains=20, seed=1, rogue_cycle=3)
    assert report.verdict == "ACCEPT"

    claim = Claim.from_bytes(report.claim_bytes)
    assert judge.verify_claim(claim, report.insurer_public, True) is Verdict.ACCEPT
    mutated = 0
    for name, expected, bad in claim_mutations(claim):
        reparsed = Claim.from_bytes(bad.to_bytes())
        verdict = judge.verify_claim(reparsed, report.insurer_public, True)
        assert verdict is expected, f"mutation {name}: {verdict} != {expected}"
        mutated += 1
    assert mutated >= 12
    assert time.perf_counter() - started < 30


@criterion(2, "update-interval boundary: delta_t accepts, delta_t+1 is late")
def test_02_three_part_proof_boundary():
    # submissions land exactly at t + delta_t -> boundary-inclusive ACCEPT
    on_time = run_scenario("mitm", cycles=3, domains=4, seed=2, rogue_cycle=2)
    claim = Claim.from_bytes(on_time.claim_bytes)
    assert claim.t_prime - claim.t == claim.contract.delta_t
    assert judge.verify_claim(claim, on_time.insurer_public, True) is Verdict.ACCEPT

    late = run_scenario(
        "mitm", cycles=3, domains=4, seed=2, rogue_cycle=2, late_cycle=2
    )
    late_claim = Claim.from_bytes(late.claim_bytes)
    assert late_claim.t_prime - late_claim.t == late_claim.contract.delta_t + 1
    assert (
        judge.verify_claim(late_claim, late.insurer_public, True)
        is Verdict.UPDATE_LATE
    )


def _insured_world(seed=3):
    """Insurer with one enrolled customer on the production group."""
    rng = RandomSource(seed)
    clock = SimClock()
    insurer = Insurer.setup([b"cert-a", b"cert-b"], rng=rng)
    keypair = crypto.generate_sig_keypair(rng=rng)
    chameleon = crypto.generate_chameleon_keypair(crypto.GROUP_2048_256, rng)
    proof = crypto.prove_trapdoor(
        chameleon, registration_context(keypair.public), rng
    )
    contract = insurer.register(
        RegistrationRequest(keypair.public, chameleon.public, proof, 86_400),
        clock.now,
    )
    return insurer, keypair, chameleon, contract, clock, rng


def _run_full_cycle(insurer, keypair, contract, t, root=b"\x00" * 32):
    cycleid, _, _, certs = insurer.begin_cycle(contract.customer, b"", t)
    payload = wire.encode_signed_payload(
        "Certificates", contract.customer, cycleid, t, wire.cert_list_digest(certs)
    )
    chsig = insurer.ack_certificates(
        contract.customer, cycleid, t, crypto.sign(keypair, payload), t
    )
    submit_payload = wire.encode_signed_payload(
        "Vouchers", contract.customer, cycleid, t, root
    )
    insurer.accept_vouchers(
        contract.customer, cycleid, t, root, crypto.sign(keypair, submit_payload), t
    )
    return cycleid, payload, chsig


@criterion(3, "reselling protection: trapdoor forges an accepting signature < 1 s")
def test_03_reselling_protection():
    insurer, keypair, chameleon, contract, clock, rng = _insured_world()
    _, payload, chsig = _run_full_cycle(insurer, keypair, contract, clock.now)

    started = time.perf_counter()
    substitute_digest = wire.cert_list_digest([b"attacker-cert-1", b"attacker-cert-2"])
    label, customer, cycleid, t, _ = wire.decode_signed_payload(payload)
    forged_payload = wire.encode_signed_payload(
        label, customer, cycleid, t, substitute_digest
    )
    forged_r = crypto.find_collision(chameleon, payload, chsig.r, forged_payload)
    forged = crypto.ChameleonSignature(forged_r, chsig.inner_sig, chsig.context)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    # identical verification path: same chameleon hash, same inner bytes
    assert crypto.chameleon_hash(
        chameleon.params, chameleon.y, forged_payload, forged_r
    ) == crypto.chameleon_hash(chameleon.params, chameleon.y, payload, chsig.r)
    context = chameleon_context(contract.customer, "Certificates")
    assert crypto.chameleon_verify(
        insurer.keypair.public, chameleon.public, forged_payload, forged,
        context=context,
    )
    assert crypto.chameleon_verify(
        insurer.keypair.public, chameleon.public, payload, chsig, context=context
    )


@criterion(4, "denial resolution uncovers the criterion-3 forgery")
def test_04_denial_resolution():
    insurer, keypair, chameleon, contract, clock, rng = _insured_world()
    _, payload, chsig = _run_full_cycle(insurer, keypair, contract, clock.now)
    forged_payload = wire.encode_signed_payload(
        "Certificates", contract.customer, wire.decode_signed_payload(payload)[2],
        clock.now, wire.cert_list_digest([b"attacker-cert"]),
    )
    forged_r = crypto.find_collision(chameleon, payload, chsig.r, forged_payload)
    forged = crypto.ChameleonSignature(forged_r, chsig.inner_sig, chsig.context)

    disputed_ch = chameleon.params.element_bytes(
        crypto.chameleon_hash(chameleon.params, chameleon.y, forged_payload, forged_r)
    )
    record = insurer.lookup_record(ch=disputed_ch)
    assert record is not None and record[0] == payload
    ruling = judge.resolve_denial(
        insurer.keypair.public, chameleon.public, forged_payload, forged, record
    )
    assert ruling is Ruling.CUSTOMER_FORGED

    # the honest signature still binds the insurer
    honest_record = insurer.lookup_record(
        ch=chameleon.params.element_bytes(
            crypto.chameleon_hash(chameleon.params, chameleon.y, payload, chsig.r)
        )
    )
    assert judge.resolve_denial(
        insurer.keypair.public, chameleon.public, payload, chsig, honest_record
    ) is Ruling.INSURER_BOUND


@criterion(5, "chameleon toy vectors: CH=1, collision r'=5, exact")
def test_05_chameleon_toy_vectors():
    kp = crypto.ChameleonKeyPair(crypto.TOY_GROUP, 3, 18)
    assert pow(4, 3, 23) == 18

    m5, m7 = None, None
    i = 0
    while m5 is None or m7 is None:
        m = b"toy-%d" % i
        e = crypto.message_exponent(crypto.TOY_GROUP, m)
        if e == 5 and m5 is None:
            m5 = m
        if e == 7 and m7 is None:
            m7 = m
        i += 1

    ch = crypto.chameleon_hash(crypto.TOY_GROUP, 18, m5, 2)
    assert ch == 1 == pow(4, 5, 23) * pow(18, 2, 23) % 23
    r_prime = crypto.find_collision(kp, m5, 2, m7)
    assert r_prime == 5
    assert crypto.chameleon_hash(crypto.TOY_GROUP, 18, m7, 5) == 1
    assert pow(4, 7, 23) * pow(18, 5, 23) % 23 == 1


@criterion(6, "merkle equivalence with the naive oracle for N in 1..64")
def test_06_merkle_oracle_equivalence():
    from test_merkle import _oracle_leaves, _oracle_root

    rng = RandomSource(6)
    cycleid = bytes(range(32))
    for n in range(1, 65):
        count = rng.below(n + 1)
        vouchers = [
            Voucher(7, f"d{i:03d}.example.org", cycleid, rng.bytes(32))
            for i in range(count)
        ]
        seed = rng.bytes(32)
        tree = merkle.build_dense_tree(vouchers, n, seed, 7, cycleid)
        assert len(tree.leaves) == n, f"N={n}: leaf count {len(tree.leaves)}"
        assert tree.root == _oracle_root(_oracle_leaves(vouchers, n, seed)), f"N={n}"
        for v in vouchers:
            proof = merkle.prove_inclusion(tree, v)
            assert merkle.verify_inclusion(tree.root, merkle.leaf_digest(v), proof)


@criterion(7, "rollback fidelity across 10 cycles of churn")
def test_07_rollback_fidelity():
    rng = RandomSource(7)
    clock = SimClock()
    domains = [f"d{i:03d}.example.org" for i in range(6)]
    servers = {d: tlssim.SimServer.create(d, rng=rng, now=clock.now) for d in domains}
    insurer = Insurer.setup([servers[d].presented_cert for d in domains], rng=rng)
    channel = InProcessChannel(insurer, now_fn=clock)
    client = ClientState.register(channel, 86_400, rng=rng)

    closed = []
    for i in range(10):
        record = client.do_update_cycle(channel, now=clock.now)
        closed.append(record)
        client.submit_cycle(channel, now=clock.advance(3600), rng=rng)
        insurer.update_cert_list(
            adds=[b"churn-%d" % i], removes=[insurer.certs[0]] if i % 3 else []
        )

    for record in closed:
        rebuilt = client.reconstruct_list(record.cycle_index)
        digest = wire.cert_list_digest(rebuilt)
        assert digest == record.cert_digest
        # the digest is bound inside the cycle's chameleon countersignature
        payload = wire.encode_signed_payload(
            "Certificates", client.customer, record.cycleid, record.t, digest
        )
        assert crypto.chameleon_verify(
            insurer.keypair.public, client.chameleon_kp.public, payload,
            record.chsig_certs,
            context=chameleon_context(client.customer, "Certificates"),
        )


@criterion(8, "storage estimator reproduces the published arithmetic")
def test_08_storage_estimator():
    cert = cert_storage_bytes(500_000, 1_900, 90)
    assert abs(cert - 2.9e9) <= 0.02 * 2.9e9
    assert round(cert / 2**30, 2) == 2.70

    ins = insurer_voucher_storage_bytes(512, 24, 44_000_000)
    assert ins == 197_345_280_000_000
    assert abs(ins - 1.973e14) <= 0.01 * 1.973e14
    assert round(ins / 2**40, 1) == 179.5

    low = customer_voucher_storage_bytes(1_000)
    printed = customer_voucher_storage_bytes(2_500)
    assert low == 621_621_280 and round(low / 2**30, 2) == 0.58
    assert printed == 1_552_371_280 and round(printed / 2**30, 2) == 1.45


@criterion(9, "chameleon sign/verify means <= 5 ms at production size, < 60 s")
def test_09_performance_anchor():
    started = time.perf_counter()
    report = bench_chameleon(iterations=1000, rng=RandomSource(9))
    elapsed = time.perf_counter() - started
    assert report.all_verified
    assert report.mean_sign_ms <= 5.0, f"sign mean {report.mean_sign_ms:.3f} ms"
    assert report.mean_verify_ms <= 5.0, f"verify mean {report.mean_verify_ms:.3f} ms"
    assert elapsed < 60


@criterion(10, "TLS signed_params layout matches the golden file bit-exactly")
def test_10_tls_layout_known_answer():
    golden = load_hex_fixture("signed_params_golden.hex")
    blob = tlssim.signed_params_bytes(
        bytes(range(32)),
        bytes(range(32, 64)),
        tlssim.encode_server_dh_params(23, 4, 18),
    )
    assert blob == golden

    voucher = Voucher(7, "bob.example.org", bytes(range(32)), b"\x55" * 32)
    client_random = tlssim.client_hello(voucher, 1_700_000_000)
    assert client_random[4:] == crypto.hash_h28(voucher.to_bytes())

    rng = RandomSource(10)
    server = tlssim.SimServer.create("bob.example.org", rng=rng, now=0)
    transcript = server.handshake(client_random, 0, rng)
    assert tlssim.signed_params_bytes(
        transcript.client_random, transcript.server_random,
        transcript.server_dh_params,
    ) == transcript.client_random + transcript.server_random + transcript.server_dh_params


@criterion(11, "property suite: uniqueness, one-per-domain, injectivity, evidence")
def test_11_property_suite():
    # cycleid uniqueness across 10^4 full cycles (toy group keeps this fast)
    rng = RandomSource(11)
    insurer = Insurer.setup([b"cert-a"], rng=rng)
    keypair = crypto.generate_sig_keypair(rng=rng)
    chameleon = crypto.generate_chameleon_keypair(crypto.TOY_GROUP, rng)
    proof = crypto.prove_trapdoor(chameleon, registration_context(keypair.public), rng)
    contract = insurer.register(
        RegistrationRequest(keypair.public, chameleon.public, proof, 86_400),
        1_700_000_000,
    )
    seen = set()
    for i in range(10_000):
        cycleid, _, _ = _run_full_cycle(
            insurer, keypair, contract, 1_700_000_000 + i
        )
        seen.add(cycleid)
    assert len(seen) == 10_000

    # one voucher per domain per cycle
    world_rng = RandomSource(12)
    clock = SimClock()
    server = tlssim.SimServer.create("bob.example.org", rng=world_rng, now=clock.now)
    insurer2 = Insurer.setup([server.presented_cert], rng=world_rng)
    channel = InProcessChannel(insurer2, now_fn=clock)
    client = ClientState.register(channel, 86_400, rng=world_rng,
                                  group=crypto.TOY_GROUP)
    client.do_update_cycle(channel, now=clock.now)
    first = client.browse("bob.example.org", server, clock.now, world_rng)
    again = client.browse("bob.example.org", server, clock.now + 5, world_rng)
    assert first.status == "vouched" and again.status == "reused"
    assert len(client.open_cycle.evidences) == 1

    # encoding round-trip injectivity over 10^3 random tuples
    enc_rng = RandomSource(13)
    encodings = set()
    for _ in range(1000):
        tup = (
            "Certificates" if enc_rng.below(2) else "Vouchers",
            enc_rng.below(2**64),
            enc_rng.bytes(32),
            enc_rng.below(2**64),
            enc_rng.bytes(32),
        )
        encoded = wire.encode_signed_payload(*tup)
        assert wire.decode_signed_payload(encoded) == tup
        encodings.add(encoded)
    assert len(encodings) == 1000

    # the evidence store never holds an invalid server signature
    record = client.submit_cycle(channel, now=clock.advance(3600), rng=world_rng)
    for evidence in record.evidences.values():
        tlssim.validate_evidence(evidence)
    import pytest as _pytest

    from conninsure.errors import EvidenceError

    bad_transcript = server.handshake(
        tlssim.client_hello(
            Voucher(client.customer, "bob.example.org", record.cycleid, b"\x01" * 32),
            clock.now,
        ),
        clock.now,
        world_rng,
    )
    with _pytest.raises(EvidenceError):
        tlssim.extract_evidence(
            bad_transcript,
            Voucher(client.customer, "bob.example.org", record.cycleid, b"\x02" * 32),
            server.presented_cert,
        )
