"""Tests of the benchmark's own arithmetic and input generation.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import os

import checkout
import inputs
import layers
import run
import spans
import stats
from conninsure import crypto, model, client, wire
from conninsure.client import ClientState
from conninsure.insurer import Insurer
from conninsure.transport import InProcessChannel


def test_median_is_always_reported_with_its_count():
    report = stats.Report()
    report.latency("op", [0.001, 0.003, 0.002])
    assert report.metrics["op_p50_ms"].value == 2.0
    assert report.metrics["op_p50_ms"].n == 3
    assert "n=3" in report.metrics["op_p50_ms"].line()
    assert "op_p90_ms" not in report.metrics


def test_p90_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(99)), 90) is None
    samples = list(range(1, 101))
    assert stats.percentile(samples, 90) == 90
    assert sum(1 for s in samples if s > 90) == 10
    assert stats.percentile([], 50) is None


def _span(sid, parent, start, end, name="x"):
    return spans.Span(sid, parent, 1, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),    # overlaps span 2: covered once
        _span(4, 1, 8.0, 12.0),   # runs past its parent: clipped at 10
        _span(5, 2, 1.5, 2.5),    # grandchild: counts against span 2 only
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == 10.0 - (4.0 + 2.0)
    assert selfs[2] == 2.0 - 1.0
    assert selfs[3] == 3.0
    assert selfs[5] == 1.0


def test_recorder_nests_spans_and_restores_patches():
    original = model.compute_rollback
    recorder = spans.Recorder()
    recorder.patch(model, "compute_rollback", "model.compute_rollback")
    recorder.patch(crypto, "hash_h", "crypto.hash_h")
    assert client.compute_rollback is not original  # the name client imported
    model.compute_rollback([b"a"], [b"b"], 2)
    recorder.uninstall()
    assert model.compute_rollback is original and client.compute_rollback is original

    outer = [s for s in recorder.spans if s.name == "model.compute_rollback"]
    inner = [s for s in recorder.spans if s.name == "crypto.hash_h"]
    assert len(outer) == 1 and len(inner) == 2
    assert all(s.parent == outer[0].id and s.root == outer[0].id for s in inner)
    totals = spans.summarise(recorder.spans)
    assert totals["crypto.hash_h"].calls == 2
    assert abs(totals["model.compute_rollback"].self_s
               - (outer[0].duration - sum(s.duration for s in inner))) < 1e-9


def test_harness_crypto_is_left_out_of_crypto_metrics():
    tree = [
        spans.Span(1, None, 1, "tlssim.handshake", 0.0, 4.0),
        spans.Span(2, 1, 1, "crypto.modexp", 0.0, 3.0),
        spans.Span(3, None, 3, "crypto.modexp", 5.0, 6.0),
    ]
    totals = spans.summarise(tree, layers.HARNESS_SPAN)
    assert totals["crypto.modexp"].calls == 1
    assert totals["tlssim.handshake"].duration_s == 4.0


def test_same_seed_same_inputs():
    real = [b"real-cert-1", b"real-cert-2"]
    first = inputs.mixed_list(7, real, 200)
    assert wire.cert_list_digest(first) == wire.cert_list_digest(inputs.mixed_list(7, real, 200))
    assert wire.cert_list_digest(first) != wire.cert_list_digest(inputs.mixed_list(8, real, 200))
    assert len(first) == 200 and set(real) <= set(first)
    assert all(len(c) == inputs.FILLER_BYTES for c in first if c not in real)

    certs = [s.presented_cert for s in inputs.servers(7, "t", 3)]
    assert certs == [s.presented_cert for s in inputs.servers(7, "t", 3)]
    assert certs != [s.presented_cert for s in inputs.servers(8, "t", 3)]


def test_same_seed_same_customer_keys():
    def customer(seed):
        insurer = Insurer.setup([b"cert"], rng=inputs.source(seed, "insurer"))
        channel = InProcessChannel(insurer, now_fn=lambda: 1_700_000_000)
        return ClientState.register(channel, 3600, rng=inputs.source(seed, "customer0"))

    a, b, c = customer(7), customer(7), customer(8)
    assert a.keypair == b.keypair and a.chameleon_kp == b.chameleon_kp
    assert a.keypair != c.keypair and a.chameleon_kp != c.chameleon_kp


def test_benchmark_json_matches_the_code():
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in layers.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [m[1] for m in layers.PER_LAYER]
    assert spec["paths"] == ["perfbench"]
