"""Per-layer metrics of the traced run: what is wrapped, how each metric is
computed from the spans, and which end-to-end metric it should move.

A `calls` metric is calls per workload operation (one customer cycle on
fleet and biglist, one customer's round of checks on disputes).  A `ms`
metric is mean self time per call.  Crypto spans under the simulated
server's handshake are harness cost and are left out of every crypto.*
metric; the handshake itself is reported as tlssim.handshake.ms.
"""

import os

from conninsure import client, crypto, insurer, judge, merkle, model, tlssim, wire

HARNESS_SPAN = "tlssim.handshake"


def _leaves(args, result):
    return args[1]


# (span name, owner, attribute, size_of)
TARGETS = [
    ("crypto.modexp", crypto, "modexp", None),
    ("crypto.chameleon_hash", crypto, "chameleon_hash", None),
    ("crypto.chameleon_sign", crypto, "chameleon_sign", None),
    ("crypto.chameleon_verify", crypto, "chameleon_verify", None),
    ("crypto.verify_trapdoor", crypto, "verify_trapdoor", None),
    ("crypto.sign", crypto, "sign", None),
    ("crypto.verify", crypto, "verify", None),
    ("wire.cert_list_digest", wire, "cert_list_digest", None),
    ("wire.encode_list", wire, "encode_list", None),
    ("wire.decode_list", wire, "decode_list", None),
    ("model.compute_rollback", model, "compute_rollback", None),
    ("model.apply_rollback", model, "apply_rollback", None),
    ("model.Claim.from_bytes", model.Claim, "from_bytes", None),
    ("model.Claim.to_bytes", model.Claim, "to_bytes", None),
    ("merkle.build_tree", merkle, "build_tree", _leaves),
    ("merkle.prove_inclusion", merkle, "prove_inclusion", None),
    ("merkle.verify_inclusion", merkle, "verify_inclusion", None),
    ("tlssim.extract_evidence", tlssim, "extract_evidence", None),
    ("tlssim.verify_transcript_signature", tlssim, "verify_transcript_signature", None),
    ("insurer.register", insurer.Insurer, "register", None),
    ("insurer.begin_cycle", insurer.Insurer, "begin_cycle", None),
    ("insurer.ack_certificates", insurer.Insurer, "ack_certificates", None),
    ("insurer.accept_vouchers", insurer.Insurer, "accept_vouchers", None),
    ("insurer.update_cert_list", insurer.Insurer, "update_cert_list", None),
    ("insurer.lookup_record", insurer.Insurer, "lookup_record", None),
    ("insurer.load", insurer.Insurer, "load", None),
    ("insurer.handle_request", insurer, "handle_request", None),
    ("insurer.log.fsync", os, "fsync", None),
    ("client.do_update_cycle", client.ClientState, "do_update_cycle", None),
    ("client.submit_cycle", client.ClientState, "submit_cycle", None),
    ("client.browse", client.ClientState, "browse", None),
    ("client.assemble_claim", client.ClientState, "assemble_claim", None),
    ("client.reconstruct_list", client.ClientState, "reconstruct_list", None),
    ("client.save", client.ClientState, "save", None),
    ("judge.verify_claim", judge, "verify_claim", None),
    ("judge.certificate_names", judge, "certificate_names", None),
    ("judge.resolve_denial", judge, "resolve_denial", None),
]

CHANNEL_SPAN = "transport.request"


def install(recorder) -> None:
    for name, owner, attr, size_of in TARGETS:
        recorder.patch(owner, attr, name, size_of)


def trace_channel(recorder, channel) -> None:
    """Record each request on this channel with its request and response bytes."""
    recorder.patch(channel, "request", CHANNEL_SPAN,
                   lambda args, result: len(args[0]) + len(result))


FLEET_CRYPTO = ("update/submit p50+p90 and cycles_per_s on fleet; verify_p* and "
                "dispute_p50_ms on disputes; biglist only its ~30 ms constant")

# (metric, unit, span, kind, what it should move)
#   kind: calls = calls per operation; ms = mean self ms per call;
#   dur_ms = mean duration per call; us_per_leaf = self time per tree leaf;
#   rtt_ms, wait_ms and bytes describe the channel's requests.
PER_LAYER = [
    ("crypto.modexp.calls", "count", "crypto.modexp", "calls", FLEET_CRYPTO),
    ("crypto.modexp.self_ms", "ms", "crypto.modexp", "ms", FLEET_CRYPTO),
    ("crypto.chameleon_hash.calls", "count", "crypto.chameleon_hash", "calls", FLEET_CRYPTO),
    ("crypto.chameleon_sign.calls", "count", "crypto.chameleon_sign", "calls", FLEET_CRYPTO),
    ("crypto.chameleon_sign.ms", "ms", "crypto.chameleon_sign", "ms", FLEET_CRYPTO),
    ("crypto.chameleon_verify.calls", "count", "crypto.chameleon_verify", "calls", FLEET_CRYPTO),
    ("crypto.chameleon_verify.ms", "ms", "crypto.chameleon_verify", "ms", FLEET_CRYPTO),
    ("crypto.verify_trapdoor.ms", "ms", "crypto.verify_trapdoor", "ms", "setup_s on fleet"),
    ("crypto.sign.ms", "ms", "crypto.sign", "ms", FLEET_CRYPTO),
    ("crypto.verify.ms", "ms", "crypto.verify", "ms", FLEET_CRYPTO),
    ("wire.cert_list_digest.calls", "count", "wire.cert_list_digest", "calls",
     "update_p50_ms and verify_p50_ms on biglist; fleet unchanged"),
    ("wire.cert_list_digest.ms", "ms", "wire.cert_list_digest", "ms",
     "update_p50_ms and verify_p50_ms on biglist; fleet unchanged"),
    ("wire.encode_list.ms", "ms", "wire.encode_list", "ms",
     "update_p50_ms and verify_p50_ms on biglist; fleet unchanged"),
    ("wire.decode_list.ms", "ms", "wire.decode_list", "ms",
     "update_p50_ms and verify_p50_ms on biglist; fleet unchanged"),
    ("model.compute_rollback.ms", "ms", "model.compute_rollback", "ms",
     "update_p50_ms and claim_p50_ms on biglist"),
    ("model.apply_rollback.ms", "ms", "model.apply_rollback", "ms",
     "update_p50_ms and claim_p50_ms on biglist"),
    ("model.Claim.from_bytes.ms", "ms", "model.Claim.from_bytes", "ms",
     "verify_p50_ms on disputes"),
    ("model.Claim.to_bytes.ms", "ms", "model.Claim.to_bytes", "ms", "claim_p50_ms on biglist"),
    ("merkle.build_tree.calls", "count", "merkle.build_tree", "calls",
     "submit_p50_ms and claim_p50_ms on biglist; fleet unchanged"),
    ("merkle.build_tree.ms", "ms", "merkle.build_tree", "ms",
     "submit_p50_ms and claim_p50_ms on biglist; fleet unchanged"),
    ("merkle.build_tree.us_per_leaf", "us", "merkle.build_tree", "us_per_leaf",
     "submit_p50_ms and claim_p50_ms on biglist; fleet unchanged"),
    ("merkle.prove_inclusion.ms", "ms", "merkle.prove_inclusion", "ms",
     "submit_p50_ms and claim_p50_ms on biglist; fleet unchanged"),
    ("merkle.verify_inclusion.ms", "ms", "merkle.verify_inclusion", "ms", "verify_p50_ms"),
    ("tlssim.handshake.ms", "ms", HARNESS_SPAN, "dur_ms",
     "cycles_per_s on fleet only (harness DH keygen, reported apart)"),
    ("tlssim.extract_evidence.ms", "ms", "tlssim.extract_evidence", "ms", "browse_p50_ms"),
    ("tlssim.verify_transcript_signature.ms", "ms", "tlssim.verify_transcript_signature", "ms",
     "verify_p50_ms"),
    ("insurer.register.ms", "ms", "insurer.register", "ms", "setup_s"),
    ("insurer.begin_cycle.ms", "ms", "insurer.begin_cycle", "ms", "update_p50_ms"),
    ("insurer.ack_certificates.ms", "ms", "insurer.ack_certificates", "ms", "update_p50_ms"),
    ("insurer.accept_vouchers.ms", "ms", "insurer.accept_vouchers", "ms", "submit_p50_ms"),
    ("insurer.update_cert_list.ms", "ms", "insurer.update_cert_list", "ms",
     "cycles_per_s on biglist"),
    ("insurer.lookup_record.ms", "ms", "insurer.lookup_record", "ms",
     "dispute_p50_ms on disputes"),
    ("insurer.log.fsync.calls", "count", "insurer.log.fsync", "calls",
     "update/submit p50 on biglist (fleet's insurer skips fsync)"),
    ("insurer.log.fsync.ms", "ms", "insurer.log.fsync", "ms",
     "update/submit p50 on biglist (fleet's insurer skips fsync)"),
    ("insurer.log.bytes", "B", None, "log_bytes",
     "log_bytes_per_cycle and update/submit p50 on fleet and biglist"),
    ("insurer.load.ms", "ms", "insurer.load", "ms", "restart_s"),
    ("client.do_update_cycle.ms", "ms", "client.do_update_cycle", "ms",
     "update_p50_ms on biglist and fleet"),
    ("client.submit_cycle.ms", "ms", "client.submit_cycle", "ms",
     "submit_p50_ms on biglist and fleet"),
    ("client.browse.ms", "ms", "client.browse", "ms", "browse_p50_ms on biglist and fleet"),
    ("client.assemble_claim.ms", "ms", "client.assemble_claim", "ms", "claim_p50_ms on biglist"),
    ("client.reconstruct_list.ms", "ms", "client.reconstruct_list", "ms",
     "claim_p50_ms on biglist"),
    ("client.save.ms", "ms", "client.save", "ms", "cycles_per_s on biglist"),
    ("judge.verify_claim.ms", "ms", "judge.verify_claim", "ms", "verify_p50_ms/p90 on disputes"),
    ("judge.certificate_names.ms", "ms", "judge.certificate_names", "ms",
     "verify_p50_ms/p90 on disputes"),
    ("judge.resolve_denial.ms", "ms", "judge.resolve_denial", "ms", "dispute_p50_ms on disputes"),
    ("transport.rtt_ms", "ms", CHANNEL_SPAN, "rtt_ms", "update/submit p50 on fleet"),
    ("transport.wait_ms", "ms", CHANNEL_SPAN, "wait_ms",
     "update_p90_ms and submit_p90_ms on fleet"),
    ("transport.bytes_per_cycle", "B", CHANNEL_SPAN, "bytes", "update_p50_ms on biglist"),
    ("trace.overhead_pct", "%", None, "overhead",
     "none: op_p50_ms of the traced half over the untraced half, minus 100"),
]


def metrics(everything: dict, phase: dict, ops: int, log_bytes: int,
            overhead_pct: float) -> dict:
    """Per-layer metric values.

    `phase` holds span totals of the traced phase, which ran `ops`
    operations; counts, bytes and transport times come from it.  Mean
    times per call come from `everything`, every traced call of the run,
    so that set-up and restart calls are measured too.
    """
    out = {}
    per_op = max(ops, 1)

    def mean_ms(totals: dict, span: str, attr: str) -> float:
        t = totals.get(span)
        return getattr(t, attr) / t.calls * 1000 if t and t.calls else 0.0

    for name, unit, span, kind, _moves in PER_LAYER:
        t = phase.get(span)
        if kind == "calls":
            value = (t.calls if t else 0) / per_op
        elif kind == "ms":
            value = mean_ms(everything, span, "self_s")
        elif kind == "dur_ms":
            value = mean_ms(everything, span, "duration_s")
        elif kind == "us_per_leaf":
            t = everything.get(span)
            value = t.self_s / t.size * 1e6 if t and t.size else 0.0
        elif kind == "rtt_ms":
            value = mean_ms(phase, span, "duration_s")
        elif kind == "wait_ms":
            value = mean_ms(phase, span, "duration_s") - mean_ms(
                phase, "insurer.handle_request", "duration_s")
        elif kind == "bytes":
            value = (t.size if t else 0) / per_op
        elif kind == "log_bytes":
            value = log_bytes / per_op
        else:
            value = overhead_pct
        out[name] = (value, unit)
    return out
