"""Command-line entry point: insurer service, client agent, judge,
simulation scenarios, benchmarks, and the storage estimator.

Exit codes: 0 success / claim accepted; 2 usage; 3 parse or encoding error;
4 sequencing; 5 recency; 6 signature rejected; 7 registration rejected;
8 not found; 9 bad parameter or capacity; 10-18 judge reject reasons
(see judge-verify --help); 1 a file that cannot be read or written, or
anything else.
"""

import json
import os
import sys
import time
from contextlib import contextmanager

import click

from . import crypto, wire
from .bench import bench_chameleon
from .client import STATE_FILE, ClientState
from .errors import (
    CapacityError,
    CIError,
    ClaimFormatError,
    EncodingError,
    NotFoundError,
    ParameterError,
    RecencyError,
    RegistrationRejected,
    SequencingError,
    SignatureInvalid,
)
from .estimator import PRESETS, EstimatorParams, storage_report
from .insurer import Insurer
from .judge import Verdict, verify_claim_bytes
from .rand import RandomSource
from .scenario import run_scenario
from .tlssim import SimServer, make_self_signed_cert
from .transport import InProcessChannel, InsurerServer, SocketChannel

VERDICT_EXIT = {
    Verdict.ACCEPT: 0,
    Verdict.BAD_CERT_SIG: 10,
    Verdict.CERT_NOT_IN_LIST: 11,
    Verdict.BAD_VOUCHER_SIG: 12,
    Verdict.UPDATE_LATE: 13,
    Verdict.BAD_MERKLE_PATH: 14,
    Verdict.VOUCHER_MISMATCH: 15,
    Verdict.BAD_TLS_SIG: 16,
    Verdict.DOMAIN_MISMATCH: 17,
    Verdict.NOT_ASSERTED_ROGUE: 18,
}

_ERROR_EXIT = [
    (ClaimFormatError, 3),
    (EncodingError, 3),
    (SequencingError, 4),
    (RecencyError, 5),
    (SignatureInvalid, 6),
    (RegistrationRejected, 7),
    (NotFoundError, 8),
    (ParameterError, 9),
    (CapacityError, 9),
]


class _Main(click.Group):
    """The one error boundary of every command: a protocol error exits with
    its code in _ERROR_EXIT (1 if it has none), and an OSError, such as a
    missing or unreadable input file, with 1; each prints an error: line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (CIError, OSError) as exc:
            code = next((c for t, c in _ERROR_EXIT if isinstance(exc, t)), 1)
            click.echo(f"error: {exc}", err=True)
            raise click.exceptions.Exit(code) from exc


def _emit(data: dict, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(data, indent=2, sort_keys=True))
    else:
        for key, value in data.items():
            click.echo(f"{key}: {value}")


@contextmanager
def _client_channel(connect: tuple[str, int] | None, insurer_dir: str | None):
    """Either a TCP channel or an in-process channel over on-disk state;
    both the channel and an in-process insurer are closed on exit."""
    insurer = None
    if connect:
        channel = SocketChannel(*connect)
    elif insurer_dir:
        insurer = Insurer.load(os.path.join(insurer_dir, "insurer.log"))
        channel = InProcessChannel(insurer)
    else:
        raise click.UsageError("need --connect HOST:PORT or --insurer-dir DIR")
    try:
        yield channel
    finally:
        channel.close()
        if insurer:
            insurer.close()


@click.group(cls=_Main)
def main():
    """Connection-insurance protocol suite."""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@main.command()
@click.option("--scenario", type=click.Choice(["honest", "mitm"]), default="honest")
@click.option("--cycles", default=5, show_default=True)
@click.option("--domains", default=20, show_default=True)
@click.option("--seed", default=0, show_default=True, help="Deterministic mode seed.")
@click.option("--rogue-cycle", default=3, show_default=True)
@click.option("--late-cycle", default=None, type=int,
              help="Submit this cycle one second past the update bound.")
@click.option("--claim-out", type=click.Path(), default=None,
              help="Write the resulting .ciclaim file here (mitm only).")
@click.option("--insurer-key-out", type=click.Path(), default=None,
              help="Write the insurer public key here for later judging.")
@click.option("--json", "as_json", is_flag=True)
def simulate(scenario, cycles, domains, seed, rogue_cycle, late_cycle, claim_out,
             insurer_key_out, as_json):
    """Run an end-to-end scenario with an in-process insurer and servers."""
    report = run_scenario(
        scenario=scenario, cycles=cycles, domains=domains, seed=seed,
        rogue_cycle=rogue_cycle, late_cycle=late_cycle,
    )
    if claim_out and report.claim_bytes:
        with open(claim_out, "wb") as fh:
            fh.write(report.claim_bytes)
    if insurer_key_out and report.insurer_public:
        with open(insurer_key_out, "wb") as fh:
            fh.write(wire.PUBLIC_KEY.encode(report.insurer_public))
    _emit(report.as_dict(), as_json)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@main.group()
def bench():
    """Performance benchmarks."""


@bench.command("chameleon")
@click.option("--iterations", default=1000, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def bench_chameleon_cmd(iterations, as_json):
    """Mean chameleon sign/verify times at production group size, plus the
    mean sign time toward a new recipient on every call (cold_sign_ms)."""
    report = bench_chameleon(iterations)
    _emit(
        {
            "iterations": report.iterations,
            "mean_sign_ms": round(report.mean_sign_ms, 4),
            "mean_verify_ms": round(report.mean_verify_ms, 4),
            "cold_sign_ms": round(report.cold_sign_ms, 4),
            "all_verified": report.all_verified,
        },
        as_json,
    )


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


@main.group()
def estimate():
    """Feasibility estimates."""


@estimate.command("storage")
@click.option("--n", "n_domains", default=500_000, show_default=True)
@click.option("--s-cert", "cert_bytes", default=1_900, show_default=True)
@click.option("--k", "cert_validity_days", default=90, show_default=True)
@click.option("--v-day", "vouchers_per_day", default=2_500, show_default=True)
@click.option("--cycles", "cycles_per_day", default=24, show_default=True)
@click.option("--customers", default=44_000_000, show_default=True)
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("--json", "as_json", is_flag=True)
def estimate_storage(n_domains, cert_bytes, cert_validity_days, vouchers_per_day,
                     cycles_per_day, customers, preset, as_json):
    """Yearly storage for certificates and vouchers, both unit systems."""
    if preset:
        cycles_per_day = PRESETS[preset]["cycles_per_day"]
    params = EstimatorParams(
        n_domains=n_domains,
        cert_bytes=cert_bytes,
        cert_validity_days=cert_validity_days,
        vouchers_per_day=vouchers_per_day,
        cycles_per_day=cycles_per_day,
        customers=customers,
    )
    report = storage_report(params)
    if as_json:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
        return
    click.echo(f"{'component':<34}{'bytes/year':>18}{'GiB':>10}{'TiB':>10}")
    for key in ("certificates", "customer_vouchers",
                "customer_vouchers_low_estimate", "insurer_vouchers"):
        row = report[key]
        click.echo(
            f"{key:<34}{row['bytes']:>18,}{row['gib_binary']:>10.2f}"
            f"{row['tib_binary']:>10.3f}"
        )
    click.echo(f"note: {report['note']}")


# ---------------------------------------------------------------------------
# insurer
# ---------------------------------------------------------------------------


@main.group()
def insurer():
    """Insurer service management."""


@insurer.command("init")
@click.option("--state-dir", type=click.Path(), required=True)
@click.option("--cert", "cert_files", type=click.Path(exists=True), multiple=True,
              required=True, help="Initial vetted certificate (DER); repeatable.")
@click.option("--seed", default=None, type=int)
@click.option("--json", "as_json", is_flag=True)
def insurer_init(state_dir, cert_files, seed, as_json):
    """Create a new insurer with an initial vetted list."""
    os.makedirs(state_dir, exist_ok=True)
    certs = []
    for path in cert_files:
        with open(path, "rb") as fh:
            certs.append(fh.read())
    ins = Insurer.setup(
        certs, rng=RandomSource(seed), log_path=os.path.join(state_dir, "insurer.log")
    )
    ins.close()
    _emit({"state_dir": state_dir, "certs": len(certs),
           "scheme": crypto.SCHEME_NAMES[ins.keypair.scheme_id]}, as_json)


@insurer.command("export-key")
@click.option("--state-dir", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def insurer_export_key(state_dir, out):
    """Write the insurer's public key for use by the judge."""
    ins = Insurer.load(os.path.join(state_dir, "insurer.log"))
    with open(out, "wb") as fh:
        fh.write(wire.PUBLIC_KEY.encode(ins.keypair.public))
    ins.close()
    click.echo(out)


@insurer.command("serve")
@click.option("--state-dir", type=click.Path(exists=True), required=True)
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", default=7465, show_default=True, type=click.IntRange(0, 65535))
def insurer_serve(state_dir, host, port):
    """Serve the insurer over the framed TCP channel (Ctrl-C to stop)."""
    ins = Insurer.load(os.path.join(state_dir, "insurer.log"))
    server = InsurerServer(ins, host, port)
    click.echo(f"serving on {server.address[0]}:{server.address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        ins.close()


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------


def _endpoint(ctx, param, value: str | None) -> tuple[str, int] | None:
    """HOST:PORT as (host, port); an empty host is 127.0.0.1."""
    if value is None:
        return None
    host, _, port = value.rpartition(":")
    if not (port.isascii() and port.isdigit() and 1 <= int(port) <= 65535):
        raise click.BadParameter(f"{value!r} is not HOST:PORT with a port from 1 to 65535")
    return host or "127.0.0.1", int(port)


_channel_options = [
    click.option("--connect", default=None, callback=_endpoint,
                 help="Insurer endpoint HOST:PORT."),
    click.option("--insurer-dir", default=None, type=click.Path(),
                 help="Run against on-disk insurer state in-process."),
]


def _with_channel_options(fn):
    for option in reversed(_channel_options):
        fn = option(fn)
    return fn


@main.group()
def client():
    """Customer agent."""


@client.command("register")
@click.option("--state-dir", type=click.Path(), required=True)
@_with_channel_options
@click.option("--delta-t", default=86_400, show_default=True,
              help="Requested update-interval bound in seconds.")
@click.option("--seed", default=None, type=int)
@click.option("--json", "as_json", is_flag=True)
def client_register(state_dir, connect, insurer_dir, delta_t, seed, as_json):
    """Create keys, prove trapdoor knowledge, and store the contract."""
    if os.path.exists(os.path.join(state_dir, STATE_FILE)):
        raise ParameterError(f"{state_dir} already holds a customer's state")
    with _client_channel(connect, insurer_dir) as channel:
        state = ClientState.register(channel, delta_t, rng=RandomSource(seed))
    state.save(state_dir)
    _emit({"customer": state.customer, "t0": state.contract.t0,
           "t_end": state.contract.t_end, "delta_t": state.contract.delta_t}, as_json)


@client.command("update")
@click.option("--state-dir", type=click.Path(exists=True), required=True)
@_with_channel_options
@click.option("--json", "as_json", is_flag=True)
def client_update(state_dir, connect, insurer_dir, as_json):
    """Download the certificate list and open an update cycle."""
    state = ClientState.load(state_dir)
    with _client_channel(connect, insurer_dir) as channel:
        record = state.do_update_cycle(channel, now=int(time.time()))
    state.save(state_dir)
    _emit({"cycle": record.cycle_index, "cycleid": record.cycleid.hex(),
           "certs": record.list_size}, as_json)


@client.command("browse")
@click.option("--state-dir", type=click.Path(exists=True), required=True)
@click.option("--domain", required=True)
@click.option("--server-file", type=click.Path(exists=True), required=True,
              help="Serialized simulated server (see simserver init).")
@click.option("--seed", default=None, type=int)
@click.option("--json", "as_json", is_flag=True)
def client_browse(state_dir, domain, server_file, seed, as_json):
    """Visit a simulated server, collecting a voucher if its cert is vetted."""
    state = ClientState.load(state_dir)
    server = _load_sim_server(server_file)
    result = state.browse(domain, server, now=int(time.time()), rng=RandomSource(seed))
    state.save(state_dir)
    _emit({"domain": domain, "status": result.status}, as_json)


@client.command("submit")
@click.option("--state-dir", type=click.Path(exists=True), required=True)
@_with_channel_options
@click.option("--seed", default=None, type=int)
@click.option("--json", "as_json", is_flag=True)
def client_submit(state_dir, connect, insurer_dir, seed, as_json):
    """Commit the cycle's vouchers and close the cycle."""
    state = ClientState.load(state_dir)
    with _client_channel(connect, insurer_dir) as channel:
        record = state.submit_cycle(channel, now=int(time.time()), rng=RandomSource(seed))
    state.save(state_dir)
    _emit({"cycle": record.cycle_index, "root": record.voucher_root.hex(),
           "covered": record.covered, "vouchers": len(record.evidences)}, as_json)


def _cycleid(ctx, param, value: str) -> bytes:
    try:
        cycleid = bytes.fromhex(value)
    except ValueError:
        raise click.BadParameter(f"{value!r} is not hex") from None
    if len(cycleid) != wire.CYCLEID_LEN:
        raise click.BadParameter(f"{len(cycleid)} bytes, expected {wire.CYCLEID_LEN}")
    return cycleid


@client.command("claim")
@click.option("--state-dir", type=click.Path(exists=True), required=True)
@click.option("--cycleid", required=True, callback=_cycleid,
              help=f"Cycle identifier, {wire.CYCLEID_LEN} bytes in hex.")
@click.option("--domain", required=True)
@click.option("--out", type=click.Path(), required=True)
def client_claim(state_dir, cycleid, domain, out):
    """Assemble a .ciclaim file for one vouched connection."""
    state = ClientState.load(state_dir)
    claim = state.assemble_claim(cycleid, domain)
    with open(out, "wb") as fh:
        fh.write(claim.to_bytes())
    click.echo(out)


# ---------------------------------------------------------------------------
# simserver
# ---------------------------------------------------------------------------


# Simulated server identity file: one frame holding these fields.
_SIM_SERVER = wire.Record(
    None,
    None,
    ("domain", wire.TEXT),
    ("scheme_id", wire.U64),
    ("cert", wire.BYTES),
    ("secret", wire.BYTES),
)


@main.group()
def simserver():
    """Simulated TLS servers for the client CLI."""


@simserver.command("init")
@click.option("--domain", required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--cert-out", type=click.Path(), default=None,
              help="Also write the certificate DER (for insurer init).")
@click.option("--seed", default=None, type=int)
def simserver_init(domain, out, cert_out, seed):
    """Create a simulated server identity file."""
    rng = RandomSource(seed)
    cert, secret = make_self_signed_cert(domain, crypto.SCHEME_ED25519, rng,
                                         now=int(time.time()))
    body = _SIM_SERVER.encode_body((domain, crypto.SCHEME_ED25519, cert, secret))
    wire.replace_frames(out, [body])
    if cert_out:
        with open(cert_out, "wb") as fh:
            fh.write(cert)
    click.echo(out)


def _load_sim_server(path: str) -> SimServer:
    with open(path, "rb") as fh:
        domain, scheme_id, cert, secret = _SIM_SERVER.decode_body(
            wire.only_frame(fh.read())
        )
    return SimServer(domain, cert, secret, scheme_id)


# ---------------------------------------------------------------------------
# judge
# ---------------------------------------------------------------------------


@main.group(name="judge")
def judge_group():
    """Dispute resolution."""


@judge_group.command("verify")
@click.argument("claim_file", type=click.Path(exists=True))
@click.option("--insurer-key", type=click.Path(exists=True), required=True)
@click.option("--assert-rogue", is_flag=True,
              help="Assert (established out of band) that the certificate is rogue.")
@click.option("--json", "as_json", is_flag=True)
def judge_verify(claim_file, insurer_key, assert_rogue, as_json):
    """Verify a .ciclaim file; exit 0 on ACCEPT, 10-18 on reject reasons."""
    with open(insurer_key, "rb") as fh:
        pk_in = wire.PUBLIC_KEY.decode(fh.read())
    with open(claim_file, "rb") as fh:
        data = fh.read()
    try:
        verdict = verify_claim_bytes(data, pk_in, assert_rogue)
    except (ClaimFormatError, EncodingError) as exc:
        _emit({"verdict": "PARSE_ERROR", "detail": str(exc)}, as_json)
        raise click.exceptions.Exit(3)
    _emit({"verdict": verdict.value}, as_json)
    raise click.exceptions.Exit(VERDICT_EXIT[verdict])


if __name__ == "__main__":
    sys.exit(main())
