"""CLI integration: every subcommand, exit codes, and the served-TCP path."""

import dataclasses
import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from support import count_powers, count_written, unchecked_proof
from conninsure import cli, crypto
from conninsure.cli import main
from conninsure.insurer import Insurer
from conninsure.model import Claim, registration_context
from conninsure.transport import InsurerServer


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestSimulate:
    def test_honest_scenario_no_claims(self, runner):
        result = _invoke(
            runner, "simulate", "--scenario", "honest", "--cycles", "2",
            "--domains", "3", "--seed", "9", "--json",
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["verdict"] is None
        assert all(c["covered"] for c in report["cycle_reports"])

    def test_mitm_scenario_accepts(self, runner, tmp_path):
        claim_path = str(tmp_path / "case.ciclaim")
        key_path = str(tmp_path / "insurer.pk")
        result = _invoke(
            runner, "simulate", "--scenario", "mitm", "--cycles", "3",
            "--domains", "4", "--seed", "9", "--rogue-cycle", "2",
            "--claim-out", claim_path, "--insurer-key-out", key_path, "--json",
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "ACCEPT"
        assert os.path.getsize(claim_path) > 0

        verify = _invoke(
            runner, "judge", "verify", claim_path, "--insurer-key", key_path,
            "--assert-rogue", "--json",
        )
        assert verify.exit_code == 0
        assert json.loads(verify.output)["verdict"] == "ACCEPT"

    def test_mitm_late_submission_update_late(self, runner, tmp_path):
        claim_path = str(tmp_path / "late.ciclaim")
        key_path = str(tmp_path / "insurer.pk")
        result = _invoke(
            runner, "simulate", "--scenario", "mitm", "--cycles", "3",
            "--domains", "4", "--seed", "9", "--rogue-cycle", "2",
            "--late-cycle", "2", "--claim-out", claim_path,
            "--insurer-key-out", key_path, "--json",
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "UPDATE_LATE"
        verify = _invoke(
            runner, "judge", "verify", claim_path, "--insurer-key", key_path,
            "--assert-rogue",
        )
        assert verify.exit_code == 13

    def test_deterministic_seeds_reproduce(self, runner):
        args = ("simulate", "--scenario", "mitm", "--cycles", "2", "--domains",
                "3", "--seed", "4", "--rogue-cycle", "2", "--json")
        a = json.loads(_invoke(runner, *args).output)
        b = json.loads(_invoke(runner, *args).output)
        for x in (a, b):
            del x["elapsed_s"]
        assert a == b

    def test_same_seed_gives_identical_claim_bytes(self, runner, tmp_path):
        """Every random draw of a run, the Merkle tree seeds included, comes
        from --seed, so the claim file is a function of the arguments."""
        blobs = []
        for name in ("a.ciclaim", "b.ciclaim"):
            path = tmp_path / name
            _invoke(
                runner, "simulate", "--scenario", "mitm", "--cycles", "2",
                "--domains", "3", "--seed", "5", "--rogue-cycle", "2",
                "--claim-out", str(path),
            )
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestJudgeCli:
    def test_truncated_claim_parse_error_exit(self, runner, tmp_path):
        claim_path = str(tmp_path / "case.ciclaim")
        key_path = str(tmp_path / "insurer.pk")
        _invoke(
            runner, "simulate", "--scenario", "mitm", "--cycles", "2",
            "--domains", "3", "--seed", "5", "--claim-out", claim_path,
            "--insurer-key-out", key_path, "--rogue-cycle", "2",
        )
        with open(claim_path, "rb") as fh:
            blob = fh.read()
        with open(claim_path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        result = _invoke(
            runner, "judge", "verify", claim_path, "--insurer-key", key_path,
            "--assert-rogue",
        )
        assert result.exit_code == 3

    def test_not_asserted_rogue_exit(self, runner, tmp_path):
        claim_path = str(tmp_path / "case.ciclaim")
        key_path = str(tmp_path / "insurer.pk")
        _invoke(
            runner, "simulate", "--scenario", "mitm", "--cycles", "2",
            "--domains", "3", "--seed", "5", "--claim-out", claim_path,
            "--insurer-key-out", key_path, "--rogue-cycle", "2",
        )
        result = _invoke(
            runner, "judge", "verify", claim_path, "--insurer-key", key_path
        )
        assert result.exit_code == 18

    @pytest.mark.parametrize("hostile", ["group", "y"])
    def test_contract_on_unknown_group_or_key_is_a_parse_error(
        self, runner, tmp_path, monkeypatch, hostile
    ):
        """A claim whose contract names a group outside crypto.GROUPS, or a
        y of 2^2048, is refused with PARSE_ERROR and exit 3, before any comb
        is built or modexp runs."""
        claim_path = str(tmp_path / "case.ciclaim")
        key_path = str(tmp_path / "insurer.pk")
        _invoke(
            runner, "simulate", "--scenario", "mitm", "--cycles", "2",
            "--domains", "3", "--seed", "5", "--claim-out", claim_path,
            "--insurer-key-out", key_path, "--rogue-cycle", "2",
        )
        with open(claim_path, "rb") as fh:
            claim = Claim.from_bytes(fh.read())
        contract = claim.contract
        key = contract.chameleon
        if hostile == "group":
            wide = crypto.GroupParams((1 << 8191) + 1, key.params.q, 2)
            proof = unchecked_proof(wide, key.y, registration_context(contract.pk_a))
            contract = dataclasses.replace(
                contract, chameleon=dataclasses.replace(key, params=wide), trapdoor_proof=proof
            )
        else:
            key = dataclasses.replace(key, y=1 << 2048)
            contract = dataclasses.replace(contract, chameleon=key)
        with open(claim_path, "wb") as fh:
            fh.write(dataclasses.replace(claim, contract=contract).to_bytes())
        crypto.generator_comb.cache_clear()
        powers = count_powers(monkeypatch)
        result = _invoke(
            runner, "judge", "verify", claim_path, "--insurer-key", key_path,
            "--assert-rogue", "--json",
        )
        assert result.exit_code == 3
        assert json.loads(result.output)["verdict"] == "PARSE_ERROR"
        assert powers == []


class TestBenchCli:
    def test_report_contains_both_means(self, runner):
        result = _invoke(runner, "bench", "chameleon", "--iterations", "100", "--json")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert "mean_sign_ms" in report and "mean_verify_ms" in report
        assert report["all_verified"] is True


class TestEstimateCli:
    def test_table_output(self, runner):
        result = _invoke(runner, "estimate", "storage")
        assert result.exit_code == 0
        assert "insurer_vouchers" in result.output
        assert "note:" in result.output

    def test_json_output(self, runner):
        result = _invoke(runner, "estimate", "storage", "--json")
        report = json.loads(result.output)
        assert report["insurer_vouchers"]["bytes"] == 197_345_280_000_000

    def test_preset_daily(self, runner):
        result = _invoke(runner, "estimate", "storage", "--preset", "daily", "--json")
        assert json.loads(result.output)["params"]["cycles_per_day"] == 1


class TestFileDrivenFlow:
    """insurer init + simserver init + client register/update/browse/submit/
    claim + judge verify, all through on-disk state."""

    def test_full_flow(self, runner, tmp_path):
        server_file = str(tmp_path / "bob.simserver")
        cert_file = str(tmp_path / "bob.der")
        insurer_dir = str(tmp_path / "insurer")
        client_dir = str(tmp_path / "client")
        claim_file = str(tmp_path / "case.ciclaim")
        key_file = str(tmp_path / "insurer.pk")

        assert _invoke(
            runner, "simserver", "init", "--domain", "bob.example.org",
            "--out", server_file, "--cert-out", cert_file, "--seed", "1",
        ).exit_code == 0
        assert _invoke(
            runner, "insurer", "init", "--state-dir", insurer_dir,
            "--cert", cert_file, "--seed", "2",
        ).exit_code == 0
        assert _invoke(
            runner, "client", "register", "--state-dir", client_dir,
            "--insurer-dir", insurer_dir, "--seed", "3",
        ).exit_code == 0

        update = _invoke(
            runner, "client", "update", "--state-dir", client_dir,
            "--insurer-dir", insurer_dir, "--json",
        )
        assert update.exit_code == 0
        cycleid = json.loads(update.output)["cycleid"]

        browse = _invoke(
            runner, "client", "browse", "--state-dir", client_dir,
            "--domain", "bob.example.org", "--server-file", server_file,
            "--seed", "4", "--json",
        )
        assert browse.exit_code == 0
        assert json.loads(browse.output)["status"] == "vouched"

        submit = _invoke(
            runner, "client", "submit", "--state-dir", client_dir,
            "--insurer-dir", insurer_dir, "--seed", "5", "--json",
        )
        assert submit.exit_code == 0
        assert json.loads(submit.output)["covered"] is True

        assert _invoke(
            runner, "client", "claim", "--state-dir", client_dir,
            "--cycleid", cycleid, "--domain", "bob.example.org",
            "--out", claim_file,
        ).exit_code == 0
        assert _invoke(
            runner, "insurer", "export-key", "--state-dir", insurer_dir,
            "--out", key_file,
        ).exit_code == 0

        verdict = _invoke(
            runner, "judge", "verify", claim_file, "--insurer-key", key_file,
            "--assert-rogue", "--json",
        )
        assert verdict.exit_code == 0
        assert json.loads(verdict.output)["verdict"] == "ACCEPT"

    def test_submit_without_cycle_sequencing_exit(self, runner, tmp_path):
        server_file = str(tmp_path / "bob.simserver")
        cert_file = str(tmp_path / "bob.der")
        insurer_dir = str(tmp_path / "insurer")
        client_dir = str(tmp_path / "client")
        _invoke(runner, "simserver", "init", "--domain", "bob.example.org",
                "--out", server_file, "--cert-out", cert_file, "--seed", "1")
        _invoke(runner, "insurer", "init", "--state-dir", insurer_dir,
                "--cert", cert_file, "--seed", "2")
        _invoke(runner, "client", "register", "--state-dir", client_dir,
                "--insurer-dir", insurer_dir, "--seed", "3")
        result = _invoke(
            runner, "client", "submit", "--state-dir", client_dir,
            "--insurer-dir", insurer_dir,
        )
        assert result.exit_code == 4


@pytest.fixture
def deployed(runner, tmp_path):
    """A simulated server, an insurer and one registered customer on disk."""
    paths = {name: str(tmp_path / name) for name in ("bob.der", "insurer", "client")}
    _invoke(runner, "simserver", "init", "--domain", "bob.example.org",
            "--out", str(tmp_path / "bob.simserver"), "--cert-out", paths["bob.der"],
            "--seed", "1")
    _invoke(runner, "insurer", "init", "--state-dir", paths["insurer"],
            "--cert", paths["bob.der"], "--seed", "2")
    assert _invoke(runner, "client", "register", "--state-dir", paths["client"],
                   "--insurer-dir", paths["insurer"], "--seed", "3").exit_code == 0
    return paths


def _snapshot(directory: str) -> dict:
    return {path.name: path.read_bytes() for path in Path(directory).iterdir()}


class TestRefusals:
    """A second set-up into the same place leaves the first one as it was."""

    def test_insurer_init_refuses_an_existing_log(self, runner, deployed):
        before = _snapshot(deployed["insurer"])
        result = _invoke(runner, "insurer", "init", "--state-dir", deployed["insurer"],
                         "--cert", deployed["bob.der"], "--seed", "4")
        assert result.exit_code == 9
        assert "already exists" in result.stderr
        assert _snapshot(deployed["insurer"]) == before

    def test_client_register_refuses_a_saved_customer(self, runner, deployed):
        """Refused before the insurer is contacted: its log takes no REGISTER."""
        before = (_snapshot(deployed["insurer"]), _snapshot(deployed["client"]))
        result = _invoke(runner, "client", "register", "--state-dir", deployed["client"],
                         "--insurer-dir", deployed["insurer"], "--seed", "5")
        assert result.exit_code == 9
        assert "already holds" in result.stderr
        assert (_snapshot(deployed["insurer"]), _snapshot(deployed["client"])) == before


class TestClientSaves:
    def test_browse_writes_no_list_bytes(self, runner, deployed, monkeypatch):
        """After update has saved the cycle's list, browse saves only the
        state file, which does not hold the list."""
        client = deployed["client"]
        assert _invoke(runner, "client", "update", "--state-dir", client,
                       "--insurer-dir", deployed["insurer"]).exit_code == 0
        written = count_written(monkeypatch)
        server_file = os.path.join(os.path.dirname(client), "bob.simserver")
        browse = _invoke(runner, "client", "browse", "--state-dir", client,
                         "--domain", "bob.example.org", "--server-file", server_file,
                         "--seed", "4", "--json")
        assert json.loads(browse.output)["status"] == "vouched"
        assert +written == {"state.tlv": written["state.tlv"]}
        # The certificate is in the open cycle's evidence, not in a list.
        cert = Path(deployed["bob.der"]).read_bytes()
        assert Path(client, "state.tlv").read_bytes().count(cert) == 1


class TestErrorExits:
    """Every command maps a protocol error to its exit code, and a file it
    cannot read to 1, with an error: line and no traceback."""

    def test_junk_insurer_key_is_a_parse_error(self, runner, tmp_path):
        claim, key = str(tmp_path / "case.ciclaim"), str(tmp_path / "insurer.pk")
        _invoke(runner, "simulate", "--scenario", "mitm", "--cycles", "2",
                "--domains", "3", "--seed", "5", "--rogue-cycle", "2",
                "--claim-out", claim, "--insurer-key-out", key)
        with open(key, "wb") as fh:
            fh.write(b"not a key")
        result = _invoke(runner, "judge", "verify", claim, "--insurer-key", key)
        assert result.exit_code == 3
        assert result.stderr.startswith("error: ")

    def test_junk_state_file_is_a_parse_error(self, runner, deployed):
        with open(os.path.join(deployed["client"], "state.tlv"), "wb") as fh:
            fh.write(b"\x00\x00\x00\x05junk!")
        result = _invoke(runner, "client", "update", "--state-dir", deployed["client"],
                         "--insurer-dir", deployed["insurer"])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: ")

    def test_missing_insurer_log_is_an_error_line(self, runner, deployed, tmp_path):
        result = _invoke(runner, "client", "update", "--state-dir", deployed["client"],
                         "--insurer-dir", str(tmp_path))
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and "insurer.log" in result.stderr


class TestUsageErrors:
    @pytest.mark.parametrize(
        "cycleid", ["zz", "ab" * 31, "ab" * 33], ids=["not-hex", "short", "long"]
    )
    def test_bad_cycleid_exits_2(self, runner, deployed, tmp_path, cycleid):
        out = tmp_path / "case.ciclaim"
        result = _invoke(runner, "client", "claim", "--state-dir", deployed["client"],
                         "--cycleid", cycleid, "--domain", "bob.example.org", "--out", str(out))
        assert result.exit_code == 2
        assert "--cycleid" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "endpoint", ["localhost:abc", "127.0.0.1:73001"], ids=["not-a-number", "too-big"]
    )
    def test_bad_connect_port_exits_2(self, runner, tmp_path, endpoint):
        """Refused before any connection: 73001 is not wrapped to 7465."""
        client_dir = tmp_path / "client"
        result = _invoke(runner, "client", "register", "--state-dir", str(client_dir),
                         "--connect", endpoint)
        assert result.exit_code == 2
        assert "--connect" in result.stderr
        assert "Traceback" not in result.output + result.stderr
        assert not client_dir.exists()

    def test_bad_serve_port_exits_2(self, runner, deployed):
        result = _invoke(runner, "insurer", "serve", "--state-dir", deployed["insurer"],
                         "--port", "99999")
        assert result.exit_code == 2
        assert "--port" in result.stderr
        assert "Traceback" not in result.output + result.stderr

    def test_non_ascii_domain_exits_9(self, runner, tmp_path):
        """A voucher carries its domain as ASCII, so no such server is made."""
        out, cert = tmp_path / "s", tmp_path / "s.der"
        result = _invoke(runner, "simserver", "init", "--domain", "\u00e9.example.org",
                         "--out", str(out), "--cert-out", str(cert), "--seed", "1")
        assert result.exit_code == 9
        assert result.stderr.startswith("error: ")
        assert not out.exists() and not cert.exists()


class TestServedChannel:
    """client register against a live insurer over the framed TCP channel."""

    def test_register_over_socket(self, runner, tmp_path):
        cert_file = str(tmp_path / "bob.der")
        insurer_dir = str(tmp_path / "insurer")
        client_dir = str(tmp_path / "client")
        _invoke(runner, "simserver", "init", "--domain", "bob.example.org",
                "--out", str(tmp_path / "s"), "--cert-out", cert_file, "--seed", "1")
        _invoke(runner, "insurer", "init", "--state-dir", insurer_dir,
                "--cert", cert_file, "--seed", "2")

        insurer = Insurer.load(os.path.join(insurer_dir, "insurer.log"))
        server = InsurerServer(insurer, port=0)
        server.serve_in_background()
        try:
            host, port = server.address
            result = _invoke(
                runner, "client", "register", "--state-dir", client_dir,
                "--connect", f"{host}:{port}", "--seed", "3", "--json",
            )
            assert result.exit_code == 0
            assert json.loads(result.output)["customer"] == 1
            assert os.path.exists(os.path.join(client_dir, "state.tlv"))
        finally:
            server.shutdown()
            server.server_close()
            insurer.close()

    def test_serve_closes_its_socket(self, runner, deployed, monkeypatch):
        """serve_forever calls service_actions on every pass, so an interrupt
        raised there ends the command as Ctrl-C would."""
        servers = []

        class Interrupted(InsurerServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                servers.append(self)

            def service_actions(self):
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "InsurerServer", Interrupted)
        result = _invoke(runner, "insurer", "serve", "--state-dir", deployed["insurer"],
                         "--port", "0")
        assert result.exit_code == 0
        assert servers[0].socket.fileno() == -1
