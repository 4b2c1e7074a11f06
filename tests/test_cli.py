"""CLI integration: every subcommand, exit codes, and the served-TCP path."""

import dataclasses
import fcntl
import json
import os
import stat
from pathlib import Path

import pytest
from click.testing import CliRunner

from support import count_powers, count_written, flip_signature_bit, unchecked_proof
from conninsure import cli, crypto, wire
from conninsure.cli import main
from conninsure.client import ClientState
from conninsure.insurer import Insurer
from conninsure.model import Claim, CycleRecord, registration_context
from conninsure.rand import RandomSource
from conninsure.transport import InProcessChannel, InsurerServer


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
        result = _invoke(runner, "estimate", "storage", "--cycles", "1", "--json")
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


class TestPinnedInsurerKey:
    def test_register_refuses_a_contract_from_another_insurer(self, runner, tmp_path):
        """With --insurer-key, a contract naming another insurer's key is
        refused and no customer state is saved; the key it names is taken."""
        cert = tmp_path / "bob.der"
        _invoke(runner, "simserver", "init", "--domain", "bob.example.org",
                "--out", str(tmp_path / "bob.simserver"), "--cert-out", str(cert),
                "--seed", "1")
        keys = {}
        for name, seed in (("pinned", "2"), ("other", "4")):
            _invoke(runner, "insurer", "init", "--state-dir", str(tmp_path / name),
                    "--cert", str(cert), "--seed", seed)
            keys[name] = str(tmp_path / f"{name}.pk")
            _invoke(runner, "insurer", "export-key", "--state-dir", str(tmp_path / name),
                    "--out", keys[name])
        refused = tmp_path / "refused"
        result = _invoke(runner, "client", "register", "--state-dir", str(refused),
                         "--insurer-dir", str(tmp_path / "other"),
                         "--insurer-key", keys["pinned"], "--seed", "3")
        assert result.exit_code == 1
        assert "pinned insurer key" in result.stderr
        assert not refused.exists()
        result = _invoke(runner, "client", "register", "--state-dir", str(tmp_path / "client"),
                         "--insurer-dir", str(tmp_path / "pinned"),
                         "--insurer-key", keys["pinned"], "--seed", "3")
        assert result.exit_code == 0


class TestFileModes:
    def test_key_files_only_their_owner_reads(self, runner, tmp_path, permissive_umask):
        """The insurer log, whose SETUP frame holds the signing secret, and
        state.tlv, which holds the customer's trapdoor, are mode 0600."""
        insurer_dir, client_dir = str(tmp_path / "insurer"), str(tmp_path / "client")
        cert = tmp_path / "bob.der"
        _invoke(runner, "simserver", "init", "--domain", "bob.example.org",
                "--out", str(tmp_path / "bob.simserver"), "--cert-out", str(cert),
                "--seed", "1")
        _invoke(runner, "insurer", "init", "--state-dir", insurer_dir,
                "--cert", str(cert), "--seed", "2")
        assert _invoke(runner, "client", "register", "--state-dir", client_dir,
                       "--insurer-dir", insurer_dir, "--seed", "3").exit_code == 0
        for path in (Path(insurer_dir, "insurer.log"), Path(client_dir, "state.tlv")):
            assert stat.S_IMODE(path.stat().st_mode) == 0o600


class TestExportKey:
    def test_torn_tail_is_neither_read_nor_cut(self, runner, deployed, tmp_path):
        """export-key reads only the SETUP frame: with a partial frame at the
        end, as a crash or an append in progress leaves, it exports the key
        and leaves the log byte for byte as it was."""
        log = Path(deployed["insurer"], "insurer.log")
        whole = log.read_bytes()
        with open(log, "ab") as fh:
            fh.write(wire.frame(b"\x32" + b"\x00" * 40)[:20])
        torn = log.read_bytes()
        out = tmp_path / "insurer.pk"
        result = _invoke(runner, "insurer", "export-key", "--state-dir", deployed["insurer"],
                         "--out", str(out))
        assert result.exit_code == 0
        assert log.read_bytes() == torn
        intact = tmp_path / "intact.log"
        intact.write_bytes(whole)
        expected = Insurer.load(str(intact)).keypair.public
        assert wire.PUBLIC_KEY.decode(out.read_bytes()) == expected


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

    @pytest.mark.parametrize("junk", ["not-a-key", "scheme-99"])
    def test_junk_insurer_key_is_a_parse_error(self, runner, tmp_path, junk):
        """A key file that does not decode, or names a scheme crypto does
        not know."""
        claim, key = str(tmp_path / "case.ciclaim"), str(tmp_path / "insurer.pk")
        _invoke(runner, "simulate", "--scenario", "mitm", "--cycles", "2",
                "--domains", "3", "--seed", "5", "--rogue-cycle", "2",
                "--claim-out", claim, "--insurer-key-out", key)
        alien = crypto.PublicKey(99, cli._read_insurer_key(key).data)
        with open(key, "wb") as fh:
            fh.write(b"not a key" if junk == "not-a-key" else wire.PUBLIC_KEY.encode(alien))
        result = _invoke(runner, "judge", "verify", claim, "--insurer-key", key)
        assert result.exit_code == 3
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "scheme_id, secret", [(crypto.SCHEME_RSA_SHA256, b"junk"), (99, bytes(32))],
        ids=["rsa-secret", "scheme-99"],
    )
    def test_unusable_simulated_server_key_is_a_parse_error(
        self, runner, deployed, tmp_path, scheme_id, secret
    ):
        """A simulated-server file whose key crypto cannot use, for the
        listed certificate of a cycle in progress."""
        client = deployed["client"]
        assert _invoke(runner, "client", "update", "--state-dir", client,
                       "--insurer-dir", deployed["insurer"]).exit_code == 0
        server_file = tmp_path / "broken.simserver"
        cert = Path(deployed["bob.der"]).read_bytes()
        body = cli._SIM_SERVER.encode_body(("bob.example.org", scheme_id, cert, secret))
        wire.replace_frames(str(server_file), [body])
        result = _invoke(runner, "client", "browse", "--state-dir", client,
                         "--domain", "bob.example.org", "--server-file", str(server_file))
        assert result.exit_code == 3
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output + result.stderr

    def test_empty_insurer_log_is_a_parse_error(self, runner, tmp_path):
        (tmp_path / "insurer.log").write_bytes(b"")
        result = _invoke(runner, "insurer", "serve", "--state-dir", str(tmp_path),
                         "--port", "0")
        assert result.exit_code == 3
        assert result.stderr.startswith("error: ") and "log holds no frame" in result.stderr

    def test_zero_update_bound_is_a_rejected_registration(self, runner, deployed, tmp_path):
        client = tmp_path / "zero"
        result = _invoke(runner, "client", "register", "--state-dir", str(client),
                         "--insurer-dir", deployed["insurer"], "--delta-t", "0")
        assert result.exit_code == 7
        assert "update-interval bound must be positive" in result.stderr
        assert not client.exists()

    @pytest.mark.parametrize("args", [
        ("bench", "chameleon", "--iterations", "50"),
        ("estimate", "storage", "--k", "400"),
    ], ids=["bench-iterations", "estimate-validity"])
    def test_parameter_out_of_its_range_exits_9(self, runner, args):
        result = _invoke(runner, *args)
        assert result.exit_code == 9
        assert result.stderr.startswith("error: ")

    def test_junk_state_file_is_a_parse_error(self, runner, deployed):
        with open(os.path.join(deployed["client"], "state.tlv"), "wb") as fh:
            fh.write(b"\x00\x00\x00\x05junk!")
        result = _invoke(runner, "client", "update", "--state-dir", deployed["client"],
                         "--insurer-dir", deployed["insurer"])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: ") and "state.tlv" in result.stderr

    def test_missing_insurer_log_is_an_error_line(self, runner, deployed, tmp_path):
        result = _invoke(runner, "client", "update", "--state-dir", deployed["client"],
                         "--insurer-dir", str(tmp_path))
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and "insurer.log" in result.stderr

    def test_damaged_evidence_fails_only_its_claim(self, runner, deployed, tmp_path):
        """An archived evidence whose server signature does not verify stops
        the claim on it, and no other command."""
        client, insurer = deployed["client"], deployed["insurer"]
        cycleids = []
        for seed in ("4", "5"):
            update = _invoke(runner, "client", "update", "--state-dir", client,
                             "--insurer-dir", insurer, "--json")
            cycleids.append(json.loads(update.output)["cycleid"])
            assert _invoke(runner, "client", "browse", "--state-dir", client,
                           "--domain", "bob.example.org", "--seed", seed,
                           "--server-file", str(tmp_path / "bob.simserver")).exit_code == 0
            assert _invoke(runner, "client", "submit", "--state-dir", client,
                           "--insurer-dir", insurer, "--seed", seed).exit_code == 0
        archive = os.path.join(client, "archive.tlv")
        records = [CycleRecord.from_bytes(p) for p in wire.iter_frames(Path(archive).read_bytes())]
        records[0] = flip_signature_bit(records[0], "bob.example.org")
        wire.replace_frames(archive, [record.to_bytes() for record in records])

        def claim(cycleid):
            return _invoke(runner, "client", "claim", "--state-dir", client,
                           "--cycleid", cycleid, "--domain", "bob.example.org",
                           "--out", str(tmp_path / f"{cycleid}.ciclaim"))

        assert _invoke(runner, "client", "update", "--state-dir", client,
                       "--insurer-dir", insurer).exit_code == 0
        assert claim(cycleids[1]).exit_code == 0
        damaged = claim(cycleids[0])
        assert damaged.exit_code == 1
        assert damaged.stderr == "error: server signature does not verify\n"
        assert "Traceback" not in damaged.output + damaged.stderr
        assert not (tmp_path / f"{cycleids[0]}.ciclaim").exists()


class TestUsageErrors:
    def test_update_without_an_insurer_exits_2(self, runner, deployed):
        result = _invoke(runner, "client", "update", "--state-dir", deployed["client"])
        assert result.exit_code == 2
        assert "need --connect HOST:PORT or --insurer-dir DIR" in result.stderr
        assert "Traceback" not in result.output + result.stderr

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

    @pytest.mark.parametrize("domain", ["", "a" * 60 + ".example.org"], ids=["empty", "72"])
    def test_domain_length_outside_common_name_exits_9(self, runner, tmp_path, domain):
        """A certificate's common name holds 1 to 64 characters."""
        out, cert = tmp_path / "s", tmp_path / "s.der"
        result = _invoke(runner, "simserver", "init", "--domain", domain,
                         "--out", str(out), "--cert-out", str(cert), "--seed", "1")
        assert result.exit_code == 9
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output + result.stderr
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

    def test_serve_logs_what_it_answers_after_an_interrupt(self, runner, deployed, monkeypatch):
        """After Ctrl-C, the insurer a still-open connection talks to keeps
        logging: a REGISTER it answers is in the log."""
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
        channel = InProcessChannel(servers[0].insurer)
        state = ClientState.register(channel, 86_400, rng=RandomSource(6),
                                     group=crypto.TOY_GROUP)
        reloaded = Insurer.load(os.path.join(deployed["insurer"], "insurer.log"))
        assert reloaded.contracts[state.customer] == state.contract


class TestOneWriter:
    """insurer serve and a client command with --insurer-dir lock the log
    while they use it, so a second writer refuses to start."""

    @staticmethod
    def _interrupted_server(monkeypatch, on_serve):
        class Interrupted(InsurerServer):
            def service_actions(self):
                on_serve(self)
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "InsurerServer", Interrupted)

    @pytest.mark.parametrize("command", ["insurer-serve", "client-update"])
    def test_log_another_process_holds_is_refused(self, runner, deployed, monkeypatch,
                                                  command):
        self._interrupted_server(monkeypatch, lambda server: None)
        log = os.path.join(deployed["insurer"], "insurer.log")
        before = Path(log).read_bytes()
        if command == "insurer-serve":
            args = ("insurer", "serve", "--state-dir", deployed["insurer"], "--port", "0")
        else:
            args = ("client", "update", "--state-dir", deployed["client"],
                    "--insurer-dir", deployed["insurer"])
        with open(log, "rb") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            result = _invoke(runner, *args)
        assert result.exit_code == 1
        assert result.stderr == f"error: {log} is in use by another process\n"
        assert Path(log).read_bytes() == before

    def test_serve_holds_the_lock_until_it_ends(self, runner, deployed, monkeypatch):
        log = os.path.join(deployed["insurer"], "insurer.log")
        refused = []

        def try_lock(server):
            with open(log, "rb") as second:
                try:
                    fcntl.flock(second, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    refused.append(True)

        self._interrupted_server(monkeypatch, try_lock)
        result = _invoke(runner, "insurer", "serve", "--state-dir", deployed["insurer"],
                         "--port", "0")
        assert result.exit_code == 0 and refused == [True]
        update = _invoke(runner, "client", "update", "--state-dir", deployed["client"],
                         "--insurer-dir", deployed["insurer"])
        assert update.exit_code == 0
