import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from conftest import subprocess_env

from pactrellis import cli, sim
from pactrellis.pac_core import PacCode, pac_encode
from pactrellis.sc_engine import ContractViolationError


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "pactrellis", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=subprocess_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestEncode:
    def test_zero_message(self):
        rc, out, _ = run_cli("encode", "--n", "3", "--k", "4", "--gen", "0o3", "--message", "0000")
        assert rc == 0
        assert out.strip() == "0" * 8

    def test_trace_has_three_stage_lines(self):
        rc, out, _ = run_cli(
            "encode", "--n", "3", "--k", "4", "--gen", "0o3", "--message", "1011", "--trace"
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        for prefix, line in zip(("v=", "u=", "x="), lines):
            assert line.startswith(prefix)
            assert len(line) == 2 + 8

    def test_matches_library(self, rng):
        code = PacCode.rm(4, 8, 0o7)
        for _ in range(5):
            d = rng.integers(0, 2, 8, dtype=np.int8)
            msg = "".join(str(b) for b in d)
            rc, out, _ = run_cli("encode", "--n", "4", "--k", "8", "--gen", "0o7", "--message", msg)
            assert rc == 0
            assert out.strip() == "".join(str(b) for b in pac_encode(d, code))

    def test_hex_message(self):
        rc_hex, out_hex, _ = run_cli("encode", "--n", "3", "--k", "4", "--gen", "0o3",
                                     "--message", "0xB")
        rc_bin, out_bin, _ = run_cli("encode", "--n", "3", "--k", "4", "--gen", "0o3",
                                     "--message", "1011")
        assert rc_hex == rc_bin == 0
        assert out_hex == out_bin


class TestDecodeCommand:
    def test_round_trip(self):
        code = PacCode.rm(3, 4, 0o3)
        x = pac_encode(np.array([1, 0, 1, 1], dtype=np.int8), code)
        llrs = ",".join(str(5.0 * (1 - 2 * int(b))) for b in x)
        rc, out, _ = run_cli("decode", "--n", "3", "--k", "4", "--gen", "0o3", f"--llr={llrs}")
        assert rc == 0
        assert out.splitlines()[0] == "d=1011"

    def test_llr_file(self, tmp_path):
        code = PacCode.rm(3, 4, 0o3)
        x = pac_encode(np.array([0, 1, 1, 0], dtype=np.int8), code)
        path = tmp_path / "llr.txt"
        path.write_text("\n".join(str(4.0 * (1 - 2 * int(b))) for b in x))
        rc, out, _ = run_cli("decode", "--n", "3", "--k", "4", "--gen", "0o3",
                             "--llr-file", str(path))
        assert rc == 0
        assert out.splitlines()[0] == "d=0110"

    @pytest.mark.parametrize("llrs", ["nan,nan,nan,nan,nan,nan,nan,nan",
                                      "inf,inf,inf,inf,inf,inf,inf,inf",
                                      "4,-4,4,nan,4,4,-4,4"])
    def test_non_finite_llrs_are_usage_errors(self, llrs, capsys):
        # an all-NaN vector used to print d=0000 metric=0.0 and exit 0
        rc = cli.main(["decode", "--n", "3", "--k", "4", "--gen", "0o3", f"--llr={llrs}"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and "finite" in err

    def test_llrs_past_the_bound_are_usage_errors(self, capsys):
        # 1e308 is finite, but sums of eight such LLRs overflow inside the decoder
        rc = cli.main(["decode", "--n", "3", "--k", "4", "--gen", "0o3",
                       "--llr=1e308,4,-4,4,4,4,-4,4"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("llr_flags", [(), ("--llr=1,1,1,1,1,1,1,1", "--llr-file", "x.txt")],
                             ids=["neither", "both"])
    def test_llrs_from_exactly_one_flag(self, llr_flags, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", "--n", "3", "--k", "4", "--gen", "0o3", *llr_flags])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == "" and "--llr" in err


class TestSimulate:
    BASE = ("simulate", "--n", "4", "--k", "8", "--gen", "0o3",
            "--snr", "2.0", "--min-errors", "5", "--max-trials", "200", "--seed", "7")

    def test_sc_equals_scl_l1_global(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rc1, _, _ = run_cli(*self.BASE, "--decoder", "sc", "--out", str(a))
        rc2, _, _ = run_cli(*self.BASE, "--decoder", "scl", "--list", "1", "--out", str(b))
        assert rc1 == rc2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_va_equals_lva_l1_local(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rc1, _, _ = run_cli(*self.BASE, "--decoder", "va", "--out", str(a))
        rc2, _, _ = run_cli(*self.BASE, "--decoder", "lva", "--list", "1", "--out", str(b))
        assert rc1 == rc2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seeded_runs_reproduce_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*self.BASE, "--decoder", "scl", "--list", "4", "--out", str(a))
        run_cli(*self.BASE, "--decoder", "scl", "--list", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_non_power_of_two_block_length(self):
        rc, _, err = run_cli("simulate", "--N", "100", "--k", "8", "--gen", "0o3",
                             "--snr", "2.0", "--decoder", "sc")
        assert rc == 2
        assert "power of two" in err

    def test_local_sort_needs_memory(self):
        rc, _, err = run_cli("simulate", "--n", "4", "--k", "8", "--gen", "0o1",
                             "--snr", "2.0", "--decoder", "lva", "--list", "2")
        assert rc == 2
        assert "m = 0" in err or "memory" in err

    @pytest.mark.parametrize("flags", [("--decoder", "sc", "--list", "4"),
                                       ("--decoder", "va", "--list", "2"),
                                       ("--decoder", "scl")],
                             ids=["sc-list-4", "va-list-2", "scl-no-list"])
    def test_list_size_must_match_decoder(self, flags, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = cli.main([*self.BASE, *flags, "--out", str(out)])
        assert rc == 2
        assert "list size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, points", [
        ("1:0.6:2", (1.0, 1.6)),  # the last point never passes b
        ("2:0.6:3", (2.0, 2.6)),
        ("1.0:0.1:1.3", (1.0, 1.1, 1.2, 1.3)),
        ("1:0.5:3", (1.0, 1.5, 2.0, 2.5, 3.0)),
        ("2:1:2", (2.0,)),
    ])
    def test_snr_range_stops_at_its_end(self, text, points):
        assert cli._parse_snr(text) == points

    @pytest.mark.parametrize("snr", ["nan", "2.0,inf"])
    def test_non_finite_snr_is_usage_error(self, snr, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = cli.main(["simulate", "--n", "4", "--k", "8", "--gen", "0o3", "--snr", snr,
                       "--decoder", "sc", "--out", str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_usage_error(self, workers, tmp_path, capsys):
        # used to run serially with exit 0
        out = tmp_path / "r.csv"
        rc = cli.main([*self.BASE, "--decoder", "sc", "--workers", workers, "--out", str(out)])
        assert rc == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_broken_process_pool_is_runtime_error(self, monkeypatch, capsys):
        def broken(plan, workers=1):
            raise BrokenProcessPool("a worker process died")

        monkeypatch.setattr(sim, "run_sweep", broken)
        rc = cli.main([*self.BASE, "--decoder", "sc", "--workers", "2"])
        assert rc == 3
        assert "worker process died" in capsys.readouterr().err

    def test_other_runtime_error_propagates(self, monkeypatch):
        def violated(plan, workers=1):
            raise ContractViolationError("no surviving paths to select from")

        monkeypatch.setattr(sim, "run_sweep", violated)
        with pytest.raises(ContractViolationError, match="no surviving paths"):
            cli.main([*self.BASE, "--decoder", "sc"])

    def test_serial_run_loads_no_pool_modules(self, tmp_path):
        # no --json: its confidence interval imports scipy, which loads concurrent.futures
        script = f"""
import sys
import pactrellis, pactrellis.cli
rc = pactrellis.cli.main([*{self.BASE!r}, "--decoder", "scl", "--list", "2",
                          "--out", {str(tmp_path / "r.csv")!r}])
assert rc == 0, rc
print(" ".join(m for m in sys.modules if m.startswith(("multiprocessing", "concurrent"))))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_json_run_loads_no_scipy_stats(self, tmp_path):
        # the envelope's Clopper-Pearson bounds come from scipy.special alone
        script = f"""
import sys
import pactrellis.cli
rc = pactrellis.cli.main([*{self.BASE!r}, "--decoder", "sc", "--out", {str(tmp_path / "r.csv")!r},
                          "--json", {str(tmp_path / "r.json")!r}])
assert rc == 0, rc
print(" ".join(m for m in sys.modules if m.startswith("scipy.stats")))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""
        assert "fer_high" in (tmp_path / "r.json").read_text()

    def test_stdout_when_no_out(self):
        rc, out, _ = run_cli(*self.BASE, "--decoder", "sc")
        assert rc == 0
        assert out.startswith("ebno_db,trials,")

    def test_json_envelope(self, tmp_path):
        out, js = tmp_path / "r.csv", tmp_path / "r.json"
        rc, _, _ = run_cli(*self.BASE, "--decoder", "sc", "--out", str(out), "--json", str(js))
        assert rc == 0
        import json

        doc = json.loads(js.read_text())
        assert doc["plan"]["decoder"] == "sc"


class TestLatency:
    def test_reference_row(self):
        rc, out, _ = run_cli("latency", "--k", "128", "--list", "128", "--m", "4")
        assert rc == 0
        row = out.strip().split("\n")[1].split()
        assert "4608" in row and "896" in row and "80.6%" in row

    def test_m0_relation_visible(self):
        import math

        rc, out, _ = run_cli("latency", "--k", "16", "--list", "4,16", "--m", "0")
        assert rc == 0
        for line in out.strip().split("\n")[1:]:
            cols = line.split()
            L, psi_ld_col, psi_lva_col = int(cols[0]), int(cols[3]), int(cols[4])
            assert psi_ld_col == psi_lva_col + int(math.log2(L))

    def test_grid_row_count(self):
        rc, out, _ = run_cli("latency", "--k", "8", "--list", "8,16,32", "--m", "0,1")
        assert rc == 0
        assert len(out.strip().split("\n")) == 1 + 3 * 2

    def test_csv_output(self, tmp_path):
        path = tmp_path / "lat.csv"
        rc, _, _ = run_cli("latency", "--k", "128", "--list", "128", "--m", "4",
                           "--csv", str(path))
        assert rc == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("L,m,ell,")
        assert lines[1].startswith("128,4,8,36,7,4608,896,")

    def test_invalid_params(self):
        rc, _, _ = run_cli("latency", "--k", "128", "--list", "12", "--m", "4")
        assert rc == 2

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one_is_usage_error(self, k, capsys):
        # --k 0 used to die in a ZeroDivisionError, --k -3 to print negative totals
        rc = cli.main(["latency", "--k", k, "--list", "4", "--m", "1"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "K must be at least 1" in err and out == ""


class TestProfile:
    @pytest.mark.parametrize("command", ["profile", "encode", "decode", "simulate"])
    def test_negative_n_is_usage_error(self, command, capsys):
        # used to exit 2 with "negative shift count"
        extra = {"profile": [], "encode": ["--message", "1"], "decode": ["--llr", "1"],
                 "simulate": ["--snr", "2.0"]}[command]
        rc = cli.main([command, "--n", "-1", "--k", "1", *extra])
        assert rc == 2
        assert "n must be nonnegative" in capsys.readouterr().err

    def test_small_profile(self):
        rc, out, _ = run_cli("profile", "--n", "3", "--k", "4")
        assert rc == 0
        assert out.strip() == "3 5 6 7"

    def test_128_64_weights(self):
        rc, out, _ = run_cli("profile", "--n", "7", "--k", "64")
        assert rc == 0
        indices = [int(tok) for tok in out.split()]
        assert len(indices) == 64
        assert all(bin(i).count("1") >= 4 for i in indices)

    def test_saved_file_reloads_identically(self, tmp_path):
        prof = tmp_path / "prof.txt"
        rc, out, _ = run_cli("profile", "--n", "4", "--k", "8", "--out", str(prof))
        assert rc == 0
        rc2, out2, _ = run_cli(
            "encode", "--n", "4", "--k", "8", "--gen", "0o3",
            "--profile", f"file:{prof}", "--message", "10110010",
        )
        rc3, out3, _ = run_cli(
            "encode", "--n", "4", "--k", "8", "--gen", "0o3",
            "--profile", "rm", "--message", "10110010",
        )
        assert rc2 == rc3 == 0
        assert out2 == out3


class TestCodeSpecFile:
    def test_code_file_flag(self, tmp_path):
        spec = tmp_path / "code.txt"
        spec.write_text("n=3\nk=4\ngen=0o3\nprofile=rm\n")
        rc, out, _ = run_cli("encode", "--code", str(spec), "--message", "0000")
        assert rc == 0
        assert out.strip() == "0" * 8

    @pytest.mark.parametrize("flags", [("--k", "2"), ("--gen", "0o7"), ("--profile", "rm"),
                                       ("--k", "4", "--gen", "0o3")])
    def test_code_file_rejects_code_flags(self, flags, tmp_path, capsys):
        # these used to be ignored silently in favour of the file
        spec = tmp_path / "code.txt"
        spec.write_text("n=3\nk=4\ngen=0o3\nprofile=rm\n")
        rc = cli.main(["encode", "--code", str(spec), *flags, "--message", "0000"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and "--code" in err and flags[0] in err

    @pytest.mark.parametrize("flags", [("--n", "2", "--N", "8"), ("--code", "c.txt", "--n", "5"),
                                       ("--code", "c.txt", "--N", "8")],
                             ids=["n-N", "code-n", "code-N"])
    def test_length_flags_are_exclusive(self, flags, capsys):
        # --n 2 --N 8 used to encode with N = 8 without a word
        with pytest.raises(SystemExit) as exc:
            cli.main(["encode", *flags, "--k", "2", "--message", "00"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == "" and "not allowed with" in err

    def test_missing_subcommand_usage_error(self):
        rc, _, _ = run_cli()
        assert rc == 2
