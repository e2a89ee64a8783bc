"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lowpm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_prop2_to_file_then_oracle(self, tmp_path, capsys):
        path = tmp_path / "inst.sk"
        code, out, _ = run(capsys, "gen", "prop2", "--k", "2", "-o", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("signed-k 1\norder 8\nsigns ")

        code, out, _ = run(capsys, "oracle", str(path))
        assert code == 0
        assert out.splitlines()[0] == "min_weight 2"
        assert out.splitlines()[1].startswith("matching ")

    def test_clique_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "clique", "--n", "2", "--k", "2")
        assert code == 0
        assert "order 8" in out
        assert out.count("+") == 28

    def test_random_balanced(self, tmp_path, capsys):
        path = tmp_path / "r.sk"
        code, _, _ = run(capsys, "gen", "random", "--order", "8", "--imbalance", "0",
                         "--seed", "7", "-o", str(path))
        assert code == 0
        body = path.read_text().splitlines()[2].removeprefix("signs ")
        assert body.count("+") == body.count("-") == 14

    def test_parity_error_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "random", "--order", "8", "--imbalance", "1")
        assert code == 2
        assert "parity" in err

    def test_bad_parameter_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "clique", "--n", "2", "--k", "5")
        assert code == 2
        assert "k <= n" in err


class TestSolveAndOracle:
    def test_solve_with_oracle_check(self, tmp_path, capsys):
        path = tmp_path / "inst.sk"
        run(capsys, "gen", "random", "--order", "8", "--imbalance", "0",
            "--seed", "3", "-o", str(path))
        code, out, _ = run(capsys, "solve", str(path), "--seed", "7", "--check-oracle")
        assert code == 0
        assert "final_weight 0" in out
        assert "oracle_min_weight 0" in out
        assert "oracle_agreement true" in out

    def test_solve_json_format(self, tmp_path, capsys):
        path = tmp_path / "inst.sk"
        run(capsys, "gen", "prop2", "--k", "2", "-o", str(path))
        code, out, _ = run(capsys, "solve", str(path), "--seed", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["final_weight"]) == 2
        assert payload["matching"].startswith("matching ")

    def test_oracle_json(self, tmp_path, capsys):
        path = tmp_path / "inst.sk"
        run(capsys, "gen", "prop2", "--k", "2", "-o", str(path))
        code, out, _ = run(capsys, "oracle", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["min_weight"] == 2

    def test_missing_file_names_path(self, capsys):
        code, _, err = run(capsys, "oracle", "/nonexistent/inst.sk")
        assert code == 2
        assert "/nonexistent/inst.sk" in err

    def test_malformed_instance_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.sk"
        path.write_text("signed-k 1\norder 8\nsigns +++\n")
        code, _, err = run(capsys, "oracle", str(path))
        assert code == 2
        assert "28" in err

    def test_non_ascii_order_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.sk"
        path.write_text("signed-k 1\norder ²\nsigns ++-+-+\n", encoding="utf-8")
        code, _, err = run(capsys, "oracle", str(path))
        assert code == 2
        assert "line 2" in err

    def test_non_utf8_instance_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.sk"
        path.write_bytes(b"signed-k 1\norder 4\nsigns \xff\xfe\n")
        code, out, err = run(capsys, "oracle", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert str(path) in err and "byte offset 25" in err

    def test_oracle_limit_warning(self, tmp_path, capsys):
        path = tmp_path / "inst.sk"
        run(capsys, "gen", "random", "--order", "8", "--imbalance", "0", "-o", str(path))
        code, _, err = run(capsys, "oracle", str(path), "--oracle-limit", "18")
        assert code == 0
        assert "warning" in err


class TestVerify:
    def test_thm1_exhaustive(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1", "--n", "1", "--exhaustive")
        assert code == 0
        assert "tested      20" in out

    def test_thm1_sampled_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "thm1", "--n", "2", "--samples", "25",
                             "--seed", "7", "--format", "json")
        code2, out2, _ = run(capsys, "verify", "thm1", "--n", "2", "--samples", "25",
                             "--seed", "7", "--format", "json")
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b

    def test_thm2_csv(self, capsys):
        code, out, _ = run(capsys, "verify", "thm2", "--n", "1", "--k", "2",
                           "--samples", "6", "--seed", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,s,seed,min_weight,bound,pass"
        assert len(lines) >= 7

    def test_prop2_and_tight(self, capsys):
        assert run(capsys, "verify", "prop2", "--k", "2")[0] == 0
        assert run(capsys, "verify", "tight", "--n", "3", "--k", "2")[0] == 0

    def test_eg(self, capsys):
        code, out, _ = run(capsys, "verify", "eg", "--n", "2", "--k", "1",
                           "--samples", "50", "--seed", "3")
        assert code == 0

    def test_invalid_n_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "thm1", "--n", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("thm1", "--n", "1", "--samples", "0"),
        ("thm1", "--n", "1", "--samples", "-3"),
        ("thm2", "--n", "1", "--k", "2", "--grid", "full", "--samples", "0"),
        ("thm2", "--n", "1", "--k", "2", "--samples", "-3"),
        ("eg", "--n", "2", "--k", "1", "--samples", "0"),
    ])
    def test_no_samples_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert "samples must be a positive integer" in err

    def test_thm1_exhaustive_ignores_samples(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1", "--n", "1", "--exhaustive",
                           "--samples", "0")
        assert code == 0
        assert "tested      20" in out


class TestSweep:
    def test_thm2_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "thm2", "--n-min", "1", "--n-max", "2",
                           "--k-min", "2", "--k-max", "2", "--samples", "4", "--seed", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,s,seed,min_weight,bound,pass"
        assert {line.split(",")[0] for line in lines[1:]} == {"1", "2"}

    def test_parallel_matches_serial(self, capsys):
        args = ["sweep", "tight", "--n-min", "1", "--n-max", "3", "--k-min", "1",
                "--k-max", "3", "--seed", "1"]
        code1, out1, _ = run(capsys, *args, "--jobs", "1")
        code2, out2, _ = run(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-3"),
                                            ("--jobs", "0"), ("--jobs", "-1")])
    def test_nonpositive_counts_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "sweep", "thm2", "--n-max", "1", "--k-max", "2",
                             flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag} must be a positive integer, got {value}" in err

    def test_empty_grid_exit_2(self, capsys):
        code, _, err = run(capsys, "sweep", "thm2", "--n-min", "3", "--n-max", "2",
                           "--k-min", "2", "--k-max", "2")
        assert code == 2
        assert "grid" in err


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "thm9"])
        assert info.value.code == 2

    def test_python_dash_m(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        path = tmp_path / "inst.sk"
        path.write_text("signed-k 1\norder 4\nsigns ++-+-+\n")
        done = subprocess.run([sys.executable, "-m", "lowpm", "oracle", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "min_weight 0\nmatching 0-2 1-3\n"
