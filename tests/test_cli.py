"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lowpm import cli, oracle_min_weight, parse_instance
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

    def test_oracle_limit_above_the_maximum_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inst.sk"
        run(capsys, "gen", "random", "--order", "8", "--imbalance", "0", "-o", str(path))
        with pytest.raises(SystemExit) as info:
            main(["oracle", str(path), "--oracle-limit", "25"])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert "--oracle-limit" in captured.err and "maximum is 24" in captured.err

    @pytest.mark.parametrize("prog,argv", [
        ("oracle", ("oracle", "{path}")),
        ("verify tight", ("verify", "tight", "--n", "2", "--k", "2")),
    ], ids=["oracle", "verify-tight"])
    @pytest.mark.parametrize("limit", ["-3", "0"])
    def test_oracle_limit_below_the_minimum_exits_2(self, tmp_path, capsys, prog, argv, limit):
        path = tmp_path / "inst.sk"
        path.write_text("signed-k 1\norder 8\nsigns " + "+-" * 14 + "\n")
        with pytest.raises(SystemExit) as info:
            main([arg.format(path=path) for arg in argv] + ["--oracle-limit", limit])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [f"lowpm {prog}: error: argument --oracle-limit: "
                          f"the minimum is 2, got {limit}"]
        assert "Traceback" not in captured.err

    def test_oracle_limit_at_the_minimum_answers_order_2(self, tmp_path, capsys):
        path = tmp_path / "k2.sk"
        path.write_text("signed-k 1\norder 2\nsigns -\n")
        code, out, err = run(capsys, "oracle", str(path), "--oracle-limit", "2")
        assert code == 0
        assert err == ""
        assert out.splitlines() == ["min_weight 1", "matching 0-1"]

    @pytest.mark.parametrize("argv", [("oracle",), ("solve", "--check-oracle")],
                             ids=["oracle", "solve"])
    def test_past_oracle_limit_names_the_flag(self, tmp_path, capsys, argv):
        path = tmp_path / "r20.sk"
        run(capsys, "gen", "random", "--order", "20", "--seed", "1", "-o", str(path))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:], "--oracle-limit", "16")
        assert code == 2
        assert out == ""
        assert err.startswith("error: order 20 exceeds the oracle limit 16")
        assert err.count("\n") == 1
        assert "--oracle-limit" in err and "order_limit" not in err


    def test_check_oracle_refuses_before_the_search(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "r20.sk"
        run(capsys, "gen", "random", "--order", "20", "--seed", "1", "-o", str(path))
        calls = []
        monkeypatch.setattr(cli, "local_search_min_weight", lambda *a, **kw: calls.append(a))
        code, out, err = run(capsys, "solve", str(path), "--check-oracle",
                             "--oracle-limit", "16")
        assert code == 2
        assert out == ""
        assert err.startswith("error: order 20 exceeds the oracle limit 16")
        assert calls == []


class TestOneOracleLimit:
    def test_order_20_runs_with_no_flag(self, tmp_path, capsys):
        path = tmp_path / "r20.sk"
        run(capsys, "gen", "random", "--order", "20", "--seed", "1", "-o", str(path))
        expected, _ = oracle_min_weight(parse_instance(path.read_text()))
        code, out, err = run(capsys, "oracle", str(path))
        assert code == 0
        assert err == ""
        assert out.splitlines()[0] == f"min_weight {expected}"

    @pytest.mark.parametrize("argv", [
        ("verify", "tight", "--n", "50", "--k", "2", "--oracle-limit", "20"),
        ("sweep", "tight", "--n-min", "40", "--n-max", "40", "--k-min", "2", "--k-max", "2",
         "--oracle-limit", "18"),
    ], ids=["verify", "sweep"])
    def test_tight_past_the_limit_writes_no_stderr(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert err == ""

    def test_order_26_refuses_with_no_flag(self, tmp_path, capsys):
        path = tmp_path / "r26.sk"
        # C(26, 2) is odd, so the imbalance is too
        assert run(capsys, "gen", "random", "--order", "26", "--imbalance", "1",
                   "-o", str(path))[0] == 0
        code, out, err = run(capsys, "oracle", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: order 26 exceeds the oracle limit 24")
        assert err.count("\n") == 1


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

    @pytest.mark.parametrize("argv,ways_out", [
        (("thm1", "--n", "5"), ("--oracle-limit", "--mode solver")),
        (("thm2", "--n", "5", "--k", "2"), ("--oracle-limit",)),
    ], ids=["thm1", "thm2"])
    def test_past_oracle_limit_names_the_ways_out(self, capsys, argv, ways_out):
        code, out, err = run(capsys, "verify", *argv, "--oracle-limit", "16")
        assert code == 2
        assert out == ""
        assert err.startswith("error: order 20 exceeds the oracle limit 16")
        assert err.count("\n") == 1
        assert all(way in err for way in ways_out)
        assert "mode='solver'" not in err

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

    @pytest.mark.parametrize("n_max,workers", [(1, None), (2, 2)])
    def test_jobs_capped_at_grid_cells(self, capsys, monkeypatch, n_max, workers):
        # a fake pool that records its size and maps in this process: a real
        # pool forks all of its workers at the first submit
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        args = ["sweep", "tight", "--n-max", str(n_max), "--k-min", "1", "--k-max", "1"]
        code, out, _ = run(capsys, *args, "--jobs", "4")
        assert code == 0
        assert sizes == ([] if workers is None else [workers])
        assert out == run(capsys, *args)[1]

    @pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-3"),
                                            ("--jobs", "0"), ("--jobs", "-1")])
    def test_nonpositive_counts_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "sweep", "thm2", "--n-max", "1", "--k-max", "2",
                             flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag} must be a positive integer, got {value}" in err

    def test_thm2_refuses_before_any_cell(self, capsys, monkeypatch):
        # the n = 4 cells fit the oracle, the n = 5 ones do not
        calls = []
        monkeypatch.setattr(cli, "verify_theorem2", lambda *a, **kw: calls.append(a))
        code, out, err = run(capsys, "sweep", "thm2", "--n-min", "4", "--n-max", "5",
                             "--k-max", "2", "--oracle-limit", "16")
        assert code == 2
        assert out == ""
        assert err.startswith("error: order 20 exceeds the oracle limit 16")
        assert calls == []

    def test_empty_grid_exit_2(self, capsys):
        code, _, err = run(capsys, "sweep", "thm2", "--n-min", "3", "--n-max", "2",
                           "--k-min", "2", "--k-max", "2")
        assert code == 2
        assert "grid" in err


def module_env(**extra):
    """The environment for ``python -m lowpm`` run from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "thm9"])
        assert info.value.code == 2

    def test_improvement_flag_is_gone(self, tmp_path):
        path = tmp_path / "inst.sk"
        path.write_text("signed-k 1\norder 4\nsigns ++-+-+\n")
        with pytest.raises(SystemExit) as info:
            main(["solve", str(path), "--improvement", "best"])
        assert info.value.code == 2

    def test_prop2_oracle_limit_flag_is_gone(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "prop2", "--k", "2", "--oracle-limit", "16"])
        assert info.value.code == 2

    def test_import_leaves_the_process_pool_out(self):
        # only sweep --jobs > 1 starts a pool; every other command skips its imports
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, lowpm.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, env=module_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_python_dash_m(self, tmp_path):
        env = module_env()
        path = tmp_path / "inst.sk"
        path.write_text("signed-k 1\norder 4\nsigns ++-+-+\n")
        done = subprocess.run([sys.executable, "-m", "lowpm", "oracle", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "min_weight 0\nmatching 0-2 1-3\n"

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_one_error_line_exit_2(self, unbuffered):
        proc = subprocess.Popen(
            [sys.executable, "-m", "lowpm", "verify", "thm2", "--n", "1", "--k", "2",
             "--samples", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=module_env(PYTHONUNBUFFERED=unbuffered))
        proc.stdout.close()  # at once: the child is still starting its interpreter
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
