"""Command-line interface: subcommands, formats, exit codes."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lowpm import (
    cli,
    oracle_min_weight,
    parse_instance,
    random_with_imbalance,
    serialize_instance,
    solver,
    verifier,
)
from lowpm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def missing_by_two(real):
    """A local search that reports a weight 2 above the one it found."""
    def solve(g, seed):
        matching, report = real(g, seed=seed)
        report.final_weight += 2
        return matching, report

    return solve


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

    def test_odd_order_exit_2_names_the_order(self, capsys):
        code, out, err = run(capsys, "gen", "random", "--order", "3", "--imbalance", "0")
        assert (code, out) == (2, "")
        assert "order must be an even integer >= 2, got 3" in err
        assert "imbalance" not in err

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

    def test_solve_disagreeing_with_the_oracle_exits_1(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "inst.sk"
        run(capsys, "gen", "random", "--order", "8", "--imbalance", "0",
            "--seed", "3", "-o", str(path))
        monkeypatch.setattr(cli, "local_search_min_weight",
                            missing_by_two(cli.local_search_min_weight))
        code, out, err = run(capsys, "solve", str(path), "--seed", "7", "--check-oracle")
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert "final_weight 2" in lines and "oracle_min_weight 0" in lines
        assert "oracle_agreement false" in lines

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

    @pytest.mark.parametrize("text,where", [
        ("signed-k 1\n", "line 2, column 1: missing 'order <N>' line"),
        ("signed-k 1\norder 8\n", "line 3, column 1: expected 'signs <+/- string>'"),
    ], ids=["header-only", "no-signs"])
    def test_truncated_instance_exit_2(self, tmp_path, capsys, text, where):
        path = tmp_path / "short.sk"
        path.write_text(text)
        code, out, err = run(capsys, "oracle", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {where}"]

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
        ("sweep", "tight", "--n-min", "40", "--n-max", "40", "--k-min", "2", "--k-max", "2"),
    ], ids=["verify", "sweep"])
    def test_tight_past_the_limit_writes_no_stderr(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert err == ""

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        """The order of each ``oracle_min_weight`` call, wherever it is looked up."""
        calls = []
        real = solver.oracle_min_weight

        def spy(g, *args):
            calls.append(g.order)
            return real(g, *args)

        for module in (solver, verifier, cli):
            monkeypatch.setattr(module, "oracle_min_weight", spy)
        return calls

    def test_tight_never_calls_the_oracle(self, capsys, oracle_calls):
        for argv in (("verify", "tight", "--n", "5", "--k", "2"),
                     ("verify", "tight", "--n", "6", "--k", "6", "--oracle-limit", "24"),
                     ("sweep", "tight", "--n-min", "5", "--n-max", "6", "--k-min", "1",
                      "--k-max", "6", "--jobs", "1")):
            assert run(capsys, *argv)[0] == 0
        assert oracle_calls == []
        # the spy does see the oracle's callers
        assert run(capsys, "verify", "thm1", "--n", "1", "--samples", "1")[0] == 0
        assert oracle_calls == [4]

    def test_thm2_never_calls_the_oracle(self, capsys, oracle_calls):
        # the limit is still parsed on verify thm2, for the benchmark's argv, but read by nothing
        for argv in (("verify", "thm2", "--n", "5", "--k", "2", "--oracle-limit", "16"),
                     ("verify", "thm2", "--n", "7", "--k", "3", "--samples", "10"),
                     ("sweep", "thm2", "--n-min", "5", "--n-max", "7", "--k-max", "3",
                      "--samples", "5", "--jobs", "1")):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, "")
        assert oracle_calls == []

    @pytest.mark.parametrize("argv,line", [
        (("oracle", "{r26}"),
         "order 26 exceeds the oracle limit 24 and the most --oracle-limit accepts, 24"),
        (("oracle", "{r20}", "--oracle-limit", "16"),
         "order 20 exceeds the oracle limit 16; raise the limit (--oracle-limit)"),
        (("solve", "{r20}", "--check-oracle", "--oracle-limit", "16"),
         "order 20 exceeds the oracle limit 16; raise the limit (--oracle-limit)"),
        (("verify", "thm1", "--n", "5", "--oracle-limit", "16"),
         "order 20 exceeds the oracle limit 16; raise the limit (--oracle-limit)"
         " or check with the solver alone (--mode solver)"),
        (("verify", "thm1", "--n", "7"),
         "order 28 exceeds the oracle limit 24 and the most --oracle-limit accepts, 24;"
         " check with the solver alone (--mode solver)"),
    ], ids=["oracle-26", "oracle-20-at-16", "solve-20-at-16", "thm1-20-at-16", "thm1-28"])
    def test_refusal_line_is_exact(self, tmp_path, capsys, argv, line):
        paths = {"r20": tmp_path / "r20.sk", "r26": tmp_path / "r26.sk"}
        paths["r20"].write_text(serialize_instance(random_with_imbalance(20, 0, 1)))
        paths["r26"].write_text(serialize_instance(random_with_imbalance(26, 1, 0)))
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, out) == (2, "")
        assert err == (f"error: {line} (one oracle call takes ~30 ms at order 20 and ~0.25 s"
                       " at order 24, growing ~3x per two vertices)\n")

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

    def test_thm1_solver_mismatch_is_replayable_and_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(verifier, "local_search_min_weight",
                            missing_by_two(verifier.local_search_min_weight))
        argv = ("verify", "thm1", "--n", "1", "--samples", "1", "--seed", "5", "--mode", "both")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert (payload["tested"], payload["passed"], payload["failures"]) == (1, 1, [])
        [entry] = payload["stats"]["solver_mismatches"]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        seed = int(out.splitlines()[1].split(",")[3])
        g = parse_instance(entry["instance"])
        assert g == random_with_imbalance(4, 0, seed)
        assert entry["expected"] == f"solver |weight| {oracle_min_weight(g)[0]}"
        assert entry["observed"] == "solver weight 2"
        code, out, _ = run(capsys, *argv)
        assert code == 1
        lines = out.splitlines()
        assert "solver_mismatches 1" in lines
        at = lines.index(f"MISMATCH expected {entry['expected']}, observed {entry['observed']}")
        replayed = parse_instance(lines[at + 1].strip().replace(" / ", "\n") + "\n")
        assert replayed == random_with_imbalance(4, 0, seed)
        assert not any(line.startswith("FAIL") for line in lines)

    def test_thm2_counterexample_exits_1(self, capsys, monkeypatch):
        real = verifier.certify

        def heavy(g):
            # a proven minimum of 4, above k = 2's threshold of 2
            return real(g)._replace(weight=4, bound=4)

        monkeypatch.setattr(verifier, "certify", heavy)
        argv = ("verify", "thm2", "--n", "2", "--k", "2", "--samples", "1", "--seed", "5")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1
        [entry] = json.loads(out)["failures"]
        assert (entry["expected"], entry["observed"]) == ("min_weight <= 2", "min_weight 4")
        assert run(capsys, *argv)[0] == 1

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
    ], ids=["thm1"])
    def test_past_oracle_limit_names_the_ways_out(self, capsys, argv, ways_out):
        code, out, err = run(capsys, "verify", *argv, "--oracle-limit", "16")
        assert code == 2
        assert out == ""
        assert err.startswith("error: order 20 exceeds the oracle limit 16")
        assert err.count("\n") == 1
        assert all(way in err for way in ways_out)
        assert "mode='solver'" not in err

    @pytest.mark.parametrize("argv,first", [
        (("--n", "7", "--samples", "0"), "order 28 exceeds the oracle limit 24"),
        (("--n", "7", "--exhaustive"), "order 28 exceeds the oracle limit 24"),
        (("--n", "5", "--oracle-limit", "16", "--samples", "0"),
         "order 20 exceeds the oracle limit 16"),
        (("--n", "7", "--mode", "solver", "--samples", "0"),
         "samples must be a positive integer, got 0"),
    ], ids=["samples", "exhaustive", "samples-at-16", "solver-samples"])
    def test_thm1_names_the_limit_before_samples_or_exhaustive(self, capsys, argv, first):
        # the CLI refuses an order past the limit before verify_theorem1 reads the rest;
        # in mode solver there is no limit to refuse
        code, out, err = run(capsys, "verify", "thm1", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {first}") and err.count("\n") == 1

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

    def test_text_format_names_each_cell(self, capsys, monkeypatch):
        args = ("sweep", "tight", "--n-max", "2", "--k-min", "1", "--k-max", "2",
                "--format", "text")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out.splitlines() == ["n=1 k=1 instances=1 pass", "n=2 k=1 instances=1 pass",
                                    "n=2 k=2 instances=1 pass"]

        real = cli.verify_tightness

        def failing_at_2_2(n, k):
            report = real(n, k)
            if (n, k) == (2, 2):
                report.failures.append({"instance": "", "expected": "", "observed": ""})
            return report

        monkeypatch.setattr(cli, "verify_tightness", failing_at_2_2)
        code, out, _ = run(capsys, *args)
        assert code == 1
        assert out.splitlines()[-1] == "n=2 k=2 instances=1 FAIL"
        assert out.splitlines()[:2] == ["n=1 k=1 instances=1 pass", "n=2 k=1 instances=1 pass"]

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The size of each process pool a sweep asks for, on 8 CPUs.

        The fake pool maps in this process: a real one forks all of its
        workers at the first submit."""
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
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        return sizes

    @pytest.mark.parametrize("n_max,workers", [(1, None), (2, 2)])
    def test_jobs_capped_at_grid_cells(self, capsys, pool_sizes, n_max, workers):
        args = ["sweep", "tight", "--n-max", str(n_max), "--k-min", "1", "--k-max", "1"]
        code, out, _ = run(capsys, *args, "--jobs", "4")
        assert code == 0
        assert pool_sizes == ([] if workers is None else [workers])
        assert out == run(capsys, *args)[1]

    @pytest.mark.parametrize("cpus,workers", [(3, 3), (8, 6), (1, None), (None, None)])
    def test_jobs_capped_at_the_cpu_count(self, capsys, monkeypatch, pool_sizes, cpus, workers):
        # 6 cells and --jobs 64: the pool gets no more workers than CPUs, and 1 runs serially
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        args = ["sweep", "tight", "--n-max", "6", "--k-min", "1", "--k-max", "1"]
        code, out, _ = run(capsys, *args, "--jobs", "64")
        assert code == 0
        assert pool_sizes == ([] if workers is None else [workers])
        assert out == run(capsys, *args)[1]

    @pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-3"),
                                            ("--jobs", "0"), ("--jobs", "-1")])
    def test_nonpositive_counts_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "sweep", "thm2", "--n-max", "1", "--k-max", "2",
                             flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag} must be a positive integer, got {value}" in err

    def test_oracle_limit_flag_is_gone(self, capsys):
        # neither statement calls the oracle, so no sweep reads a limit
        with pytest.raises(SystemExit) as info:
            main(["sweep", "thm2", "--n-max", "1", "--k-max", "2", "--oracle-limit", "20"])
        assert info.value.code == 2
        assert "unrecognized arguments: --oracle-limit 20" in capsys.readouterr().err

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

    def test_only_the_cli_names_a_flag(self):
        # the library states its limits in its own terms; the CLI maps them to flags
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            if path.name == "cli.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    assert not re.search(r"--[a-z]", node.value), (path.name, node.value)

    def test_import_leaves_the_process_pool_out(self):
        # only sweep --jobs > 1 starts a pool; every other command skips its imports
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, lowpm.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, env=module_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_runtime_imports_only_the_standard_library(self):
        # -S skips site hooks, which may import third-party modules of their own;
        # __main__ and multiprocessing's __mp_main__ name the running script
        script = """if True:
            import contextlib, io, sys
            import lowpm
            from lowpm import cli
            with contextlib.redirect_stdout(io.StringIO()):
                codes = (cli.main(["verify", "thm2", "--n", "2", "--k", "2"]),
                         cli.main(["sweep", "tight", "--n-max", "3", "--k-max", "3",
                                   "--jobs", "2"]))
            tops = {name.partition(".")[0] for name in sys.modules}
            print(codes, sorted(tops - set(sys.stdlib_module_names)
                                - {"lowpm", "__main__", "__mp_main__"}))
        """
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "(0, 0) []\n"

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
