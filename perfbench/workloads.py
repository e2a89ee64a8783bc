"""The benchmark's workloads: the CLI commands each runs and the checks on their output.

A workload is a set of ``gen`` commands that write its input files (set-up)
and a pass: the list of commands timed as one sample.  Every command carries
a check that reads its stdout and returns how many instances it decided, or
raises :class:`GateError`.  The checks recompute what they can from the
paper without importing lowpm: the instance files, the weight of a returned
matching, the thm2 bound, the extremal minima (2k on the plus-clique family,
2 on the prop2 family, 0 on balanced instances by thm1).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ORACLE_LIMIT = "20"


class GateError(Exception):
    """A command's output failed a correctness check."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], int]
    # min |weight| of every instance this command solves; None if it solves none
    known_min: int | None = None


@dataclass(frozen=True)
class Workload:
    setup: tuple[Command, ...]
    make_pass: Callable[[int], tuple[Command, ...]]


def normalize(stdout: str) -> str:
    """Stdout with the one non-deterministic field, ``elapsed_ms``, removed."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(payload, dict):
        payload.pop("elapsed_ms", None)
    return json.dumps(payload, sort_keys=True)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def _pair_index(u: int, v: int, order: int) -> int:
    return u * order - u * (u + 1) // 2 + (v - u - 1)


def thm2_bound(n: int, k: int) -> int:
    return n * (n - 1) + k * (6 * n - 1) + k * k


def clique_signs(n: int, k: int) -> tuple[int, str]:
    """Plus-clique family: + inside the first 3n+k vertices, - elsewhere."""
    order, clique = 4 * n, 3 * n + k
    return order, "".join(
        "+" if v < clique else "-" for u in range(order) for v in range(u + 1, order)
    )


def prop2_signs(k: int) -> tuple[int, str]:
    """Two-block family: + between block A (first (k^2+k)/2+2 vertices) and the rest."""
    order, size_a = k * k + 4, (k * k + k) // 2 + 2
    return order, "".join(
        "+" if u < size_a <= v else "-" for u in range(order) for v in range(u + 1, order)
    )


def check_file(path: Path, order: int, signs: str) -> Callable[[str], int]:
    """``gen -o path`` wrote exactly the instance with these signs."""
    expected = f"signed-k 1\norder {order}\nsigns {signs}\n"

    def check(stdout: str) -> int:
        _require(stdout == "", f"gen wrote to stdout: {stdout[:80]!r}")
        text = path.read_text(encoding="utf-8")
        _require(text == expected, f"{path.name} differs from the family definition")
        return 1

    return check


def check_solve(order: int, signs: str, minimum: int) -> Callable[[str], int]:
    """A perfect matching whose recomputed weight is the reported one, at |w| == minimum."""

    def check(stdout: str) -> int:
        report = json.loads(stdout)
        weight = report["final_weight"]
        _require(abs(weight) == minimum, f"solve ended at |w|={abs(weight)}, minimum is {minimum}")
        tokens = report["matching"].split()
        _require(tokens[0] == "matching", "matching line lacks its keyword")
        pairs = [tuple(int(x) for x in tok.split("-")) for tok in tokens[1:]]
        covered = sorted(v for p in pairs for v in p)
        _require(covered == list(range(order)), "returned matching is not perfect")
        recomputed = sum(1 if signs[_pair_index(*sorted(p), order)] == "+" else -1 for p in pairs)
        _require(recomputed == weight, f"matching weighs {recomputed}, report says {weight}")
        return 1

    return check


def check_report(theorem: str, tested: int, seed: int, both: bool = False) -> Callable[[str], int]:
    """A clean JSON verify report: every instance tested and passed, no mismatch."""

    def check(stdout: str) -> int:
        report = json.loads(stdout)
        _require(report["theorem"] == theorem, f"theorem {report['theorem']!r}, expected {theorem!r}")
        _require(report["seed"] == seed, f"report seed {report['seed']}, expected {seed}")
        _require(report["failures"] == [], f"{len(report['failures'])} failures")
        _require(report["tested"] == tested, f"tested {report['tested']}, expected {tested}")
        _require(report["passed"] == tested, f"passed {report['passed']} of {tested}")
        stats = report.get("stats", {})
        _require(not stats.get("solver_mismatches"), "solver disagrees with the oracle")
        _require("solver_mismatches" in stats or not both, "both mode reported no mismatch list")
        _require("partial" not in stats, "report is partial")
        return tested

    return check


def check_tight_rows(cells: list[tuple[int, int]], oracle: bool) -> Callable[[str], int]:
    """CSV rows of the plus-clique family: imbalance at the thm2 bound, minimum 2k.

    Past the oracle's order a row may leave ``min_weight`` empty; if it gives
    one, it must be 2k.
    """

    def check(stdout: str) -> int:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        _require(len(rows) == len(cells), f"{len(rows)} rows, expected {len(cells)}")
        for row, (n, k) in zip(rows, cells):
            where = f"row n={row['n']} k={row['k']}"
            _require((int(row["n"]), int(row["k"])) == (n, k), f"{where}: expected n={n} k={k}")
            _require(int(row["s"]) == thm2_bound(n, k), f"{where}: imbalance {row['s']}")
            _require(row["bound"] == str(2 * k), f"{where}: bound {row['bound']}")
            _require(row["pass"] == "True", f"{where}: did not pass")
            allowed = (str(2 * k),) if oracle else (str(2 * k), "")
            _require(row["min_weight"] in allowed, f"{where}: min_weight {row['min_weight']!r}")
        return len(rows)

    return check


# Sample counts are scaled so that one pass takes a few seconds on a 2-CPU
# machine, which puts several passes, on several inputs, in one run.
ORACLE_THM1_SAMPLES = 20
ORACLE_THM2_SAMPLES = 20
LARGE_THM1_SAMPLES = 100
LARGE_EG_SAMPLES = 40
LARGE_TIGHT_N = (40, 50)
LARGE_TIGHT_K = (2, 4)


def _extremal_solve(workdir: Path) -> Workload:
    instances = (
        ("clique-n3-k2", ("clique", "--n", "3", "--k", "2"), clique_signs(3, 2), 4),
        ("prop2-k2", ("prop2", "--k", "2"), prop2_signs(2), 2),
        ("clique-n2-k2", ("clique", "--n", "2", "--k", "2"), clique_signs(2, 2), 4),
    )
    paths = {name: workdir / f"{name}.sk" for name, *_ in instances}
    setup = tuple(
        Command(("gen", *args, "-o", str(paths[name])), check_file(paths[name], *instance))
        for name, args, instance, _ in instances
    )

    def make_pass(seed: int) -> tuple[Command, ...]:
        return tuple(
            Command(("solve", str(paths[name]), "--seed", str(seed), "--format", "json"),
                    check_solve(*instance, minimum), known_min=minimum)
            for name, _, instance, minimum in instances
        )

    return Workload(setup, make_pass)


def _oracle_sweep(workdir: Path) -> Workload:
    def make_pass(seed: int) -> tuple[Command, ...]:
        s = str(seed)
        return (
            Command(("verify", "thm1", "--n", "5", "--mode", "both",
                     "--samples", str(ORACLE_THM1_SAMPLES), "--oracle-limit", ORACLE_LIMIT,
                     "--seed", s, "--format", "json"),
                    check_report("theorem1", ORACLE_THM1_SAMPLES, seed, both=True), known_min=0),
            Command(("verify", "thm2", "--n", "5", "--k", "2",
                     "--samples", str(ORACLE_THM2_SAMPLES), "--oracle-limit", ORACLE_LIMIT,
                     "--seed", s, "--format", "json"),
                    check_report("theorem2", ORACLE_THM2_SAMPLES, seed)),
            Command(("verify", "tight", "--n", "5", "--k", "2", "--oracle-limit", ORACLE_LIMIT,
                     "--format", "csv"),
                    check_tight_rows([(5, 2)], oracle=True)),
        )

    return Workload((), make_pass)


def _large_order(workdir: Path) -> Workload:
    cells = [(n, k) for n in range(LARGE_TIGHT_N[0], LARGE_TIGHT_N[1] + 1)
             for k in range(LARGE_TIGHT_K[0], LARGE_TIGHT_K[1] + 1)]

    def make_pass(seed: int) -> tuple[Command, ...]:
        s = str(seed)
        return (
            Command(("verify", "thm1", "--n", "40", "--mode", "solver",
                     "--samples", str(LARGE_THM1_SAMPLES), "--seed", s, "--format", "json"),
                    check_report("theorem1", LARGE_THM1_SAMPLES, seed), known_min=0),
            Command(("verify", "eg", "--n", "50", "--k", "1",
                     "--samples", str(LARGE_EG_SAMPLES), "--seed", s, "--format", "json"),
                    check_report("erdos_gallai", LARGE_EG_SAMPLES + 2, seed)),
            Command(("sweep", "tight", "--n-min", str(LARGE_TIGHT_N[0]),
                     "--n-max", str(LARGE_TIGHT_N[1]), "--k-min", str(LARGE_TIGHT_K[0]),
                     "--k-max", str(LARGE_TIGHT_K[1]), "--seed", s, "--jobs", "1",
                     "--format", "csv"),
                    check_tight_rows(cells, oracle=False)),
        )

    return Workload((), make_pass)


WORKLOADS = {
    "extremal-solve": _extremal_solve,
    "oracle-sweep": _oracle_sweep,
    "large-order": _large_order,
}
