"""Command-line front end.

Subcommands::

    gen {prop2|clique|random}   write an instance file
    solve PATH                  exchange local search on an instance
    oracle PATH                 exact minimum |weight| and witness
    verify {thm1|thm2|prop2|tight|eg}
    sweep {thm2|tight}          (n, k) grids with CSV rows, optional --jobs

Exit codes: 0 success / all checks passed, 1 verification failures or
solver-oracle mismatch, 2 usage, file or format errors, or a stdout closed
before the output was written.  Identical argv and seed produce
byte-identical JSON/CSV output (elapsed_ms aside).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constructions import clique_instance, proposition2_instance, random_with_imbalance
from .core import (
    InstanceFormatError,
    LowpmError,
    parse_instance,
    serialize_instance,
    serialize_matching,
)
from .solver import (
    DEFAULT_ORACLE_LIMIT,
    local_search_min_weight,
    oracle_min_weight,
    refuse_past_oracle_limit,
)
from .verifier import (
    VerifyReport,
    csv_text,
    verify_erdos_gallai,
    verify_prop2,
    verify_theorem1,
    verify_theorem2,
    verify_tightness,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowpm",
        description="Low-weight perfect matchings in +/-1 edge-labeled complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    gen_prop2 = gen_sub.add_parser("prop2", help="two-block instance with imbalance 2")
    gen_prop2.add_argument("--k", type=int, required=True, help="even block parameter, k >= 2")
    gen_clique = gen_sub.add_parser("clique", help="plus-clique instance of order 4n")
    gen_clique.add_argument("--n", type=int, required=True)
    gen_clique.add_argument("--k", type=int, required=True, help="clique order is 3n+k, k <= n")
    gen_random = gen_sub.add_parser("random", help="seeded instance with fixed imbalance")
    gen_random.add_argument("--order", type=int, required=True)
    gen_random.add_argument("--imbalance", type=int, default=0)
    gen_random.add_argument("--seed", type=int, default=0)
    for p in (gen_prop2, gen_clique, gen_random):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    solve = sub.add_parser("solve", help="exchange local search")
    solve.add_argument("instance", help="instance file in signed-k format")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--check-oracle", action="store_true",
                       help="also run the exact oracle and compare")

    oracle = sub.add_parser("oracle", help="exact minimum |weight|")
    oracle.add_argument("instance")

    verify = sub.add_parser("verify", help="run one verification sweep")
    verify_sub = verify.add_subparsers(dest="statement", required=True)

    v_thm1 = verify_sub.add_parser("thm1", help="balanced instances have a zero-weight matching")
    v_thm1.add_argument("--n", type=int, required=True)
    v_thm1.add_argument("--samples", type=int, default=100)
    v_thm1.add_argument("--seed", type=int, default=0)
    v_thm1.add_argument("--mode", choices=("oracle", "solver", "both"), default="both")
    v_thm1.add_argument("--exhaustive", action="store_true",
                        help="all 20 balanced sign vectors (n=1 only)")

    v_prop2 = verify_sub.add_parser("prop2", help="two-block instance: imbalance 2, min weight 2")
    v_prop2.add_argument("--k", type=int, required=True)

    v_thm2 = verify_sub.add_parser("thm2", help="small imbalance forces |weight| <= 2k-2")
    v_thm2.add_argument("--n", type=int, required=True)
    v_thm2.add_argument("--k", type=int, required=True)
    v_thm2.add_argument("--samples", type=int, default=50)
    v_thm2.add_argument("--seed", type=int, default=0)
    v_thm2.add_argument("--grid", choices=("full", "sampled"), default="sampled")

    v_tight = verify_sub.add_parser("tight", help="plus-clique instance is extremal")
    v_tight.add_argument("--n", type=int, required=True)
    v_tight.add_argument("--k", type=int, required=True)

    v_eg = verify_sub.add_parser("eg", help="edge bound for bounded matching number")
    v_eg.add_argument("--n", type=int, required=True)
    v_eg.add_argument("--k", type=int, required=True)
    v_eg.add_argument("--samples", type=int, default=1000)
    v_eg.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser("sweep", help="verification grid over (n, k)")
    sweep.add_argument("statement", choices=("thm2", "tight"))
    sweep.add_argument("--n-min", type=int, default=1)
    sweep.add_argument("--n-max", type=int, required=True)
    sweep.add_argument("--k-min", type=int, default=2)
    sweep.add_argument("--k-max", type=int, required=True)
    sweep.add_argument("--samples", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--jobs", type=int, default=1)

    def oracle_limit(text: str) -> int:
        if int(text) > DEFAULT_ORACLE_LIMIT:
            raise argparse.ArgumentTypeError(f"the maximum is {DEFAULT_ORACLE_LIMIT}, got {text}")
        if int(text) < 2:  # the smallest instance order
            raise argparse.ArgumentTypeError(f"the minimum is 2, got {text}")
        return int(text)

    # thm2 and tight check the flag but never call the oracle; the benchmark still passes it
    for p in (solve, oracle, v_thm1, v_thm2, v_tight):
        p.add_argument("--oracle-limit", type=oracle_limit, default=DEFAULT_ORACLE_LIMIT)
    for p in (solve, oracle):
        p.add_argument("--format", choices=("text", "json"), default="text")
    for p in (v_thm1, v_prop2, v_thm2, v_tight, v_eg):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sweep.add_argument("--format", choices=("csv", "text"), default="csv")

    return parser


def _read_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise LowpmError(f"cannot read instance file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(
            f"instance file {path} is not UTF-8 text: byte offset {exc.start}"
        ) from exc
    return parse_instance(text)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise LowpmError(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_gen(args) -> int:
    if args.family == "prop2":
        g = proposition2_instance(args.k)
    elif args.family == "clique":
        g = clique_instance(args.n, args.k)
    else:
        g = random_with_imbalance(args.order, args.imbalance, args.seed)
    _write_output(serialize_instance(g), args.output)
    return 0


def _cmd_solve(args) -> int:
    g = _read_instance(args.instance)
    if args.check_oracle:
        # refuse before the search, which can take far longer than refusing
        refuse_past_oracle_limit(g.order, args.oracle_limit)
    matching, report = local_search_min_weight(g, seed=args.seed)
    exit_code = 0
    if args.check_oracle:
        oracle_min, _ = oracle_min_weight(g, args.oracle_limit)
        report.oracle_checked = True
        report.oracle_min_weight = oracle_min
        if abs(report.final_weight) != oracle_min:
            exit_code = 1

    if args.format == "json":
        payload = report.to_dict()
        payload["matching"] = serialize_matching(matching.pairs)
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(f"initial_weight {report.initial_weight}")
        print(f"final_weight {report.final_weight}")
        for r, count in sorted(report.moves_applied.items()):
            print(f"moves_r{r} {count}")
        print(f"stop_reason {report.stop_reason}")
        print(f"lower_bound {report.lower_bound}")
        print(f"gap {report.gap}")
        if report.oracle_checked:
            print(f"oracle_min_weight {report.oracle_min_weight}")
            agree = abs(report.final_weight) == report.oracle_min_weight
            print(f"oracle_agreement {str(agree).lower()}")
        print(serialize_matching(matching.pairs))
    return exit_code


def _cmd_oracle(args) -> int:
    g = _read_instance(args.instance)
    min_weight, witness = oracle_min_weight(g, args.oracle_limit)
    if args.format == "json":
        print(json.dumps(
            {"min_weight": min_weight, "witness": serialize_matching(witness.pairs)},
            sort_keys=True, separators=(",", ":"),
        ))
    else:
        print(f"min_weight {min_weight}")
        print(serialize_matching(witness.pairs))
    return 0


def _emit_report(report: VerifyReport, fmt: str) -> int:
    if fmt == "json":
        print(report.to_json())
    elif fmt == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_text())
    return 0 if report.clean else 1


def _cmd_verify(args) -> int:
    if args.statement == "thm1":
        report = verify_theorem1(
            args.n, samples=args.samples, seed=args.seed, mode=args.mode,
            exhaustive=args.exhaustive, oracle_limit=args.oracle_limit,
        )
    elif args.statement == "prop2":
        report = verify_prop2(args.k)
    elif args.statement == "thm2":
        report = verify_theorem2(
            args.n, args.k, samples=args.samples, seed=args.seed, grid=args.grid,
        )
    elif args.statement == "tight":
        report = verify_tightness(args.n, args.k)
    else:
        report = verify_erdos_gallai(args.n, args.k, samples=args.samples, seed=args.seed)
    return _emit_report(report, args.format)


def _sweep_cell(job: tuple) -> tuple[int, int, list[dict], bool]:
    statement, n, k, samples, seed = job
    if statement == "thm2":
        report = verify_theorem2(n, k, samples=samples, seed=seed)
    else:
        report = verify_tightness(n, k)
    return n, k, report.rows, report.clean


def _cmd_sweep(args) -> int:
    if args.samples < 1:
        raise LowpmError(f"--samples must be a positive integer, got {args.samples}")
    if args.jobs < 1:
        raise LowpmError(f"--jobs must be a positive integer, got {args.jobs}")
    jobs = []
    for n in range(args.n_min, args.n_max + 1):
        k_top = min(args.k_max, n) if args.statement == "tight" else args.k_max
        for k in range(args.k_min, k_top + 1):
            jobs.append((args.statement, n, k, args.samples, args.seed))
    if not jobs:
        raise LowpmError("empty sweep grid: check --n-min/--n-max/--k-min/--k-max")

    workers = min(args.jobs, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, jobs))
    else:
        results = [_sweep_cell(job) for job in jobs]

    all_clean = all(clean for _, _, _, clean in results)
    if args.format == "csv":
        sys.stdout.write(csv_text(row for _, _, rows, _ in results for row in rows))
    else:
        for n, k, rows, clean in results:
            status = "pass" if clean else "FAIL"
            print(f"n={n} k={k} instances={len(rows)} {status}")
    return 0 if all_clean else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"gen": _cmd_gen, "solve": _cmd_solve, "oracle": _cmd_oracle,
                "verify": _cmd_verify, "sweep": _cmd_sweep}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except LowpmError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except BrokenPipeError:
        # the exit flush of what is still buffered goes to devnull, silently
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
