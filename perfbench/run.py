"""Benchmark of the lowpm command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` beside this
directory, so nothing needs installing or building.

``--trace 0`` runs the workload the way a user does: one fresh interpreter
per ``lowpm`` command.  Set-up (interpreter start, ``import lowpm.cli`` and
the ``gen`` calls that write the input files) is timed several times and
reported as its median.  Then passes run until ``--seconds`` is spent: one
pass is the workload's command list, pass ``p`` getting ``--seed`` value
``seed * 1000 + p``, so a run averages over several inputs.  Reported:
median pass wall time and CPU time, instances decided per pass over the
median pass time, and the largest peak RSS of any command.

``--trace 1`` runs pass 0's commands in this process, in pairs of an
untraced and a traced pass, alternating which runs first (see ``tracing.py``).  Reported: each
layer's median self time, its counts from the first traced pass (the same
in every pass, as the inputs are), and the tracing overhead.

Every command's output goes through the correctness gate of
``workloads.py``.  A repeated command must print the same stdout,
``elapsed_ms`` aside: the untraced run repeats one command of pass 0 (which
one turns with the seed), the traced run repeats all of pass 0 every pass.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with git revision, Python version, CPU count and ``src/`` line
count, is appended to ``perfbench/.runs/results.jsonl`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Command, GateError, normalize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
SETUP_REPEATS = 5


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass
class Outcome:
    code: int | str  # exit code, or what an in-process command raised
    stdout: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0


class Gate:
    """Counts commands attempted and those failing a correctness check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def judge(self, cmd: Command, outcome: Outcome) -> int:
        """Instances the command decided, or 0 and a recorded problem."""
        self.attempted += 1
        try:
            if outcome.code != 0:
                raise GateError(f"exit code {outcome.code}")
            return cmd.check(outcome.stdout)
        except (GateError, ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            self.fail(cmd, f"{type(exc).__name__}: {exc}")
            return 0

    def fail(self, cmd: Command, problem: str) -> None:
        self.problems.append(f"lowpm {' '.join(cmd.argv)}: {problem}")

    def repeat(self, cmd: Command, first: str, again: Outcome) -> None:
        """A repeated command must print the same, ``elapsed_ms`` aside."""
        if self.judge(cmd, again) and normalize(again.stdout) != normalize(first):
            self.fail(cmd, "stdout differs between two runs of the same argv")


# --------------------------------------------------------------------------
# end to end: one interpreter per command


def spawn(argv: list[str]) -> Outcome:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(RUNS / "stderr.txt", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out.decode(), wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def lowpm(cmd: Command) -> Outcome:
    return spawn([sys.executable, "-m", "lowpm.cli", *cmd.argv])


def import_probe() -> Outcome:
    probe = spawn([sys.executable, "-c", "import lowpm.cli; print(lowpm.cli.__file__)"])
    if probe.code != 0 or not Path(probe.stdout.strip()).is_relative_to(SRC):
        raise SystemExit(f"lowpm.cli was not imported from {SRC}: {probe.stdout.strip()!r}")
    return probe


def run_end_to_end(workload, seed: int, seconds: float, gate: Gate):
    import_probe()  # compiles the bytecode cache before anything is timed
    rss = 0.0
    setup = []
    for _ in range(SETUP_REPEATS):
        total = import_probe().wall_s
        for cmd in workload.setup:
            outcome = lowpm(cmd)
            gate.judge(cmd, outcome)
            total += outcome.wall_s
            rss = max(rss, outcome.rss_mb)
        setup.append(total)

    walls, cpus, decided = [], [], []
    first: list[tuple[Command, str]] = []
    start = perf_counter()
    while not walls or perf_counter() - start + statistics.median(walls) <= seconds:
        wall = cpu = instances = 0
        for cmd in workload.make_pass(pass_seed(seed, len(walls))):
            outcome = lowpm(cmd)
            instances += gate.judge(cmd, outcome)
            wall += outcome.wall_s
            cpu += outcome.cpu_s
            rss = max(rss, outcome.rss_mb)
            if not walls:
                first.append((cmd, outcome.stdout))
        walls.append(wall)
        cpus.append(cpu)
        decided.append(instances)

    cmd, stdout = first[seed % len(first)]
    again = lowpm(cmd)
    gate.repeat(cmd, stdout, again)
    rss = max(rss, again.rss_mb)

    metrics = {
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "instances_per_s": statistics.median(decided) / statistics.median(walls),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup),
    }
    samples = {"passes": len(walls), "setup_repeats": SETUP_REPEATS,
               "pass_wall_s": walls, "setup_s": setup}
    return metrics, samples


# --------------------------------------------------------------------------
# traced: the same commands in this process, spans around each layer


def call_cli(cli, cmd: Command) -> Outcome:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
        wall = perf_counter() - start
    return Outcome(code, out.getvalue(), wall)


def run_traced(workload, seed: int, seconds: float, gate: Gate, spans_path: Path):
    sys.path.insert(0, str(SRC))
    import lowpm.blossom
    import lowpm.cli
    import lowpm.solver
    import lowpm.verifier

    if not Path(lowpm.cli.__file__).is_relative_to(SRC):
        raise SystemExit(f"lowpm.cli was not imported from {SRC}: {lowpm.cli.__file__}")
    modules = {"cli": lowpm.cli, "verifier": lowpm.verifier, "solver": lowpm.solver,
               "blossom": lowpm.blossom}
    for cmd in workload.setup:
        gate.judge(cmd, call_cli(lowpm.cli, cmd))

    commands = workload.make_pass(pass_seed(seed, 0))
    reference: list[str] = []
    for cmd in commands:  # untimed warm-up: lazy imports and first-call costs
        outcome = call_cli(lowpm.cli, cmd)
        gate.judge(cmd, outcome)
        reference.append(outcome.stdout)

    tracer = Tracer()

    def timed_pass() -> float:
        wall = 0.0
        for cmd, first in zip(commands, reference):
            tracer.command += 1
            tracer.known_min = cmd.known_min
            outcome = call_cli(lowpm.cli, cmd)
            wall += outcome.wall_s
            gate.repeat(cmd, first, outcome)
        return wall

    plain, traced, layer_samples = [], [], []
    counts: dict[str, int] = {}
    start = perf_counter()
    while not traced or (perf_counter() - start + statistics.median(plain)
                         + statistics.median(traced) <= seconds):
        # alternate which of the pair runs first, so drift in machine speed evens out
        for with_spans in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not with_spans:
                plain.append(timed_pass())
                continue
            first_span = len(tracer.spans)
            tracer.reset_counts()
            with tracer.installed(modules):
                traced.append(timed_pass())
            layer_samples.append(tracer.layer_times(first_span))
            counts = counts or dict(tracer.counts)
    tracer.write(spans_path)

    first_pass = layer_samples[0]
    metrics = {f"{layer}.self_s": statistics.median(s[layer][0] for s in layer_samples)
               for layer, _, _ in LAYERS}
    metrics.update({f"{layer}.calls": first_pass[layer][1] for layer, _, _ in LAYERS})
    metrics.update(counts)
    metrics["cli.output_bytes"] = sum(len(out.encode()) for out in reference)
    searches = first_pass["solver.search"][1]
    metrics["solver.search.optimal_ratio"] = (
        counts["solver.search.optimal"] / searches if searches else 0.0)
    metrics["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {"passes": len(traced), "traced_pass_s": traced, "untraced_pass_s": plain,
               "spans": len(tracer.spans)}
    return metrics, samples


# --------------------------------------------------------------------------


def run_info() -> dict:
    """Where a result came from; information only, never gated."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        revision = top[1] if Path(top[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.CalledProcessError, IndexError):
        revision = "unknown"
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"revision": revision, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "lowpm" / "cli.py").is_file():
        print(f"error: no lowpm sources at {SRC / 'lowpm'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = RUNS / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](workdir)
    gate = Gate()
    if args.trace:
        measured, samples = run_traced(workload, args.seed, args.seconds, gate,
                                       RUNS / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        measured, samples = run_end_to_end(workload, args.seed, args.seconds, gate)

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(gate.problems)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "info": run_info(), "samples": samples,
              "error_rate": failed / gate.attempted, "problems": gate.problems,
              "metrics": metrics}
    with open(RUNS / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for problem in gate.problems:
        print(f"FAIL {problem}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in record["info"].items()))
    print(f"# passes={samples['passes']} error_rate={record['error_rate']:.4g}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": gate.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
