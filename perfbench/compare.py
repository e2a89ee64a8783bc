"""Spread of one result set, or the verdict of a change against its parent.

    python3 perfbench/compare.py RESULTS.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the ``results.jsonl`` that ``run.py`` appends to (untraced
records are used).  Runs on one seed should differ only by the machine's noise,
so parent and change are paired by (workload, seed).

With one file, each workload x end-to-end metric row gives the median, the
quartiles and the interquartile range as a share of the median, next to the
metric's bound in BENCHMARK.json.

With two files, each row says ``better``, ``worse``, ``within bound`` or
``unresolved``:

* better: at least 10 pairs, the change wins at least 9 in 10 of them (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
* unresolved: the parent's or the change's interquartile range is wider than
  the bound, unless every change run beats every parent run; or the gain
  rule holds on fewer than 10 pairs;
* worse: the change's median is worse than the parent's by more than the bound;
* within bound: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load(path: str) -> dict[tuple[str, str], dict[int, list[float]]]:
    """(workload, metric) -> seed -> values, in file order."""
    table: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, metric in record["metrics"].items():
                table[(record["workload"], name)][record["seed"]].append(metric["value"])
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            lower: bool, bound: float) -> str:
    def gain(p: float, c: float) -> float:
        return p - c if lower else c - p

    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    wins = sum(1 for p, c in pairs if gain(p, c) > 0)
    if wins >= 0.9 * len(pairs) and gain(p_med, c_med) > p_q3 - p_q1:
        return "better" if len(pairs) >= MIN_PAIRS else "unresolved"
    all_better = all(gain(p, c) > 0 for p in parent for c in change)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if -gain(p_med, c_med) > bound * p_med:
        return "worse"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(path) for path in argv]
    keys = sorted(key for key in sets[-1] if key[1] in metrics)

    if len(sets) == 1:
        print(f"{'workload':16} {'metric':16} {'runs':>4} {'median':>10} {'q1':>10} {'q3':>10}"
              f" {'iqr/med':>8} {'bound':>6}")
        for workload, name in keys:
            values = [v for vs in sets[0][(workload, name)].values() for v in vs]
            q1, median, q3 = quartiles(values)
            print(f"{workload:16} {name:16} {len(values):4} {median:10.4g} {q1:10.4g}"
                  f" {q3:10.4g} {spread(values):8.3f} {metrics[name]['bound']:6.2f}")
        return 0

    print(f"{'workload':16} {'metric':16} {'pairs':>5} {'parent':>10} {'change':>10}  verdict")
    for workload, name in keys:
        parent_by_seed, change_by_seed = sets[0].get((workload, name), {}), sets[1][(workload, name)]
        pairs = [pc for seed in parent_by_seed if seed in change_by_seed
                 for pc in zip(parent_by_seed[seed], change_by_seed[seed])]
        if not pairs:
            print(f"{workload:16} {name:16} {0:5} {'':>10} {'':>10}  unresolved (no paired seeds)")
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        metric = metrics[name]
        result = verdict(parent, change, pairs, metric["better"] == "lower", metric["bound"])
        print(f"{workload:16} {name:16} {len(pairs):5} {statistics.median(parent):10.4g}"
              f" {statistics.median(change):10.4g}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
