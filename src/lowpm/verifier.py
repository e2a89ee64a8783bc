"""Verification sweeps: tie generators, solver and oracle together.

Each ``verify_*`` runner checks one statement about minimum matching
weights over a parameter grid and returns a :class:`VerifyReport`.  A
statement violation becomes a ``failures`` entry (never an exception), and
every failure embeds the offending instance in serialized form so it can be
re-parsed and replayed as-is.  Solver-vs-oracle disagreements are a solver
finding, not a statement violation, and are kept in a separate bucket.

Reports are deterministic given (parameters, seed); ``elapsed_ms`` is the
one field excluded from that guarantee.
"""

from __future__ import annotations

import io
import csv as _csv
import json
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable

from . import blossom
from .constructions import (
    clique_instance,
    eg_edge_bound,
    eg_extremal_graph,
    proposition2_instance,
    random_graph,
    random_with_imbalance,
    thm2_bound,
)
from .core import (
    ParameterError,
    PerfectMatching,
    SignedCompleteGraph,
    SimpleGraph,
    pair_count,
    serialize_instance,
    sigma_total,
    sign_subgraph,  # read by perfbench/tracing.py, which wraps it here by name
)
from .rng import SplitMix64
from .solver import (
    certify,
    local_search_min_weight,
    oracle_min_weight,
    pm_from_sign_max_matching,  # read by perfbench/tracing.py, which wraps it here by name
)

CSV_COLUMNS = ("n", "k", "s", "seed", "min_weight", "bound", "pass")

VERIFY_MODES = ("oracle", "solver", "both")


def csv_text(rows) -> str:
    """A header line, then one line per row over :data:`CSV_COLUMNS`."""
    buf = io.StringIO()
    writer = _csv.DictWriter(buf, fieldnames=CSV_COLUMNS, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@dataclass
class VerifyReport:
    """Outcome of one verification sweep.

    ``failures`` holds statement violations as
    ``{"instance": <serialized>, "expected": str, "observed": str}``;
    ``stats`` carries everything recorded separately from pass/fail
    (solver mismatches, uncertified solves, graphs above the edge bound).
    ``rows`` backs CSV emission, one record per instance checked.
    """

    theorem: str
    params: dict
    seed: int | None
    tested: int = 0
    passed: int = 0
    failures: list[dict] = field(default_factory=list)
    elapsed_ms: int = 0
    stats: dict = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def clean(self) -> bool:
        """No failures and no solver-vs-oracle mismatches."""
        return self.ok and not self.stats.get("solver_mismatches")

    def check(
        self,
        instance: SignedCompleteGraph | Callable[[], SignedCompleteGraph],
        expected: str,
        observed: str,
        passed: bool,
    ) -> bool:
        """Count one check.  The instance, or the callable that builds it,
        is serialized into a failure entry only when the check fails."""
        self.tested += 1
        if passed:
            self.passed += 1
        else:
            if callable(instance):
                instance = instance()
            self.failures.append(
                {"instance": serialize_instance(instance), "expected": expected,
                 "observed": observed}
            )
        return passed

    def to_json(self) -> str:
        payload = {
            "theorem": self.theorem,
            "params": self.params,
            "seed": self.seed,
            "tested": self.tested,
            "passed": self.passed,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.stats:
            payload["stats"] = self.stats
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [
            f"theorem     {self.theorem}",
            f"params      {json.dumps(self.params, sort_keys=True)}",
            f"seed        {self.seed}",
            f"tested      {self.tested}",
            f"passed      {self.passed}",
            f"failures    {len(self.failures)}",
            f"elapsed_ms  {self.elapsed_ms}",
        ]
        for key, value in sorted(self.stats.items()):
            if key == "solver_mismatches":
                lines.append(f"solver_mismatches {len(value)}")
            else:
                lines.append(f"{key} {json.dumps(value, sort_keys=True)}")
        mismatches = self.stats.get("solver_mismatches", [])
        for tag, entries in (("FAIL", self.failures), ("MISMATCH", mismatches)):
            for entry in entries:
                lines.append(f"{tag} expected {entry['expected']}, observed {entry['observed']}")
                lines.append("  " + entry["instance"].replace("\n", " / ").rstrip(" /"))
        return "\n".join(lines)

    def to_csv(self) -> str:
        return csv_text(self.rows)


def _finish(report: VerifyReport, t0: float) -> VerifyReport:
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def _require_samples(samples: int) -> None:
    # a sweep of zero instances would report a pass that checked nothing
    if samples < 1:
        raise ParameterError(f"samples must be a positive integer, got {samples}")


def _balanced_k4_instances():
    """All C(6,3)=20 sign vectors of K_4 with imbalance 0, lexicographic."""
    for plus_positions in combinations(range(6), 3):
        chosen = set(plus_positions)
        yield SignedCompleteGraph(4, tuple(1 if i in chosen else -1 for i in range(6)))


def verify_theorem1(
    n: int,
    samples: int = 100,
    seed: int = 0,
    mode: str = "both",
    exhaustive: bool = False,
) -> VerifyReport:
    """Balanced instances of K_4n admit a zero-weight perfect matching.

    ``exhaustive`` (n=1 only) covers all 20 balanced sign vectors of K_4;
    otherwise ``samples`` seeded balanced instances are drawn.  In mode
    ``both`` the solver runs next to the oracle and any weight mismatch is
    recorded under ``stats["solver_mismatches"]``.  In mode ``solver`` an
    instance is checked only when its solve's gap is 0; one with gap > 0 is
    counted under ``stats["uncertified"]``, and its row's ``min_weight``
    and ``pass`` are left blank.  Modes ``oracle`` and ``both`` need n <= 6:
    past the oracle's order limit, 24, the first oracle call raises.
    """
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    if mode not in VERIFY_MODES:
        raise ParameterError(f"mode must be one of {VERIFY_MODES}, got {mode!r}")
    if exhaustive and n != 1:
        raise ParameterError("exhaustive mode is only available for n=1")
    if not exhaustive:
        _require_samples(samples)
    order = 4 * n

    t0 = time.perf_counter()
    report = VerifyReport(
        theorem="theorem1",
        params={"n": n, "samples": samples, "mode": mode, "exhaustive": exhaustive},
        seed=seed,
    )
    mismatches: list[dict] = []
    uncertified = 0
    stream = SplitMix64(seed)

    if exhaustive:
        instances = [(0, g) for g in _balanced_k4_instances()]
    else:
        instances = [(stream.next_u64(), None) for _ in range(samples)]

    for inst_seed, prebuilt in instances:
        g = prebuilt if prebuilt is not None else random_with_imbalance(order, 0, inst_seed)
        observed_min: int | None = None
        if mode in ("oracle", "both"):
            observed_min, _ = oracle_min_weight(g)
            report.check(g, "min_weight 0", f"min_weight {observed_min}", observed_min == 0)
        if mode in ("solver", "both"):
            _, solve = local_search_min_weight(g, seed=inst_seed)
            solver_weight = solve.final_weight
            if mode == "both":
                if abs(solver_weight) != observed_min:
                    mismatches.append(
                        {"instance": serialize_instance(g),
                         "expected": f"solver |weight| {observed_min}",
                         "observed": f"solver weight {solver_weight}"}
                    )
            elif solve.gap:
                # a witness above its bound proves nothing either way
                uncertified += 1
            else:
                observed_min = abs(solver_weight)
                report.check(
                    g, "solver_weight 0", f"solver_weight {solver_weight}",
                    solver_weight == 0,
                )
        report.rows.append(
            {"n": n, "k": "", "s": 0, "seed": inst_seed,
             "min_weight": "" if observed_min is None else observed_min,
             "bound": 0, "pass": "" if observed_min is None else observed_min == 0}
        )

    if mode == "both":
        report.stats["solver_mismatches"] = mismatches
    if uncertified:
        report.stats["uncertified"] = uncertified
    return _finish(report, t0)


def _certified_min(cert) -> tuple[int | str, str]:
    """(the row's ``min_weight``, blank if the witness misses the bound; the observed text)."""
    if abs(cert.weight) == cert.bound:
        return cert.bound, f"min_weight {cert.bound} (certified)"
    return "", f"lower bound {cert.bound}, witness weight {cert.weight}"


def verify_prop2(k: int) -> VerifyReport:
    """The two-block instance has imbalance 2 yet no zero-weight matching.

    The weight minimum is certified at every k with no search: the parity
    step of :func:`certify` gives |weight| >= 2, and its walk's witness has
    |weight| 2.
    """
    t0 = time.perf_counter()
    report = VerifyReport(theorem="prop2", params={"k": k}, seed=None)

    g = proposition2_instance(k)
    total = sigma_total(g)
    ok = report.check(g, "sigma_total 2", f"sigma_total {total}", total == 2)

    observed_min, observed = _certified_min(certify(g))
    ok = report.check(g, "min_weight 2", observed, observed_min == 2) and ok
    report.rows.append(
        {"n": g.order // 4, "k": k, "s": total, "seed": "",
         "min_weight": observed_min, "bound": 2, "pass": ok}
    )
    return _finish(report, t0)


def verify_theorem2(
    n: int,
    k: int,
    samples: int = 50,
    seed: int = 0,
    grid: str = "sampled",
) -> VerifyReport:
    """Imbalance below thm2_bound(n,k) forces a matching of |weight| <= 2k-2.

    ``grid="full"`` checks every admissible imbalance with ``samples``
    instances each; ``grid="sampled"`` checks ``samples`` imbalances: the
    extremes 0 and +/-(bound-2) first, as far as ``samples`` reaches, then
    uniform draws.
    Each instance is decided at every order by the witness of one
    :func:`certify`, since the statement asks only for some light matching;
    a row's ``min_weight`` is blank unless the witness meets the bound.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    if grid not in ("full", "sampled"):
        raise ParameterError(f"grid must be 'full' or 'sampled', got {grid!r}")
    _require_samples(samples)
    order = 4 * n

    bound = thm2_bound(n, k)
    threshold = 2 * k - 2
    # admissible s: the cap + 1 even values with |s| <= cap < bound
    # (bound and C(4n,2) are both even)
    cap = min(bound - 2, pair_count(order))
    t0 = time.perf_counter()
    report = VerifyReport(
        theorem="theorem2",
        params={"n": n, "k": k, "samples": samples, "grid": grid},
        seed=seed,
    )
    stream = SplitMix64(seed)

    plan: list[int] = []
    if grid == "full":
        for s in range(-cap, cap + 1, 2):
            plan.extend([s] * samples)
    else:
        plan.extend(list(dict.fromkeys((0, cap, -cap)))[:samples])
        while len(plan) < samples:
            plan.append(-cap + 2 * stream.bounded(cap + 1))

    for s in plan:
        inst_seed = stream.next_u64()
        g = random_with_imbalance(order, s, inst_seed)
        cert = certify(g)
        weight = abs(cert.weight)
        ok = report.check(
            g, f"min_weight <= {threshold}", f"min_weight {weight}", weight <= threshold,
        )
        report.rows.append(
            {"n": n, "k": k, "s": s, "seed": inst_seed,
             "min_weight": _certified_min(cert)[0], "bound": threshold, "pass": ok}
        )
    return _finish(report, t0)


def verify_tightness(n: int, k: int) -> VerifyReport:
    """The plus-clique instance meets thm2_bound and its minimum weight is 2k.

    Checks the imbalance identity exactly, the minus matching number n-k,
    and that the weight minimum is 2k, i.e. strictly above the 2k-2
    guarantee that stops just below bound.  Both are certified at every
    order with no oracle call: the matching number is read from
    :func:`certify`'s lo = order/2 - 2*nu_minus, and the certificate's
    witness, M- completed with plus edges, must weigh exactly lo.
    """
    t0 = time.perf_counter()
    report = VerifyReport(theorem="tightness", params={"n": n, "k": k}, seed=None)
    g = clique_instance(n, k)

    total = sigma_total(g)
    expected_total = thm2_bound(n, k)
    ok = report.check(
        g, f"sigma_total {expected_total}", f"sigma_total {total}",
        total == expected_total,
    )

    cert = certify(g)
    nu = (g.order // 2 - cert.lo) // 2
    ok = report.check(
        g, f"minus_matching_number {n - k}", f"minus_matching_number {nu}",
        nu == n - k,
    ) and ok

    observed_min, observed = _certified_min(cert)
    ok = report.check(
        g, f"min_weight {2 * k}", observed, observed_min == 2 * k,
    ) and ok

    report.rows.append(
        {"n": n, "k": k, "s": total, "seed": "",
         "min_weight": observed_min, "bound": 2 * k, "pass": ok}
    )
    return _finish(report, t0)


def _graph_as_minus_instance(graph: SimpleGraph) -> SignedCompleteGraph:
    """Embed an unlabeled graph as the minus subgraph of a signed instance."""
    edge_set = set(graph.edges)
    return SignedCompleteGraph.from_edge_sign(
        graph.order, lambda u, v: -1 if (u, v) in edge_set else 1
    )


def verify_erdos_gallai(
    n: int, k: int, samples: int = 1000, seed: int = 0
) -> VerifyReport:
    """Edge bound for order-4n graphs of matching number n-k, plus converse.

    Asserts the extremal graph meets the bound with matching number exactly
    n-k, then samples random graphs and checks the contrapositive: more
    edges than the bound forces matching number > n-k.  A sample at or
    below the bound gets a row but is not counted as tested.  Failure entries
    embed the graph as the minus subgraph of a signed instance so they
    round-trip through the instance parser; for the extremal graph that
    instance is :func:`clique_instance`.
    """
    _require_samples(samples)
    t0 = time.perf_counter()
    report = VerifyReport(
        theorem="erdos_gallai", params={"n": n, "k": k, "samples": samples}, seed=seed
    )
    order = 4 * n
    bound = eg_edge_bound(n, k)

    extremal = eg_extremal_graph(n, k)
    extremal_instance = partial(clique_instance, n, k)
    ok = report.check(
        extremal_instance, f"edges {bound}", f"edges {extremal.edge_count}",
        extremal.edge_count == bound,
    )
    nu = blossom.matching_number(extremal.order, extremal.edges)
    ok = report.check(
        extremal_instance, f"matching_number {n - k}", f"matching_number {nu}", nu == n - k
    ) and ok
    report.rows.append(
        {"n": n, "k": k, "s": extremal.edge_count, "seed": "", "min_weight": nu,
         "bound": bound, "pass": ok}
    )

    stream = SplitMix64(seed)
    above_bound = 0
    for _ in range(samples):
        inst_seed = stream.next_u64()
        graph = random_graph(order, inst_seed)
        ok = True
        nu = blossom.matching_number(graph.order, graph.edges)
        if graph.edge_count > bound:  # at or below it the contrapositive claims nothing
            above_bound += 1
            ok = report.check(
                partial(_graph_as_minus_instance, graph),
                f"matching_number > {n - k} (edges {graph.edge_count} > bound {bound})",
                f"matching_number {nu}",
                nu > n - k,
            )
        report.rows.append(
            {"n": n, "k": k, "s": graph.edge_count, "seed": inst_seed,
             "min_weight": nu, "bound": bound, "pass": ok}
        )
    report.stats["samples_above_bound"] = above_bound
    return _finish(report, t0)
