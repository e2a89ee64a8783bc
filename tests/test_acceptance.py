"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Every tolerance is exact unless a runtime ceiling is
stated, in which case the stated ceiling is asserted.
"""

import time
from pathlib import Path

import pytest

from lowpm import (
    PerfectMatching,
    SplitMix64,
    clique_instance,
    eg_edge_bound,
    eg_extremal_graph,
    local_search_min_weight,
    matching_number,
    oracle_min_weight,
    pair_count,
    parse_instance,
    proposition2_instance,
    random_graph,
    random_perfect_matching,
    random_with_imbalance,
    serialize_instance,
    sigma_matching,
    sigma_total,
    sign_subgraph,
    thm2_bound,
    verify_erdos_gallai,
    verify_theorem1,
    verify_theorem2,
    verify_tightness,
)

from helpers import (
    assert_sound_move,
    brute_matching_number,
    brute_min_weight,
    brute_perfect_matchings,
    raw_moves,
)

ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def report_line(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE C{criterion} {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- shared corpora ---------------------------------------------------------


def balanced_corpus():
    """Seeded balanced instances of orders 4, 8, 12 (25 each)."""
    instances = []
    for order in (4, 8, 12):
        for seed in range(25):
            instances.append((order, seed, random_with_imbalance(order, 0, seed)))
    return instances


def graph_corpus_up_to_10():
    """Unlabeled graphs of order <= 10: random, extremal, sign subgraphs."""
    graphs = []
    for order in range(2, 11):
        for seed in range(12):
            graphs.append(random_graph(order, 1000 * order + seed))
    for n, k in ((1, 1), (2, 1), (2, 2)):
        graphs.append(eg_extremal_graph(n, k))
    for order in (4, 6, 8, 10):
        parity = pair_count(order) % 2
        for seed in range(10):
            g = random_with_imbalance(order, parity, 500 + seed)
            graphs.append(sign_subgraph(g, -1))
            graphs.append(sign_subgraph(g, 1))
    return graphs


# --- criteria ---------------------------------------------------------------


def test_criterion_1_theorem1_exhaustive_k4():
    t0 = time.perf_counter()
    report = verify_theorem1(1, exhaustive=True, mode="oracle")
    elapsed = time.perf_counter() - t0
    ok = report.tested == 20 and report.passed == 20 and elapsed < 1.0
    report_line(1, ok, f"20/20 balanced K_4 labelings have a zero-weight matching "
                       f"({elapsed:.2f}s < 1s)")


def test_criterion_2_theorem1_sampled_n2_n3():
    t0 = time.perf_counter()
    r2 = verify_theorem1(2, samples=1000, seed=20260810, mode="both")
    t2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    r3 = verify_theorem1(3, samples=200, seed=20260811, mode="both")
    t3 = time.perf_counter() - t0
    ok = (
        r2.tested == r2.passed == 1000
        and r3.tested == r3.passed == 200
        and r2.stats["solver_mismatches"] == []
        and r3.stats["solver_mismatches"] == []
        and t2 < 60.0
        and t3 < 120.0
    )
    report_line(2, ok, f"n=2: 1000/1000 oracle zeros, solver agreed ({t2:.1f}s); "
                       f"n=3: 200/200, solver agreed ({t3:.1f}s < 120s)")


def test_criterion_3_prop2_k2_exact():
    g = proposition2_instance(2)
    all_pms = list(brute_perfect_matchings(8))
    weights = [abs(sum(g.sign(a, b) for a, b in pairs)) for pairs in all_pms]
    oracle_min, witness = oracle_min_weight(g)
    ok = (
        sigma_total(g) == 2
        and len(all_pms) == 105
        and min(weights) == 2
        and 0 not in weights
        and oracle_min == 2
        and abs(sigma_matching(g, witness)) == 2
    )
    report_line(3, ok, "two-block k=2: imbalance 2; min weight 2 over all 105 "
                       "matchings of K_8 (none at 0)")


def rows_match_oracle(report, order):
    """Every row's (min_weight, pass) is (oracle minimum, True), the minimum
    at most 2, on the instance rebuilt from the row's (s, seed)."""
    for row in report.rows:
        exact, _ = oracle_min_weight(random_with_imbalance(order, row["s"], row["seed"]))
        if exact > 2 or (row["min_weight"], row["pass"]) != (exact, True):
            return False
    return True


def test_criterion_4_corollary_full_imbalance_band_n2():
    report = verify_theorem2(2, 2, samples=50, seed=4, grid="full")
    imbalances = sorted({row["s"] for row in report.rows})
    ok = (
        report.ok
        and imbalances == list(range(-26, 27, 2))
        and report.tested == 27 * 50
        and rows_match_oracle(report, 8)
    )
    report_line(4, ok, f"n=2: every even |s|<28, 50 instances each "
                       f"({report.tested} total), oracle min <= 2 throughout")


def test_criterion_5_theorem2_order12():
    t0 = time.perf_counter()
    report = verify_theorem2(3, 2, samples=500, seed=5, grid="sampled")
    elapsed = time.perf_counter() - t0
    ok = (
        report.ok
        and report.tested >= 500
        and all(abs(row["s"]) < 44 for row in report.rows)
        and rows_match_oracle(report, 12)
        and elapsed < 600.0
    )
    report_line(5, ok, f"(n,k)=(3,2): {report.tested} sampled order-12 instances "
                       f"with |s|<44, oracle min <= 2 ({elapsed:.1f}s < 600s)")


def test_criterion_6_tightness():
    identity_ok = all(
        sigma_total(clique_instance(n, k)) == thm2_bound(n, k)
        for n in range(1, 51)
        for k in range(1, n + 1)
    )
    oracle_ok = True
    details = []
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 2)):
        # verify tight certifies the minimum; the oracle checks it independently
        report = verify_tightness(n, k)
        exact, _ = oracle_min_weight(clique_instance(n, k))
        oracle_ok = (oracle_ok and report.ok and exact == 2 * k
                     and report.rows[0]["min_weight"] == exact)
        details.append(f"({n},{k})->{exact}")
    ok = identity_ok and oracle_ok
    report_line(6, ok, "imbalance identity exact for 1<=k<=n<=50; oracle min = 2k "
                       f"on {', '.join(details)}")


def test_criterion_7_erdos_gallai():
    extremal_ok = True
    for n, k in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        graph = eg_extremal_graph(n, k)
        extremal_ok = extremal_ok and graph.edge_count == eg_edge_bound(n, k)
        extremal_ok = extremal_ok and matching_number(graph.order, graph.rows) == n - k
    contrapositive = verify_erdos_gallai(2, 1, samples=1000, seed=7)
    checked = contrapositive.stats["samples_above_bound"]
    # only the two extremal checks and the graphs above the bound are counted
    counted = contrapositive.tested == contrapositive.passed == 2 + checked
    ok = extremal_ok and contrapositive.ok and counted and checked > 0
    report_line(7, ok, f"five extremal graphs exact; contrapositive held on 1000 "
                       f"random order-8 graphs ({checked} above the bound)")


def test_criterion_8_property_suites():
    # exchange soundness on >= 1e5 random triples: cover, disjointness,
    # a valid result and delta against sigma recomputed by index
    rng = SplitMix64(808)
    instances = []
    for order in (8, 10, 12):
        parity = pair_count(order) % 2
        for seed in range(12):
            s = parity + 2 * (seed % 5)
            instances.append(random_with_imbalance(order, s, 900 + seed))
    triples = 0
    for round_idx in range(1000):
        g = instances[round_idx % len(instances)]
        m = random_perfect_matching(g.order, rng)
        for r in (2, 3, 4):
            moves = list(raw_moves(g, m, r))
            for _ in range(34):
                assert_sound_move(g, m, moves[rng.bounded(len(moves))])
                triples += 1
    exchange_ok = triples >= 100_000

    # blossom vs brute force on every corpus graph of order <= 10
    graphs = graph_corpus_up_to_10()
    blossom_ok = all(
        matching_number(graph.order, graph.rows)
        == brute_matching_number(graph.order, graph.edges)
        for graph in graphs
    )

    # parse/serialize round-trip on every generated instance
    generated = [g for _, _, g in balanced_corpus()]
    generated += [proposition2_instance(k) for k in (2, 4)]
    generated += [clique_instance(n, k) for n in range(1, 7) for k in range(1, n + 1)]
    generated += instances
    round_trip_ok = all(parse_instance(serialize_instance(g)) == g for g in generated)

    ok = exchange_ok and blossom_ok and round_trip_ok
    report_line(8, ok, f"{triples} exchange triples sound; blossom = brute force on "
                       f"{len(graphs)} graphs; {len(generated)} instances round-trip")


def test_criterion_9_solver_reaches_zero_on_balanced_corpus():
    failures = []
    for order, seed, g in balanced_corpus():
        _, report = local_search_min_weight(g, seed=seed)
        if report.final_weight != 0:
            oracle_min, _ = oracle_min_weight(g)
            if oracle_min == 0:
                ARTIFACT_DIR.mkdir(exist_ok=True)
                name = ARTIFACT_DIR / f"balanced_order{order}_seed{seed}.sk"
                name.write_text(serialize_instance(g))
                failures.append(str(name))
    ok = not failures
    detail = (f"the solver reached weight 0 on all {len(balanced_corpus())} "
              f"balanced instances of orders 4/8/12")
    if failures:
        detail = f"solver missed zero; artifacts: {', '.join(failures)}"
    report_line(9, ok, detail)
