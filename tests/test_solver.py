"""Local search behavior: convergence, certificates, stop reasons, determinism."""

import pytest

from lowpm import (
    MatchingError,
    ParameterError,
    PerfectMatching,
    clique_instance,
    local_search_min_weight,
    oracle_min_weight,
    proposition2_instance,
    random_with_imbalance,
    sigma_matching,
)
from lowpm import solver

from helpers import flipped_prop2, raw_moves


def assert_local_optimum(g, m, w):
    """No move of the search's own scan, r <= 4 unanchored, improves on ``m``."""
    for r in (2, 3, 4):
        for _, _, delta in raw_moves(g, m, r):
            assert abs(w + delta) >= abs(w)


class TestConvergence:
    def test_start_at_zero_weight_returned_unchanged(self):
        g = random_with_imbalance(8, 0, 42)
        _, witness = oracle_min_weight(g)
        m, report = local_search_min_weight(g, seed=0, start=witness)
        assert m == witness
        assert report.final_weight == 0
        assert report.moves_applied == {2: 0, 3: 0, 4: 0}
        assert report.stop_reason == "floor"
        assert report.gap == 0

    @pytest.mark.parametrize("order", [8, 12])
    def test_balanced_instances_reach_zero(self, order):
        for seed in range(15):
            g = random_with_imbalance(order, 0, seed * 7 + 1)
            m, report = local_search_min_weight(g, seed=seed)
            assert report.final_weight == 0
            assert sigma_matching(g, m) == 0

    def test_prop2_reaches_two_never_zero(self):
        g = proposition2_instance(2)
        for seed in range(5):
            m, report = local_search_min_weight(g, seed=seed)
            assert abs(report.final_weight) == 2
            assert report.stop_reason == "certified"
            assert report.gap == 0

    def test_agrees_with_oracle_on_mixed_imbalances(self):
        for seed in range(12):
            s = 2 * (seed - 6)
            g = random_with_imbalance(8, s, seed + 50)
            expected, _ = oracle_min_weight(g)
            m, report = local_search_min_weight(g, seed=seed)
            assert abs(report.final_weight) == expected

    def test_agrees_with_oracle_across_orders(self):
        # empirical exactness of the descent, bound, walk and bridge: no
        # counterexample is known, and any instance that produced one here
        # would be a finding worth keeping (see the artifacts the suite writes)
        from lowpm import pair_count

        cases = []
        for order in (4, 6, 10, 12):
            parity = pair_count(order) % 2
            for idx in range(8):
                cases.append((order, parity + 2 * (idx % 4), 7000 + idx))
        for order, s, seed in cases:
            g = random_with_imbalance(order, s, seed)
            expected, _ = oracle_min_weight(g)
            _, report = local_search_min_weight(g, seed=seed)
            assert abs(report.final_weight) == expected, (order, s, seed)

    def test_result_is_local_optimum(self):
        for seed in range(6):
            g = random_with_imbalance(12, 2, seed)
            m, report = local_search_min_weight(g, seed=seed)
            assert_local_optimum(g, m, report.final_weight)


class TestReport:
    def test_weight_never_worsens(self):
        for seed in range(10):
            g = random_with_imbalance(10, 1, seed)
            _, report = local_search_min_weight(g, seed=seed)
            assert abs(report.final_weight) <= abs(report.initial_weight)

    def test_final_weight_matches_returned_matching(self):
        g = random_with_imbalance(12, 4, 5)
        m, report = local_search_min_weight(g, seed=1)
        assert sigma_matching(g, m) == report.final_weight

    def test_counts_nonnegative(self):
        g = random_with_imbalance(8, 2, 3)
        _, report = local_search_min_weight(g, seed=2)
        assert all(c >= 0 for c in report.moves_applied.values())

    def test_to_dict_round_trip_fields(self):
        g = random_with_imbalance(8, 0, 3)
        _, report = local_search_min_weight(g, seed=2)
        d = report.to_dict()
        assert d["final_weight"] == report.final_weight
        assert set(d["moves_applied"]) == {"2", "3", "4"}
        # solve --check-oracle adds the oracle's keys itself
        assert not {"oracle_checked", "oracle_min_weight"} & set(d)

    def test_report_has_no_oracle_fields(self):
        with pytest.raises(TypeError):
            solver.SolveReport(0, 0, {}, "floor", 0, oracle_checked=True)


@pytest.fixture
def scans(monkeypatch):
    """(r, anchor) of every exchange scan a solve starts."""
    calls = []
    real = solver._iter_raw_moves

    def spy(signs, off, edges, r, anchor):
        calls.append((r, anchor))
        return real(signs, off, edges, r, anchor)

    monkeypatch.setattr(solver, "_iter_raw_moves", spy)
    return calls


class TestBoundBeforeWideScan:
    @pytest.mark.parametrize("g", [
        clique_instance(10, 2),
        proposition2_instance(6),
        random_with_imbalance(40, -760, 40),  # a plus class of 10 edges
    ], ids=["clique", "prop2", "sparse_plus"])
    def test_r2_stall_on_the_bound_starts_no_wider_scan(self, g, scans):
        m, report = local_search_min_weight(g)
        assert report.stop_reason == "certified"
        assert scans and {r for r, _ in scans} == {2}
        assert sigma_matching(g, m) == report.final_weight

    @pytest.mark.parametrize("g,seed,stop", [
        # the walk passes the floor
        (random_with_imbalance(40, -740, 4002), 2, "floor"),
        # hi = -8 < 0: the walk ends on the exact M+
        (random_with_imbalance(80, -3120, 8000), 0, "certified"),
    ], ids=["walk_to_floor", "plus_matching_exact"])
    def test_r2_stall_above_the_bound_walks_before_any_wider_scan(
            self, g, seed, stop, scans):
        m, report = local_search_min_weight(g, seed=seed)
        assert report.stop_reason == stop
        assert scans and {r for r, _ in scans} == {2}
        assert sigma_matching(g, m) == report.final_weight

    def test_every_wider_scan_is_anchored(self, scans):
        # flipped prop2 instances, whose walks jump over 0, bridge by r = 3
        # and 4; the solve counts the one bridging exchange under its r
        bridged = 0
        for k in (4, 6, 8):
            for seed in range(6):
                g = flipped_prop2(k, seed)
                m, report = local_search_min_weight(g, seed=seed)
                assert report.gap == 0 and sigma_matching(g, m) == report.final_weight
                wide_moves = report.moves_applied[3] + report.moves_applied[4]
                assert wide_moves <= 1
                bridged += wide_moves
        wide = [anchor for r, anchor in scans if r >= 3]
        assert bridged and wide and all(len(anchor) == 2 for anchor in wide)


class TestBudgetsAndDeterminism:
    def test_deterministic_given_seed(self):
        g = random_with_imbalance(12, 0, 17)
        m1, r1 = local_search_min_weight(g, seed=9)
        m2, r2 = local_search_min_weight(g, seed=9)
        assert m1 == m2
        assert r1.to_dict() | {"elapsed_ms": 0} == r2.to_dict() | {"elapsed_ms": 0}

    def test_zero_budgets_still_return_local_optimum(self):
        g = proposition2_instance(2)
        m, report = local_search_min_weight(g, seed=4)
        assert_local_optimum(g, m, report.final_weight)

    def test_residual_gap_stops_with_no_move(self, monkeypatch):
        g = clique_instance(2, 2)  # all plus: every matching weighs 4
        _, report = local_search_min_weight(g, seed=0)
        assert (report.stop_reason, report.lower_bound, report.gap) == ("certified", 4, 0)

        # held at the parity floor, the bound certifies nothing; the witness
        # M- (lo = 4, so no walk and no bridge) leaves the weight at 4
        real = solver.certify
        monkeypatch.setattr(solver, "certify", lambda g: real(g)._replace(bound=0))
        m, report = local_search_min_weight(g, seed=0)
        assert report.stop_reason == "no_move"
        assert (report.lower_bound, report.gap) == (0, 4)
        assert sigma_matching(g, m) == report.final_weight

    def test_sideways_budget_respected_per_restart(self, monkeypatch):
        # the search has no plateau walk and no restarts: even on a pure
        # plateau the bound cannot certify, the counters perfbench reads stay 0
        g = clique_instance(2, 2)
        real = solver.certify
        monkeypatch.setattr(solver, "certify", lambda g: real(g)._replace(bound=0))
        _, report = local_search_min_weight(g, seed=0)
        assert (report.sideways_moves, report.restarts) == (0, 0)
        assert abs(report.final_weight) == 4

    def test_exhausted_plateau_stops_with_no_move(self, monkeypatch):
        g = clique_instance(1, 1)  # all plus: the three matchings weigh 2
        real = solver.certify
        monkeypatch.setattr(solver, "certify", lambda g: real(g)._replace(bound=0))
        _, report = local_search_min_weight(g, seed=0)
        assert report.stop_reason == "no_move"
        assert (report.lower_bound, report.gap) == (0, 2)

    def test_order_too_small(self):
        g = random_with_imbalance(2, 1, 0)
        with pytest.raises(ParameterError):
            local_search_min_weight(g)

    def test_start_must_match_order(self):
        g = random_with_imbalance(8, 0, 0)
        with pytest.raises(MatchingError):
            local_search_min_weight(g, start=PerfectMatching(((0, 1), (2, 3))))
