"""Exchange enumeration, application and delta soundness."""

from itertools import combinations, groupby
from math import comb, prod

import pytest

from lowpm import (
    Exchange,
    MatchingError,
    ParameterError,
    PerfectMatching,
    SignedCompleteGraph,
    apply_exchange,
    enumerate_exchanges,
    pair_count,
    random_perfect_matching,
    random_with_imbalance,
    sigma_matching,
    SplitMix64,
)

from helpers import crossing_pairings


def double_factorial(n):
    return prod(range(1, n + 1, 2))


def crossing_count(r):
    """Pairings of 2r vertices avoiding r fixed disjoint edges (incl-excl)."""
    return sum(
        (-1) ** j * comb(r, j) * double_factorial(2 * (r - j) - 1) for j in range(r + 1)
    )


M8 = PerfectMatching(((0, 1), (2, 3), (4, 5), (6, 7)))


def k4_two_plus():
    return SignedCompleteGraph.from_edge_sign(
        4, lambda u, v: 1 if (u, v) in ((0, 1), (2, 3)) else -1
    )


class TestEnumeration:
    def test_counts_on_k8(self):
        g = random_with_imbalance(8, 0, 1)
        counts = {r: sum(1 for _ in enumerate_exchanges(g, M8, r)) for r in (2, 3, 4)}
        assert counts[2] == comb(4, 2) * 2 == 12
        assert counts[3] == comb(4, 3) * crossing_count(3) == 32
        # pinned: 60 crossing pairings of 8 vertices avoiding 4 removed edges
        assert crossing_count(4) == 60
        assert counts[4] == 60

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_per_subset_alternatives_match_brute_force(self, r):
        g = random_with_imbalance(12, 0, 2)
        m = PerfectMatching(tuple((2 * i, 2 * i + 1) for i in range(6)))
        by_subset = {}
        for x in enumerate_exchanges(g, m, r):
            by_subset.setdefault(x.removed, []).append(x.added)
        assert len(by_subset) == comb(6, r)
        for removed, added_list in by_subset.items():
            expected = crossing_pairings(removed)
            assert sorted(added_list) == sorted(expected)
            assert len(added_list) == crossing_count(r)

    def test_k4_example_exchanges(self):
        g = k4_two_plus()
        m = PerfectMatching(((0, 1), (2, 3)))
        moves = list(enumerate_exchanges(g, m, 2))
        assert {x.added for x in moves} == {((0, 2), (1, 3)), ((0, 3), (1, 2))}
        assert all(x.delta == -4 for x in moves)

    def test_deltas_are_consistent(self):
        g = random_with_imbalance(8, 4, 9)
        for r in (2, 3, 4):
            for x in enumerate_exchanges(g, M8, r):
                expected = sum(g.sign(a, b) for a, b in x.added) - sum(
                    g.sign(a, b) for a, b in x.removed
                )
                assert x.delta == expected
                assert x.delta % 2 == 0

    def test_deterministic_order(self):
        g = random_with_imbalance(8, 0, 5)
        first = [(x.removed, x.added) for x in enumerate_exchanges(g, M8, 3)]
        second = [(x.removed, x.added) for x in enumerate_exchanges(g, M8, 3)]
        assert first == second

    def test_invalid_r(self):
        g = random_with_imbalance(8, 0, 5)
        for r in (1, 5, 0):
            with pytest.raises(ParameterError):
                list(enumerate_exchanges(g, M8, r))

    def test_r_exceeding_half_order(self):
        g = random_with_imbalance(4, 0, 5)
        with pytest.raises(ParameterError):
            list(enumerate_exchanges(g, PerfectMatching(((0, 1), (2, 3))), 3))

    def test_subsets_then_pairings_in_lexicographic_order(self):
        # the local search takes the first improving move of this scan, so
        # the order is part of its determinism
        g = random_with_imbalance(10, 5, 4)
        m = random_perfect_matching(10, SplitMix64(0))
        for r in (2, 3, 4):
            groups = [(removed, [x.added for x in xs]) for removed, xs in
                      groupby(enumerate_exchanges(g, m, r), key=lambda x: x.removed)]
            assert [removed for removed, _ in groups] == list(combinations(m.pairs, r))
            for removed, added in groups:
                assert added == sorted(crossing_pairings(removed))


class TestApply:
    def test_apply_shifts_weight_by_delta(self):
        g = random_with_imbalance(12, 0, 3)
        rng = SplitMix64(11)
        m = random_perfect_matching(12, rng)
        w = sigma_matching(g, m)
        for r in (2, 3, 4):
            for x in enumerate_exchanges(g, m, r):
                assert sigma_matching(g, apply_exchange(m, x)) == w + x.delta

    def test_apply_then_inverse_is_identity(self):
        g = random_with_imbalance(8, 0, 13)
        for x in enumerate_exchanges(g, M8, 3):
            after = apply_exchange(M8, x)
            assert apply_exchange(after, x.inverse()) == M8

    def test_k4_example_application(self):
        g = k4_two_plus()
        m = PerfectMatching(((0, 1), (2, 3)))
        x = next(iter(enumerate_exchanges(g, m, 2)))
        after = apply_exchange(m, x)
        assert sigma_matching(g, m) == 2
        assert sigma_matching(g, after) == -2

    def test_removed_must_be_subset(self):
        g = random_with_imbalance(8, 0, 5)
        x = next(iter(enumerate_exchanges(g, M8, 2)))
        other = PerfectMatching(((0, 2), (1, 3), (4, 6), (5, 7)))
        with pytest.raises(MatchingError):
            apply_exchange(other, x)

    def test_random_exchange_soundness_sweep(self):
        # 1000 random (instance, matching, exchange) triples at order 12;
        # the bulk 1e5 sweep lives in the acceptance suite
        rng = SplitMix64(2024)
        g = random_with_imbalance(12, 0, 77)
        checked = 0
        while checked < 1000:
            m = random_perfect_matching(12, rng)
            w = sigma_matching(g, m)
            r = 2 + rng.bounded(3)
            moves = list(enumerate_exchanges(g, m, r))
            x = moves[rng.bounded(len(moves))]
            assert sigma_matching(g, apply_exchange(m, x)) - w == x.delta
            checked += 1


class TestExchangeType:
    def test_validation_vertex_mismatch(self):
        with pytest.raises(MatchingError):
            Exchange(removed=((0, 1), (2, 3)), added=((0, 2), (1, 4)), delta=0)

    def test_validation_overlap(self):
        with pytest.raises(MatchingError):
            Exchange(removed=((0, 1), (2, 3)), added=((0, 1), (2, 3)), delta=0)

    def test_validation_r_range(self):
        with pytest.raises(MatchingError):
            Exchange(removed=((0, 1),), added=((0, 1),), delta=0)

    def test_inverse_swaps_sides(self):
        x = Exchange(removed=((0, 1), (2, 3)), added=((0, 2), (1, 3)), delta=-4)
        inv = x.inverse()
        assert inv.removed == ((0, 2), (1, 3))
        assert inv.added == ((0, 1), (2, 3))
        assert inv.delta == 4
