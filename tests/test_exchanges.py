"""The exchange-move scan: enumeration order, move shape and delta soundness.

Every move here comes from the scan the local search itself runs, as
(removed_idxs, added_pairs, delta); see :func:`helpers.raw_moves`.
"""

from itertools import combinations, groupby
from math import comb, prod

import pytest

from lowpm import (
    PerfectMatching,
    SignedCompleteGraph,
    random_perfect_matching,
    random_with_imbalance,
    sigma_matching,
    SplitMix64,
)
from lowpm import solver

from helpers import assert_sound_move, crossing_pairings, raw_moves


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


def removed_pairs(m, idxs):
    return tuple(m.pairs[i] for i in idxs)


class TestEnumeration:
    def test_counts_on_k8(self):
        g = random_with_imbalance(8, 0, 1)
        counts = {r: sum(1 for _ in raw_moves(g, M8, r)) for r in (2, 3, 4)}
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
        for idxs, added, _ in raw_moves(g, m, r):
            by_subset.setdefault(removed_pairs(m, idxs), []).append(added)
        assert len(by_subset) == comb(6, r)
        for removed, added_list in by_subset.items():
            expected = crossing_pairings(removed)
            assert sorted(added_list) == sorted(expected)
            assert len(added_list) == crossing_count(r)

    def test_k4_example_exchanges(self):
        g = k4_two_plus()
        m = PerfectMatching(((0, 1), (2, 3)))
        moves = list(raw_moves(g, m, 2))
        assert {added for _, added, _ in moves} == {((0, 2), (1, 3)), ((0, 3), (1, 2))}
        assert all(delta == -4 for _, _, delta in moves)

    def test_deltas_are_consistent(self):
        g = random_with_imbalance(8, 4, 9)
        for r in (2, 3, 4):
            for idxs, added, delta in raw_moves(g, M8, r):
                expected = sum(g.sign(a, b) for a, b in added) - sum(
                    g.sign(a, b) for a, b in removed_pairs(M8, idxs)
                )
                assert delta == expected
                assert delta % 2 == 0

    def test_deterministic_order(self):
        g = random_with_imbalance(8, 0, 5)
        assert list(raw_moves(g, M8, 3)) == list(raw_moves(g, M8, 3))

    def test_r_exceeding_half_order(self):
        g = random_with_imbalance(4, 0, 5)
        assert list(raw_moves(g, PerfectMatching(((0, 1), (2, 3))), 3)) == []

    def test_subsets_then_pairings_in_lexicographic_order(self):
        # the local search takes the first improving move of this scan, so
        # the order is part of its determinism
        g = random_with_imbalance(10, 5, 4)
        m = random_perfect_matching(10, SplitMix64(0))
        for r in (2, 3, 4):
            groups = [(removed_pairs(m, idxs), [added for _, added, _ in moves])
                      for idxs, moves in groupby(raw_moves(g, m, r), key=lambda x: x[0])]
            assert [removed for removed, _ in groups] == list(combinations(m.pairs, r))
            for removed, added in groups:
                assert added == sorted(crossing_pairings(removed))


class TestAnchor:
    """An anchored scan is the full scan cut to the subsets holding the anchor."""

    @pytest.mark.parametrize("anchor", [(0, 3), (4, 1), (2, 5)])
    def test_anchored_moves_are_the_full_scan_filtered(self, anchor):
        g = random_with_imbalance(12, 0, 31)
        m = random_perfect_matching(12, SplitMix64(8))
        for r in (2, 3, 4):
            anchored = [(frozenset(idxs), added, delta)
                        for idxs, added, delta in raw_moves(g, m, r, anchor)]
            full = [(frozenset(idxs), added, delta) for idxs, added, delta in raw_moves(g, m, r)
                    if set(anchor) <= set(idxs)]
            assert sorted(anchored, key=repr) == sorted(full, key=repr)
            assert len(anchored) == comb(4, r - 2) * crossing_count(r)

    def test_anchor_leads_each_subset_in_combinations_order(self):
        g = random_with_imbalance(10, 5, 4)
        m = random_perfect_matching(10, SplitMix64(0))
        idxs = [i for i, _ in groupby(i for i, _, _ in raw_moves(g, m, 4, (3, 1)))]
        assert idxs == [(3, 1) + rest for rest in combinations((0, 2, 4), 2)]


class TestApply:
    def test_apply_shifts_weight_by_delta(self):
        g = random_with_imbalance(12, 0, 3)
        rng = SplitMix64(11)
        m = random_perfect_matching(12, rng)
        w = sigma_matching(g, m)
        for r in (2, 3, 4):
            for move in raw_moves(g, m, r):
                assert sigma_matching(g, assert_sound_move(g, m, move)) == w + move[2]

    def test_apply_then_inverse_is_identity(self):
        # each move's reverse is a move of the same scan from the result
        g = random_with_imbalance(8, 0, 13)
        for idxs, added, delta in raw_moves(g, M8, 3):
            after = assert_sound_move(g, M8, (idxs, added, delta))
            removed = removed_pairs(M8, idxs)
            reverse = [move for move in raw_moves(g, after, 3)
                       if removed_pairs(after, move[0]) == added and move[1] == removed]
            assert [move[2] for move in reverse] == [-delta]
            assert assert_sound_move(g, after, reverse[0]) == M8

    def test_k4_example_application(self):
        g = k4_two_plus()
        m = PerfectMatching(((0, 1), (2, 3)))
        after = assert_sound_move(g, m, next(iter(raw_moves(g, m, 2))))
        assert sigma_matching(g, m) == 2
        assert sigma_matching(g, after) == -2

    def test_random_exchange_soundness_sweep(self):
        # 1000 random (instance, matching, exchange) triples at order 12;
        # the bulk 1e5 sweep lives in the acceptance suite
        rng = SplitMix64(2024)
        g = random_with_imbalance(12, 0, 77)
        checked = 0
        while checked < 1000:
            m = random_perfect_matching(12, rng)
            r = 2 + rng.bounded(3)
            moves = list(raw_moves(g, m, r))
            assert_sound_move(g, m, moves[rng.bounded(len(moves))])
            checked += 1


class TestExchangeType:
    """The shape of every move the scan yields, checked on all moves of K_10."""

    G10 = random_with_imbalance(10, 5, 21)
    M10 = random_perfect_matching(10, SplitMix64(3))

    def all_moves(self):
        for r in (2, 3, 4):
            yield from raw_moves(self.G10, self.M10, r)

    def test_validation_vertex_mismatch(self):
        for idxs, added, _ in self.all_moves():
            removed = removed_pairs(self.M10, idxs)
            assert sorted(v for p in added for v in p) == sorted(v for p in removed for v in p)

    def test_validation_overlap(self):
        for idxs, added, _ in self.all_moves():
            assert not set(added) & set(removed_pairs(self.M10, idxs))

    def test_validation_r_range(self):
        assert set(solver._PATTERNS) == set(solver.R_LEVELS) == {2, 3, 4}
        for idxs, added, _ in self.all_moves():
            assert len(idxs) == len(added) in (2, 3, 4)

    def test_inverse_swaps_sides(self):
        # the removed pairs form a crossing pairing of the added ones, so the
        # scan from the result offers the swap back at the opposite delta
        for idxs, added, delta in self.all_moves():
            after = assert_sound_move(self.G10, self.M10, (idxs, added, delta))
            back = {(removed_pairs(after, i), a): d
                    for i, a, d in raw_moves(self.G10, after, len(idxs))}
            assert back[(added, removed_pairs(self.M10, idxs))] == -delta
