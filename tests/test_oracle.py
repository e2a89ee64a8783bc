"""Exact-minimum oracle versus independent brute force."""

import gc
from itertools import product

import pytest

from lowpm import (
    OracleLimitError,
    PerfectMatching,
    SignedCompleteGraph,
    clique_instance,
    lower_bound,
    oracle_min_weight,
    pair_count,
    proposition2_instance,
    random_with_imbalance,
    sigma_matching,
)
from lowpm.solver import _pairings

from helpers import brute_min_weight, brute_perfect_matchings


def all_plus(order):
    return SignedCompleteGraph(order, (1,) * pair_count(order))


class TestEnumeration:
    """``solver._pairings``, the one pairing enumeration (the oracle's
    witness order and the scan's crossing patterns)."""

    @pytest.mark.parametrize("order,count", [(2, 1), (4, 3), (8, 105)])
    def test_counts(self, order, count):
        package = [PerfectMatching(pairs) for pairs in _pairings(tuple(range(order)))]
        assert len(package) == count
        assert len(set(package)) == count
        independent = set(brute_perfect_matchings(order))
        assert {m.pairs for m in package} == independent

    def test_count_order_12(self):
        assert sum(1 for _ in _pairings(tuple(range(12)))) == 10395

    def test_lexicographic_order(self):
        listed = list(_pairings(tuple(range(8))))
        assert listed == sorted(listed)

    def test_odd_order_rejected(self):
        # an odd vertex set has no perfect pairing, so none is listed
        assert list(_pairings(tuple(range(5)))) == []


class TestOracle:
    def test_all_plus_k8(self):
        w, witness = oracle_min_weight(all_plus(8))
        assert w == 4
        assert sigma_matching(all_plus(8), witness) == 4

    def test_balanced_k8(self):
        for seed in range(20):
            g = random_with_imbalance(8, 0, seed)
            w, witness = oracle_min_weight(g)
            assert w == 0
            assert sigma_matching(g, witness) == 0

    def test_clique_22_is_all_plus(self):
        assert clique_instance(2, 2) == all_plus(8)
        assert oracle_min_weight(clique_instance(2, 2))[0] == 4

    def test_prop2_k2(self):
        assert oracle_min_weight(proposition2_instance(2))[0] == 2

    def test_exhaustive_k4_against_brute_force(self):
        for signs in product((-1, 1), repeat=6):
            g = SignedCompleteGraph(4, signs)
            w, witness = oracle_min_weight(g)
            expected_w, expected_pairs = brute_min_weight(g)
            assert w == expected_w
            assert witness.pairs == expected_pairs

    def test_exhaustive_k6_against_brute_force(self):
        for signs in product((-1, 1), repeat=15):
            g = SignedCompleteGraph(6, signs)
            w, witness = oracle_min_weight(g)
            assert (w, witness.pairs) == brute_min_weight(g)

    def test_order_12_against_brute_force(self):
        parity = pair_count(12) % 2
        cases = [random_with_imbalance(12, parity + 6 * seed, seed) for seed in range(6)]
        cases += [clique_instance(3, k) for k in (1, 2, 3)]
        for g in cases:
            w, witness = oracle_min_weight(g)
            assert (w, witness.pairs) == brute_min_weight(g)

    @pytest.mark.parametrize("order", [16, 18])
    def test_orders_16_18_against_lower_bound(self, order):
        parity = pair_count(order) % 2
        for seed in range(4):
            g = random_with_imbalance(order, parity + 10 * seed, seed)
            w, witness = oracle_min_weight(g, order_limit=order)
            assert abs(sigma_matching(g, witness)) == w
            assert w == lower_bound(g)

    def test_memo_freed_on_return(self):
        g = random_with_imbalance(12, 0, 5)
        gc.collect()
        gc.disable()
        try:
            oracle_min_weight(g)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("order", [6, 8, 10])
    def test_random_instances_against_brute_force(self, order):
        parity = pair_count(order) % 2
        for seed in range(12):
            s = parity + 2 * (seed % 4)
            g = random_with_imbalance(order, s, seed)
            w, witness = oracle_min_weight(g)
            expected_w, expected_pairs = brute_min_weight(g)
            assert w == expected_w
            assert abs(sigma_matching(g, witness)) == w
            # witness tie-break: lexicographically smallest optimum
            assert witness.pairs == expected_pairs

    def test_odd_half_order_parity(self):
        # order 6: every matching has odd weight, so the minimum is >= 1
        for seed in range(6):
            g = random_with_imbalance(6, 1, seed)
            w, _ = oracle_min_weight(g)
            assert w % 2 == 1
            assert w == brute_min_weight(g)[0]

    def test_order_limit_refusal_names_limit(self):
        g = random_with_imbalance(18, 1, 0)
        with pytest.raises(OracleLimitError) as info:
            oracle_min_weight(g)
        assert "16" in str(info.value)
        with pytest.raises(OracleLimitError):
            oracle_min_weight(g, order_limit=16)

    def test_order_past_the_maximum_is_not_told_to_raise_the_limit(self):
        # the limit cannot go past MAX_ORACLE_LIMIT, so the refusal says so instead
        g = random_with_imbalance(26, 1, 0)
        with pytest.raises(OracleLimitError) as info:
            oracle_min_weight(g)
        message = str(info.value)
        assert message.startswith("order 26 exceeds the oracle limit 16")
        assert "the most --oracle-limit accepts, 24" in message
        assert "raise the limit" not in message

    def test_order_limit_override(self):
        g = random_with_imbalance(18, 1, 0)
        w, witness = oracle_min_weight(g, order_limit=18)
        assert w % 2 == 1
        assert abs(sigma_matching(g, witness)) == w

    def test_witness_is_valid_perfect_matching(self):
        g = random_with_imbalance(12, 0, 9)
        _, witness = oracle_min_weight(g)
        assert isinstance(witness, PerfectMatching)
        assert witness.order == 12

    def test_minimum_is_a_true_lower_bound(self):
        g = random_with_imbalance(8, 2, 40)
        w, _ = oracle_min_weight(g)
        weights = {
            abs(sigma_matching(g, PerfectMatching(p))) for p in brute_perfect_matchings(8)
        }
        assert w == min(weights)
