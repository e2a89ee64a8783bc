"""Instance families, bound functions, and the seeded samplers."""

from collections import Counter
from itertools import compress
from math import comb

import pytest

from lowpm import (
    ParameterError,
    SignedCompleteGraph,
    clique_instance,
    eg_edge_bound,
    eg_extremal_graph,
    matching_number,
    pair_count,
    proposition2_instance,
    random_graph,
    random_with_imbalance,
    sigma_total,
    sign_subgraph,
    thm2_bound,
)
from lowpm.constructions import _nth_marked
from lowpm.rng import SplitMix64

from helpers import (
    brute_matching_number,
    brute_perfect_matchings,
    reference_bits,
    reference_random_graph,
    reference_random_with_imbalance,
    reference_words,
)


def fix_up_branch(order, s, seed):
    """How the sampler reaches s from the reference bits: ``none``, ``flip``
    (2f < m), ``tie`` (2f = m) or ``keep`` (2f > m)."""
    total = comb(order, 2)
    ones = sum(reference_bits(reference_words(seed), total))
    plus = (total + s) // 2
    f = abs(ones - plus)
    m = ones if ones > plus else total - ones
    return "none" if f == 0 else "flip" if 2 * f < m else "tie" if 2 * f == m else "keep"


class TestBoundQuery:
    """The (n, k) queries of the bound functions and the families they bound."""

    def test_order(self):
        assert clique_instance(3, 2).order == 12
        assert eg_extremal_graph(3, 2).order == 12

    @pytest.mark.parametrize("n,k", [(0, 1), (1, 0), (-2, 2)])
    def test_validation(self, n, k):
        for query in (thm2_bound, clique_instance, eg_edge_bound, eg_extremal_graph):
            with pytest.raises(ParameterError, match="must be a positive integer"):
                query(n, k)


class TestProposition2Instance:
    def test_k2_shape(self):
        g = proposition2_instance(2)
        assert g.order == 8
        assert g.signs.count(1) == 15       # |A| * |B| = 5 * 3
        assert g.signs.count(-1) == 13
        assert sigma_total(g) == 2

    def test_k4_shape(self):
        g = proposition2_instance(4)
        assert g.order == 20
        # |A| * |B| = ((k^2+4)(k^2+3)+4)/4 = C(20,2)/2 + 1 = 96
        assert g.signs.count(1) == ((16 + 4) * (16 + 3) + 4) // 4 == 96
        assert g.signs.count(1) == pair_count(20) // 2 + 1
        assert sigma_total(g) == 2

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_imbalance_identity(self, k):
        assert sigma_total(proposition2_instance(k)) == 2

    def test_block_structure(self):
        # block A is the first (k^2+k)/2 + 2 vertices; +1 exactly across A and B
        for k in (2, 4, 6):
            g = proposition2_instance(k)
            size_a = (k * k + k) // 2 + 2
            assert g.order == k * k + 4
            for u in range(g.order):
                for v in range(u + 1, g.order):
                    crossing = (u < size_a) != (v < size_a)
                    assert g.sign(u, v) == (1 if crossing else -1)

    @pytest.mark.parametrize("k", [0, 1, 3, -2])
    def test_parameter_errors(self, k):
        with pytest.raises(ParameterError):
            proposition2_instance(k)


class TestCliqueInstance:
    def test_22_is_all_plus(self):
        g = clique_instance(2, 2)
        assert g.signs.count(-1) == 0
        assert sigma_total(g) == 28 == 2 * 2 + 11 * 2 + 2  # n^2 + 11n + 2 at n=2

    def test_32(self):
        g = clique_instance(3, 2)
        assert g.order == 12
        assert g.signs.count(1) == comb(11, 2)
        assert sigma_total(g) == 2 * 55 - 66 == 44

    def test_33_is_all_plus_k12(self):
        g = clique_instance(3, 3)
        assert g.signs.count(-1) == 0
        assert sigma_total(g) == 66

    def test_clique_occupies_lowest_vertices(self):
        # +1 exactly on the pairs inside the first 3n+k vertices
        for n in range(1, 6):
            for k in range(1, n + 1):
                g = clique_instance(n, k)
                assert g.order == 4 * n
                for u in range(g.order):
                    for v in range(u + 1, g.order):
                        assert g.sign(u, v) == (1 if v < 3 * n + k else -1)

    def test_imbalance_matches_bound_small_sweep(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert sigma_total(clique_instance(n, k)) == thm2_bound(n, k)

    def test_32_every_matching_has_weight_4(self):
        # vertex 11 sits outside the plus-clique, so each of the 10395
        # matchings of K_12 uses exactly one minus edge: weight 6 - 2 = 4
        g = clique_instance(3, 2)
        count = 0
        for pairs in brute_perfect_matchings(12):
            assert sum(g.sign(a, b) for a, b in pairs) == 4
            count += 1
        assert count == 10395

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            clique_instance(2, 3)
        with pytest.raises(ParameterError):
            clique_instance(0, 0)


class TestThm2Bound:
    @pytest.mark.parametrize("n,k,value", [(2, 2, 28), (1, 2, 14), (3, 2, 44)])
    def test_pinned_values(self, n, k, value):
        assert thm2_bound(n, k) == value

    def test_closed_forms_agree(self):
        for n in range(1, 51):
            for k in range(1, n + 1):
                assert thm2_bound(n, k) == 2 * comb(3 * n + k, 2) - comb(4 * n, 2)

    def test_k2_special_case(self):
        for n in range(1, 30):
            assert thm2_bound(n, 2) == n * n + 11 * n + 2

    def test_validation(self):
        with pytest.raises(ParameterError):
            thm2_bound(0, 2)
        with pytest.raises(ParameterError):
            thm2_bound(2, 0)


class TestErdosGallai:
    @pytest.mark.parametrize("n,k,bound", [(2, 1, 7), (2, 2, 0), (3, 1, 21)])
    def test_edge_bounds(self, n, k, bound):
        assert eg_edge_bound(n, k) == bound

    def test_21_extremal_is_star(self):
        graph = eg_extremal_graph(2, 1)
        assert graph.edge_count == 7
        assert all(7 in pair for pair in graph.edges)
        assert matching_number(graph.order, graph.rows) == 1

    def test_22_extremal_is_edgeless(self):
        graph = eg_extremal_graph(2, 2)
        assert graph.edge_count == 0
        assert matching_number(graph.order, graph.rows) == 0

    def test_31_extremal(self):
        graph = eg_extremal_graph(3, 1)
        assert graph.edge_count == 21
        assert matching_number(graph.order, graph.rows) == 2

    def test_extremal_matches_minus_subgraph_of_clique_instance(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                extremal = eg_extremal_graph(n, k)
                minus = sign_subgraph(clique_instance(n, k), -1)
                assert extremal == minus

    def test_matching_number_formula(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                graph = eg_extremal_graph(n, k)
                assert graph.edge_count == eg_edge_bound(n, k)
                assert brute_matching_number(graph.order, graph.edges) == n - k

    def test_validation(self):
        with pytest.raises(ParameterError):
            eg_edge_bound(2, 3)
        with pytest.raises(ParameterError):
            eg_extremal_graph(2, 3)


class TestRandomWithImbalance:
    def test_balanced_counts(self):
        g = random_with_imbalance(8, 0, 7)
        assert (g.signs.count(1), g.signs.count(-1)) == (14, 14)

    def test_all_plus(self):
        g = random_with_imbalance(8, 28, 7)
        assert g.signs.count(-1) == 0

    def test_all_minus(self):
        g = random_with_imbalance(8, -28, 7)
        assert g.signs.count(1) == 0

    def test_parity_error_names_rule(self):
        with pytest.raises(ParameterError) as info:
            random_with_imbalance(8, 1, 7)
        assert "parity" in str(info.value)

    def test_range_error(self):
        with pytest.raises(ParameterError):
            random_with_imbalance(8, 30, 7)

    @pytest.mark.parametrize("order,s", [(7, 0), (3, 0), (3, 1), (0, 0), (-2, 0)])
    def test_bad_order_is_named_before_the_imbalance(self, order, s):
        # C(7,2) = 21 is odd, so s = 0 would otherwise be blamed for the order
        with pytest.raises(ParameterError) as info:
            random_with_imbalance(order, s, 1)
        assert str(info.value) == f"order must be an even integer >= 2, got {order}"

    def test_exact_imbalance_sweep(self):
        for s in range(-28, 29, 2):
            assert sigma_total(random_with_imbalance(8, s, 5)) == s

    def test_deterministic_and_seed_sensitive(self):
        a = random_with_imbalance(10, 5, 99)
        b = random_with_imbalance(10, 5, 99)
        c = random_with_imbalance(10, 5, 100)
        assert a == b
        assert a != c

    def test_every_position_varies_across_seeds(self):
        plus_seen = set()
        minus_seen = set()
        for seed in range(60):
            g = random_with_imbalance(8, 0, seed)
            for i, s in enumerate(g.signs):
                (plus_seen if s > 0 else minus_seen).add(i)
        assert plus_seen == set(range(28))
        assert minus_seen == set(range(28))

    @pytest.mark.parametrize("order", [8, 10, 16, 40, 200, 400])
    def test_matches_reference_transcription(self, order):
        total = comb(order, 2)
        for s in (total % 2, total, -total, total - 2 * order, 2 * order - total):
            g = random_with_imbalance(order, s, order + s)
            assert g.signs == reference_random_with_imbalance(order, s, order + s), (order, s)

    def test_matches_reference_on_every_fix_up_branch(self):
        # every imbalance at orders 2-8: no fix-up, flipping f of the surplus
        # class (2f < m), the tie 2f = m, which also flips f, and keeping m - f
        branches = set()
        for order in (2, 4, 6, 8):
            total = comb(order, 2)
            for s in range(-total, total + 1, 2):
                for seed in range(8):
                    g = random_with_imbalance(order, s, seed)
                    assert g.signs == reference_random_with_imbalance(order, s, seed), (order, s, seed)
                    branches.add(fix_up_branch(order, s, seed))
        assert branches == {"none", "flip", "tie", "keep"}

    def test_exact_imbalance_at_every_order(self):
        # order 400 draws 1,247 words, past one packed chunk of 1,024
        for order in (*range(2, 201, 2), 400):
            total = comb(order, 2)
            near = total % 2 + 2
            for s in {total % 2, near, -near, total - 2, 2 - total, total, -total}:
                if abs(s) <= total:
                    g = random_with_imbalance(order, s, order + s)
                    assert sigma_total(g) == s, (order, s)

    def test_balanced_k4_vectors_are_uniform(self):
        # 4,000 seeded draws over the C(6,3) = 20 balanced vectors of K4: the
        # chi-square statistic (19 degrees of freedom) must stay below 43.82,
        # its 0.999 quantile
        draws = 4000
        counts = Counter(random_with_imbalance(4, 0, seed).signs for seed in range(draws))
        assert len(counts) == 20
        expected = draws / 20
        assert sum((c - expected) ** 2 / expected for c in counts.values()) < 43.82


class TestTrustedConstruction:
    """The generators build their instances past the constructor's checks;
    the checked constructor must accept and reproduce every one."""

    def test_every_family_passes_the_checked_constructor(self):
        instances = [proposition2_instance(k) for k in range(2, 11, 2)]
        instances += [clique_instance(n, k) for n in range(1, 9) for k in range(1, n + 1)]
        for order in range(2, 41, 2):
            total = comb(order, 2)
            for p in sorted({0, 1, total // 3, total // 2, total - 1, total} & set(range(total + 1))):
                instances.append(random_with_imbalance(order, total - 2 * p, order * 7 + p))
        for g in instances:
            assert SignedCompleteGraph(g.order, g.signs) == g
            assert set(g.signs) <= {-1, 1}


class TestNthMarked:
    @staticmethod
    def reference(mark, ranks):
        positions = list(compress(range(len(mark)), mark))
        return [positions[r] for r in ranks]

    def test_random_marks(self):
        rng = SplitMix64(29)
        for length in (1, 7, 8, 9, 63, 64, 65, 200, 1000, 12720):
            for density in (1, 2, 8):
                mark = bytes(int(rng.bounded(density) == 0) for _ in range(length))
                ones = sum(mark)
                if not ones:
                    assert _nth_marked(mark, []) == []
                    continue
                ranks = [0, ones - 1] + [rng.bounded(ones) for _ in range(20)]
                assert _nth_marked(mark, ranks) == self.reference(mark, ranks), (length, density)
                every = list(range(ones))
                assert _nth_marked(bytearray(mark), every) == self.reference(mark, every)

    def test_empty_ranks_and_marks(self):
        assert _nth_marked(b"", []) == []
        assert _nth_marked(bytes(100), []) == []
        assert _nth_marked(b"\x01" * 100, [99, 0, 50]) == [99, 0, 50]


class TestRandomGraph:
    def test_deterministic(self):
        assert random_graph(9, 4) == random_graph(9, 4)
        assert random_graph(9, 4) != random_graph(9, 5)

    @pytest.mark.parametrize("order", [0, 1, 8, 9, 31, 200])
    def test_matches_reference_transcription(self, order):
        for seed in (0, 5, 2**64 - 1):
            assert random_graph(order, seed).edges == reference_random_graph(order, seed)

    def test_edge_density_sane(self):
        counts = [random_graph(8, seed).edge_count for seed in range(50)]
        assert 0 < sum(counts) / len(counts) < 28
