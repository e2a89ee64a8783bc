"""General-graph maximum matching against brute force, plus the
sign-restricted matchings built on it."""

import hashlib

import networkx as nx
import pytest

from lowpm import (
    SignedCompleteGraph,
    SimpleGraph,
    SplitMix64,
    clique_instance,
    eg_extremal_graph,
    matching_number,
    maximum_matching,
    pair_count,
    pm_from_sign_max_matching,
    proposition2_instance,
    random_graph,
    random_with_imbalance,
    sigma_matching,
    sign_subgraph,
)

from helpers import brute_matching_number


def matching_of_edges(order, edges):
    return maximum_matching(order, SimpleGraph.from_edges(order, edges).rows)


def number_of_edges(order, edges):
    return matching_number(order, SimpleGraph.from_edges(order, edges).rows)


def assert_valid_matching(order, edges, matching):
    edge_set = set(edges)
    used = set()
    for a, b in matching:
        assert (a, b) in edge_set
        assert a not in used and b not in used
        used.update((a, b))


class TestMaximumMatching:
    def test_empty_graph(self):
        assert matching_of_edges(5, ()) == ()

    def test_single_edge(self):
        assert matching_of_edges(2, ((0, 1),)) == ((0, 1),)

    def test_path(self):
        edges = ((0, 1), (1, 2), (2, 3), (3, 4))
        assert number_of_edges(5, edges) == 2

    def test_odd_cycle(self):
        edges = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
        assert number_of_edges(5, edges) == 2

    def test_two_triangles_with_bridge(self):
        # classic blossom case: augmenting path must pass through a
        # contracted odd cycle
        edges = ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5))
        assert number_of_edges(6, edges) == 3

    def test_star(self):
        edges = tuple((0, v) for v in range(1, 8))
        assert number_of_edges(8, edges) == 1

    @pytest.mark.parametrize("order", list(range(1, 11)))
    def test_random_graphs_against_brute_force(self, order):
        for seed in range(30):
            graph = random_graph(order, seed * 31 + order)
            result = maximum_matching(graph.order, graph.rows)
            assert_valid_matching(graph.order, graph.edges, result)
            assert len(result) == brute_matching_number(graph.order, graph.edges)

    def test_sparse_blossom_heavy_graphs(self):
        # unions of odd cycles joined by chords exercise repeated contraction
        rng = SplitMix64(99)
        for trial in range(40):
            order = 9
            cycle = [(i, (i + 1) % order) for i in range(order)]
            chords = set()
            for _ in range(3):
                a, b = rng.bounded(order), rng.bounded(order)
                if a != b:
                    chords.add((min(a, b), max(a, b)))
            edges = tuple(sorted({(min(a, b), max(a, b)) for a, b in cycle} | chords))
            assert number_of_edges(order, edges) == brute_matching_number(order, edges)

    def test_deterministic(self):
        graph = random_graph(9, 123)
        assert maximum_matching(graph.order, graph.rows) == maximum_matching(
            graph.order, graph.rows
        )


def matching_corpus():
    """Seeded graphs: 3 random graphs at each order 2-60, then both sign
    classes of clique_instance(n <= 12, k), proposition2_instance(k <= 8)
    and random_with_imbalance at orders 4-40 across the whole s band."""
    for order in range(2, 61):
        for seed in range(3):
            yield random_graph(order, 1000 * order + seed)
    instances = [clique_instance(n, k) for n in range(1, 13) for k in range(1, n + 1)]
    instances += [proposition2_instance(k) for k in (2, 4, 6, 8)]
    for order in range(4, 41, 4):
        total = pair_count(order)
        for p in range(0, total + 1, max(1, total // 8)):
            instances.append(random_with_imbalance(order, total - 2 * p, order + p))
    for g in instances:
        for sign in (-1, 1):
            yield sign_subgraph(g, sign)


# sha256 over repr() of each matching of the corpus, in order; recorded from
# the adjacency-list blossom that the bitset one replaced
MATCHING_CORPUS_DIGEST = "f2deb44d760834615f2fffafe2c7162d328e3eb93d74570ad2640854f6ff9440"


def test_matchings_pinned_on_seeded_corpus():
    digest = hashlib.sha256()
    count = 0
    for graph in matching_corpus():
        digest.update(repr(maximum_matching(graph.order, graph.rows)).encode())
        count += 1
    assert count == 519
    assert digest.hexdigest() == MATCHING_CORPUS_DIGEST


def networkx_matching_number(order, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(order))
    graph.add_edges_from(edges)
    return len(nx.max_weight_matching(graph, maxcardinality=True))


def assert_maximum(graph):
    result = maximum_matching(graph.order, graph.rows)
    assert_valid_matching(graph.order, graph.edges, result)
    assert len(result) == networkx_matching_number(graph.order, graph.edges)


class TestHungarianTreePruning:
    """A failed search deletes its alternating tree; the size must not move.

    Exposed vertices that fail to augment are where Hungarian trees form:
    the plus-clique minus class (n-k hubs joined to everything) and its
    complement, and sparse graphs with unmatched vertices.
    """

    @pytest.mark.parametrize("n", list(range(1, 13)))
    def test_clique_sign_classes_and_eg_extremal(self, n):
        for k in range(1, n + 1):
            g = clique_instance(n, k)
            for sign in (1, -1):
                assert_maximum(sign_subgraph(g, sign))
            assert_maximum(eg_extremal_graph(n, k))

    def test_root_next_to_a_dead_vertex_is_still_searched(self):
        # greedy pairs 0-4 and 2-3; root 1's search fails and kills 1, 4 and 0.
        # Root 5 has dead 4 and live 3 as neighbours, and augments along 5-3-2-6.
        edges = ((0, 4), (1, 4), (2, 3), (2, 6), (3, 5), (4, 5))
        assert matching_of_edges(7, edges) == ((0, 4), (2, 6), (3, 5))

    def test_sparse_odd_cycles_with_chords(self):
        # 139 of the 172 failed searches on these graphs end holding a
        # contracted blossom, which is then deleted with its tree
        rng = SplitMix64(2024)
        for order in range(20, 41):
            for _ in range(3):
                edges = set()
                start = 0
                while start + 3 <= order:
                    length = 3 + 2 * rng.bounded(3)
                    cycle = list(range(start, min(start + length, order)))
                    if len(cycle) % 2 == 0:
                        cycle.pop()
                    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                        edges.add((min(a, b), max(a, b)))
                    start += length
                for _ in range(order // 5):
                    a, b = rng.bounded(order), rng.bounded(order)
                    if a != b:
                        edges.add((min(a, b), max(a, b)))
                assert_maximum(SimpleGraph.from_edges(order, sorted(edges)))

    @pytest.mark.parametrize("minus_edges", [400, pair_count(400) // 2])
    def test_order_400_random_sign_class(self, minus_edges):
        g = random_with_imbalance(400, pair_count(400) - 2 * minus_edges, 400)
        minus = sign_subgraph(g, -1)
        assert minus.edge_count == minus_edges
        assert_maximum(minus)


def sign_matching_number(g, sign):
    sub = sign_subgraph(g, sign)
    return matching_number(sub.order, sub.rows)


class TestSignRestricted:
    def test_all_plus_minus_side_empty(self):
        g = SignedCompleteGraph(8, (1,) * pair_count(8))
        assert maximum_matching(8, sign_subgraph(g, -1).rows) == ()
        assert sign_matching_number(g, 1) == 4

    def test_clique_instance_minus_star(self):
        # K_12 with one vertex outside the plus-clique: minus edges form a
        # star, matching number 1
        g = clique_instance(3, 2)
        minus = sign_subgraph(g, -1)
        assert all(11 in pair for pair in minus.edges)
        assert sign_matching_number(g, -1) == 1

    def test_random_minus_subgraphs_against_brute_force(self):
        for seed in range(15):
            g = random_with_imbalance(10, 2 * seed - 15, seed)
            sub = sign_subgraph(g, -1)
            assert sign_matching_number(g, -1) == brute_matching_number(sub.order, sub.edges)


class TestConstructivePerfectMatching:
    def test_all_plus(self):
        g = SignedCompleteGraph(8, (1,) * pair_count(8))
        pm = pm_from_sign_max_matching(g, -1)
        assert sigma_matching(g, pm) == 4

    def test_clique_32(self):
        g = clique_instance(3, 2)
        pm = pm_from_sign_max_matching(g, -1)
        assert sigma_matching(g, pm) == 6 - 2 * 1

    def test_balanced_weight_formula(self):
        for seed in range(20):
            g = random_with_imbalance(8, 0, seed + 100)
            nu_minus = sign_matching_number(g, -1)
            pm = pm_from_sign_max_matching(g, -1)
            assert sigma_matching(g, pm) == 4 - 2 * nu_minus
            nu_plus = sign_matching_number(g, 1)
            pm = pm_from_sign_max_matching(g, 1)
            assert sigma_matching(g, pm) == 2 * nu_plus - 4

    def test_result_is_perfect(self):
        g = random_with_imbalance(12, 0, 8)
        pm = pm_from_sign_max_matching(g, -1)
        assert pm.order == 12
