"""The certified lower bound: differential checks against the exact oracle.

``lower_bound`` is what lets the local search stop above the parity floor,
so any instance where it disagrees with the oracle is kept: it is written
to ``tests/artifacts/`` as a named ``.sk`` file and the test fails.  A bound
above the oracle is unsound; one below it would leave a solve uncertified.
"""

from pathlib import Path

import networkx as nx
import pytest

from lowpm import (
    SearchPolicy,
    SignedCompleteGraph,
    clique_instance,
    local_search_min_weight,
    matching_number,
    oracle_min_weight,
    pair_count,
    proposition2_instance,
    random_with_imbalance,
    serialize_instance,
    sign_subgraph,
)
from lowpm import solver
from lowpm.solver import lower_bound

ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def assert_bound_matches_oracle(cases):
    """``cases`` yields (name, instance); every bound must equal the oracle minimum."""
    failures = []
    for name, g in cases:
        bound = lower_bound(g)
        exact, _ = oracle_min_weight(g)
        if bound != exact:
            kind = "unsound" if bound > exact else "loose"
            ARTIFACT_DIR.mkdir(exist_ok=True)
            path = ARTIFACT_DIR / f"lower_bound_{kind}_{name}.sk"
            path.write_text(serialize_instance(g))
            failures.append(f"{path.name}: bound {bound}, oracle {exact}")
    assert not failures, "; ".join(failures)


def all_labelings(order):
    pairs = pair_count(order)
    for bits in range(1 << pairs):
        yield (f"order{order}_bits{bits}",
               SignedCompleteGraph(order, tuple(1 if bits >> i & 1 else -1 for i in range(pairs))))


class TestAgainstOracle:
    def test_exhaustive_k4_k6(self):
        assert_bound_matches_oracle(
            case for order in (4, 6) for case in all_labelings(order)
        )

    def test_random_orders_8_to_16(self):
        def cases():
            for order in (8, 10, 12, 14, 16):
                total = pair_count(order)
                # imbalances spread from balanced to nearly one-signed
                for step in range(8):
                    s = total % 2 + 2 * (step * total // 16)
                    for sign in (1, -1):
                        seed = 1000 * order + 10 * step + (sign > 0)
                        yield (f"order{order}_s{sign * s}_seed{seed}",
                               random_with_imbalance(order, sign * s, seed))

        assert_bound_matches_oracle(cases())

    def test_extremal_families(self):
        cases = [("prop2_k2", proposition2_instance(2))]
        cases += [(f"clique_n{n}_k{k}", clique_instance(n, k))
                  for n in range(1, 5) for k in range(1, n + 1)]
        assert_bound_matches_oracle(cases)


class TestBoundShape:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_prop2_parity_step_lifts_zero(self, k):
        # both sign classes have large matchings, so the interval alone
        # contains 0; only the bipartite parity step excludes it
        assert lower_bound(proposition2_instance(k)) == 2

    @pytest.mark.parametrize("n,k", [(5, 2), (10, 3), (20, 7)])
    def test_clique_bound_past_oracle(self, n, k):
        assert lower_bound(clique_instance(n, k)) == 2 * k


class TestMatchingNumbers:
    @pytest.mark.parametrize("order", [52, 100, 200])
    def test_sign_classes_against_networkx(self, order):
        total = pair_count(order)
        # minority class of about 3*order/4 edges: sparse enough that its
        # matching number falls short of order/2
        sparse = total - 2 * (3 * order // 4)
        for s in (0, sparse, -sparse):
            g = random_with_imbalance(order, s, order + s)
            for edges in (sign_subgraph(g, 1).edges, sign_subgraph(g, -1).edges):
                reference = nx.Graph()
                reference.add_nodes_from(range(order))
                reference.add_edges_from(edges)
                expected = len(nx.max_weight_matching(reference, maxcardinality=True))
                assert matching_number(order, edges) == expected, (order, s)


class TestLazyUse:
    def count_calls(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g.order)
            return lower_bound(g)

        monkeypatch.setattr(solver, "lower_bound", counting)
        return calls

    def test_floor_reached_without_bound(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        for seed in range(5):
            _, report = local_search_min_weight(
                random_with_imbalance(12, 0, seed), SearchPolicy(seed=seed))
            assert report.stop_reason == "floor"
        assert calls == []

    def test_bound_computed_once_per_solve(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        _, report = local_search_min_weight(clique_instance(3, 2), SearchPolicy(seed=1))
        assert report.stop_reason == "certified"
        assert calls == [12]
