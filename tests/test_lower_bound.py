"""The certificate and the interpolation walk, checked differentially.

``certify`` is what lets the local search stop above the parity floor and
what ``verify prop2`` and ``verify tight`` decide by; its witness, from the
walk, is what takes a stalled search to within 2 of the bound, the bridge
across the walk's jump over 0 takes it onto the bound, and it is what
``verify thm2`` decides by.  Any
instance where the bound disagrees with the oracle, or the witness with
its weight or its guarantee, is kept: it is written to ``tests/artifacts/``
as a named ``.sk`` file and the test fails.  A bound above the oracle is
unsound; one below it would leave a solve uncertified.
"""

from pathlib import Path

import networkx as nx
import pytest

from lowpm import (
    PerfectMatching,
    SignedCompleteGraph,
    SplitMix64,
    certify,
    clique_instance,
    local_search_min_weight,
    matching_number,
    oracle_min_weight,
    pair_count,
    pm_from_sign_max_matching,
    proposition2_instance,
    random_with_imbalance,
    serialize_instance,
    sigma_matching,
    sign_subgraph,
    verify_prop2,
    verify_theorem1,
    verify_theorem2,
    verify_tightness,
)
from lowpm import blossom, solver, verifier
from lowpm.constructions import _two_block

from helpers import (
    brute_two_block_parities,
    flipped_clique,
    flipped_prop2,
    flipped_two_block,
    sigma_by_index,
)

ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def keep_artifact(stem, g):
    """Write ``g`` to ``tests/artifacts/{stem}.sk`` and return the file name."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    path = ARTIFACT_DIR / f"{stem}.sk"
    path.write_text(serialize_instance(g))
    return path.name


def assert_bound_matches_oracle(cases, oracle=True):
    """``cases`` yields (name, instance); every certificate must hold.

    Its witness weighs ``weight``, read from the signs through the
    closed-form index, and exactly ``bound``: M- when lo > 0, else the
    walk's best matching or, past a jump over 0, the bridge's.  ``lo`` comes
    from the minus class's matching number and ``hi``, None when lo > 0,
    from the plus class's.  With ``oracle`` the bound must also equal the
    oracle minimum.
    """
    failures = []
    for name, g in cases:
        cert = certify(g)
        weight = sigma_by_index(g, cert.matching.pairs)
        nu_minus = matching_number(g.order, sign_subgraph(g, -1).edges)
        found = []
        if weight != cert.weight:
            found.append(f"witness weighs {weight}, reported {cert.weight}")
        if abs(weight) != cert.bound:
            found.append(f"witness weight {weight} against bound {cert.bound}")
        if cert.lo != g.order // 2 - 2 * nu_minus:
            found.append(f"lo {cert.lo} with nu_minus {nu_minus}")
        nu_plus = matching_number(g.order, sign_subgraph(g, 1).edges)
        if cert.hi != (None if cert.lo > 0 else 2 * nu_plus - g.order // 2):
            found.append(f"hi {cert.hi} with lo {cert.lo}, nu_plus {nu_plus}")
        if oracle:
            exact, _ = oracle_min_weight(g)
            if cert.bound != exact:
                kind = "unsound" if cert.bound > exact else "loose"
                found.append(f"{kind} bound {cert.bound}, oracle {exact}")
        if found:
            failures.append(f"{keep_artifact(f'certify_{name}', g)}: {', '.join(found)}")
    assert not failures, "; ".join(failures)


def flipped(g, flips, seed):
    """``g`` with ``flips`` seeded sign flips (a pair drawn twice flips back)."""
    rng = SplitMix64(seed)
    signs = list(g.signs)
    for _ in range(flips):
        i = rng.bounded(len(signs))
        signs[i] = -signs[i]
    return SignedCompleteGraph(g.order, tuple(signs))


def flipped_extremal_instances(large=False, seeds=4):
    """The extremal families with 0-5 seeded sign flips: orders 4-16, or 20-40."""
    if large:
        bases = [(f"prop2_k{k}", proposition2_instance(k)) for k in (4, 6)]
        bases += [(f"clique_n{n}_k{k}", clique_instance(n, k))
                  for n, k in ((5, 1), (5, 3), (5, 5), (7, 4), (10, 2), (10, 7), (10, 10))]
    else:
        bases = [("prop2_k2", proposition2_instance(2))]
        bases += [(f"clique_n{n}_k{k}", clique_instance(n, k))
                  for n in range(1, 5) for k in range(1, n + 1)]
    for name, g in bases:
        for flips in range(6):
            for seed in range(seeds if flips else 1):
                yield f"{name}_flips{flips}_seed{seed}", flipped(g, flips, seed)


def random_instances(orders, per_order=6):
    """Seeded instances from balanced to nearly one-signed, either sign."""
    for order in orders:
        total = pair_count(order)
        for step in range(per_order):
            # the last step leaves the minority class order/4 edges, so the
            # weight range can sit wholly on one side of 0
            minority = total // 2 - step * (total // 2 - order // 4) // (per_order - 1)
            s = (total - 2 * minority) * (-1) ** step
            seed = 10 * order + step
            yield f"order{order}_s{s}_seed{seed}", random_with_imbalance(order, s, seed)


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
        # verify prop2 and verify tight decide by the certificate alone, so
        # their instances are checked against the oracle here, to order 24
        cases = [(f"prop2_k{k}", proposition2_instance(k)) for k in (2, 4)]
        cases += [(f"clique_n{n}_k{k}", clique_instance(n, k))
                  for n in range(1, 7) for k in range(1, n + 1)]
        assert_bound_matches_oracle(cases)

    def test_witness_within_two_past_the_oracle(self):
        cases = list(random_instances((40, 62, 100, 160, 200)))
        bases = [(f"prop2_k{k}", proposition2_instance(k)) for k in (6, 10, 14)]
        bases += [(f"clique_n{n}_k{k}", clique_instance(n, k))
                  for n, k in ((10, 2), (25, 3), (25, 25), (50, 2), (50, 40))]
        cases += [(f"{name}_flips{flips}", flipped(g, flips, flips))
                  for name, g in bases for flips in (0, 1, 5, 40)]
        assert_bound_matches_oracle(cases, oracle=False)


class TestBoundShape:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_prop2_parity_step_lifts_zero(self, k):
        # both sign classes have large matchings, so the interval alone
        # contains 0; only the bipartite parity step excludes it
        assert certify(proposition2_instance(k)).bound == 2

    @pytest.mark.parametrize("n,k", [(5, 2), (10, 3), (20, 7)])
    def test_clique_bound_past_oracle(self, n, k):
        assert certify(clique_instance(n, k)).bound == 2 * k


def permuted(g, seed):
    """``g`` with its vertices relabelled by a seeded permutation."""
    perm = list(range(g.order))
    SplitMix64(seed).shuffle(perm)
    return SignedCompleteGraph.from_edge_sign(g.order, lambda u, v: g.sign(perm[u], perm[v]))


class TestTwoBlockParity:
    """``_two_block_parity`` reads the family off row templates; the
    reference tries every partition {A, B} against both sign classes."""

    def assert_matches_brute_force(self, cases):
        failures = []
        for name, g in cases:
            expected, got = brute_two_block_parities(g), solver._two_block_parity(g)
            if len(expected) > 1 or got != (expected or [None])[0]:
                failures.append(f"{keep_artifact(f'two_block_{name}', g)}: "
                                f"{got}, brute force {expected}")
        assert not failures, "; ".join(failures)

    def test_every_k4_and_k6_labeling(self):
        self.assert_matches_brute_force(
            case for order in (4, 6) for case in all_labelings(order))

    @staticmethod
    def two_block_instances():
        # every sign layout, so both classes in turn are the bipartite one;
        # t = 1 and t = order - 1 make a star of the across pairs
        for order in range(4, 13, 2):
            for t in range(1, order):
                for layout in ((-1, 1, -1), (1, -1, 1), (1, -1, -1), (-1, 1, 1)):
                    yield f"order{order}_t{t}_{layout}", _two_block(order, t, *layout)

    def test_two_block_family_orders_4_to_12(self):
        self.assert_matches_brute_force(self.two_block_instances())

    def test_permuted_two_block_family(self):
        # certify must find any partition, not only a lowest block 0..t-1
        self.assert_matches_brute_force(
            (f"{name}_perm{seed}", permuted(g, seed))
            for name, g in self.two_block_instances() for seed in range(2))


def matching_of(mate):
    return PerfectMatching(tuple((a, b) for a, b in enumerate(mate) if a < b))


@pytest.fixture
def walk_only(monkeypatch):
    """Switch the descent and the bridge off, so a solve that does not start
    at the floor returns the walk's best matching as it is."""
    monkeypatch.setattr(solver, "_find_improving", lambda *args: None)


def assert_solves(cases, oracle, ceiling=0):
    """Every solve returns a matching of its reported weight, with gap <= ``ceiling``
    (0 when order/2 is odd), equal to the oracle minimum when ``oracle``."""
    failures = []
    for name, g in cases:
        m, report = local_search_min_weight(g, seed=len(name))
        exact = oracle_min_weight(g)[0] if oracle else report.lower_bound
        allowed = 0 if g.order // 2 % 2 else ceiling
        if (abs(report.final_weight) - exact > allowed or report.gap > allowed
                or sigma_matching(g, m) != report.final_weight):
            failures.append(f"{keep_artifact(f'solve_{name}', g)}: weight "
                            f"{report.final_weight}, bound {report.lower_bound}, "
                            f"oracle {exact if oracle else None}")
    assert not failures, "; ".join(failures)


class TestInterpolationWalk:
    def test_walk_swaps_minus_matching_into_plus_matching(self):
        failures = []
        cases = list(flipped_extremal_instances(seeds=2))
        cases += flipped_extremal_instances(large=True, seeds=1)
        cases += random_instances((8, 10, 12, 14, 40, 82, 120, 200))
        for name, g in cases:
            start = pm_from_sign_max_matching(g, -1)
            end = pm_from_sign_max_matching(g, 1)
            lo, hi = sigma_matching(g, start), sigma_matching(g, end)
            mate, target = solver._mates(start.pairs), solver._mates(end.pairs)
            off = solver._row_offsets(g.order)
            weights = []
            for w in solver._interpolation_walk(g.signs, off, mate, target):
                weights.append(w)
                if w != sigma_matching(g, matching_of(mate)):
                    failures.append(f"{keep_artifact(f'walk_weight_{name}', g)}: step "
                                    f"{len(weights) - 1} reports {w}")
                    break
            reach = min(abs(w) for w in weights)
            ceiling = 1 if g.order // 2 % 2 else 2
            if (len(weights) - 1 > g.order // 2 or mate != target
                    or (weights[0], weights[-1]) != (lo, hi)
                    or (lo <= 0 <= hi and reach > ceiling) or reach < certify(g).bound):
                failures.append(f"{keep_artifact(f'walk_path_{name}', g)}: "
                                f"{len(weights) - 1} swaps, lo {lo}, hi {hi}, reached {reach}")
        assert not failures, "; ".join(failures)

    def test_solver_equals_oracle_on_k4_k6(self):
        assert_solves((case for order in (4, 6) for case in all_labelings(order)), oracle=True)

    def test_walk_alone_on_k4_k6(self, walk_only):
        assert_solves((case for order in (4, 6) for case in all_labelings(order)),
                      oracle=True, ceiling=2)

    def test_solver_equals_oracle_on_flipped_extremal(self):
        assert_solves(flipped_extremal_instances(), oracle=True)

    def test_walk_alone_on_flipped_extremal(self, walk_only):
        assert_solves(flipped_extremal_instances(), oracle=True, ceiling=2)

    def test_gap_at_most_two_past_the_oracle(self, walk_only):
        cases = list(flipped_extremal_instances(large=True, seeds=3))
        cases += random_instances((40, 62, 100, 160, 200))
        assert_solves(cases, oracle=False, ceiling=2)

    def test_solver_equals_oracle_where_the_walk_runs(self, monkeypatch):
        # the unpatched solve walks only when its r = 2 descent stalls above
        # the bound, a few times in 300 instances per order
        walked = set()
        real = solver._interpolation_walk

        def spy(signs, off, mate, target):
            walked.add(len(mate))
            return real(signs, off, mate, target)

        monkeypatch.setattr(solver, "_interpolation_walk", spy)
        orders = (8, 10, 12, 14, 16)
        assert_solves(random_instances(orders, per_order=300), oracle=True)
        assert walked == set(orders)

    def test_solver_meets_bound_past_the_oracle(self):
        # flipped prop2 walks jump over 0; the bridge closes them at orders 104-200
        cases = list(flipped_extremal_instances(large=True, seeds=1))
        cases += random_instances((20, 24, 28))
        cases += [(f"flipped_prop2_k{k}_seed{seed}", flipped_prop2(k, seed))
                  for k in (10, 12, 14) for seed in range(3)]
        assert_solves(cases, oracle=False)


def bridge_corpus():
    """Flipped two-block partitions at orders 8-48, flipped prop2 at orders
    8-68 and flipped plus-cliques at orders 4-20, as (name, instance)."""
    for order in range(8, 49, 4):
        # an order-20 jump state costs ~20 ms more, for its oracle check
        for seed in range(60 if order == 20 else 240):
            yield f"two_block_order{order}_seed{seed}", flipped_two_block(order, seed)
    for k in (2, 4, 6, 8):
        for seed in range(12):
            yield f"prop2_k{k}_seed{seed}", flipped_prop2(k, seed)
    for n in range(1, 6):
        for k in range(1, n + 1):
            for seed in range(2):
                yield f"clique_n{n}_k{k}_seed{seed}", flipped_clique(n, k, seed)


@pytest.fixture
def bridges(monkeypatch):
    """The arguments and result of every :func:`solver._bridge` call."""
    calls = []
    real = solver._bridge

    def spy(signs, off, before, after):
        calls.append((before, after, real(signs, off, before, after)))
        return calls[-1][2]

    monkeypatch.setattr(solver, "_bridge", spy)
    return calls


class TestBridge:
    def test_corpus_meets_the_bound(self, bridges):
        # every certificate's witness weighs exactly its bound; a walk that
        # jumps over 0 gets there through the bridge, and so does its solve
        failures = []
        jumps = 0
        for name, g in bridge_corpus():
            bridges.clear()
            cert = certify(g)
            weight = sigma_by_index(g, cert.matching.pairs)
            found = []
            if weight != cert.weight or abs(weight) != cert.bound:
                found.append(f"witness weighs {weight}, reported {cert.weight}, "
                             f"bound {cert.bound}")
            if bridges:
                jumps += 1
                if bridges[0][2] is None:
                    found.append("bridge missed")
                elif cert.bridge not in (2, 3, 4):
                    found.append(f"bridged by r = {cert.bridge}")
                _, report = local_search_min_weight(g, seed=jumps)
                if report.gap or report.stop_reason == "no_move":
                    found.append(f"solve stopped {report.stop_reason}, gap {report.gap}")
            if (bridges or name.startswith("clique")) and g.order <= 20:
                exact, _ = oracle_min_weight(g)
                if exact != abs(weight):
                    found.append(f"oracle {exact}")
            if found:
                failures.append(f"{keep_artifact(f'bridge_{name}', g)}: {', '.join(found)}")
        assert not failures, "; ".join(failures)
        assert jumps >= 1000

    def test_anchored_on_the_first_swap_over_zero(self, bridges):
        # an independent replay of the walk names the two matchings either
        # side of its first sign change, which the bridge must be handed
        checked = 0
        for order in (8, 16, 24, 32):
            for seed in range(40):
                g = flipped_two_block(order, seed)
                bridges.clear()
                certify(g)
                if not bridges:
                    continue
                start = pm_from_sign_max_matching(g, -1)
                mate = solver._mates(start.pairs)
                target = solver._mates(pm_from_sign_max_matching(g, 1).pairs)
                states = [(matching_of(mate).pairs, w) for w in solver._interpolation_walk(
                    g.signs, solver._row_offsets(g.order), mate, target)]
                first = next(i for i in range(1, len(states))
                             if states[i - 1][1] * states[i][1] < 0)
                before, after, _ = bridges[0]
                assert (before, after) == (states[first - 1][0], states[first][0]), (order, seed)
                assert (sigma_by_index(g, before), sigma_by_index(g, after)) == (-2, 2)
                assert len(set(before) - set(after)) == 2
                checked += 1
        assert checked >= 40


class TestTheorem1Verdicts:
    """``verify thm1 --mode solver`` on flipped prop2 instances, balanced at
    order 8, whose walks often jump over 0."""

    @pytest.fixture(autouse=True)
    def flipped_instances(self, monkeypatch):
        monkeypatch.setattr(verifier, "random_with_imbalance",
                            lambda order, s, seed: flipped_prop2(2, seed))

    def test_bridge_certifies_every_row(self):
        report = verify_theorem1(2, samples=40, seed=1, mode="solver")
        assert report.tested == report.passed == 40
        assert report.stats == {}
        assert all((row["min_weight"], row["pass"]) == (0, True) for row in report.rows)

    def test_gap_counts_as_uncertified_not_failed(self, walk_only):
        report = verify_theorem1(2, samples=40, seed=1, mode="solver")
        blank = [row for row in report.rows if row["min_weight"] == ""]
        assert report.ok and blank
        assert report.stats == {"uncertified": len(blank)}
        assert report.tested == report.passed == 40 - len(blank)
        assert all(row["pass"] == "" for row in blank)
        assert all((row["min_weight"], row["pass"]) == (0, True)
                   for row in report.rows if row["min_weight"] != "")
        assert "uncertified" in report.to_text() and "uncertified" in report.to_json()

    def test_weight_above_a_met_bound_fails(self, walk_only, monkeypatch):
        # a bound claimed at 2 makes a witness of |weight| 2 a certified
        # nonzero minimum: a counterexample, not an uncertified row
        real = solver.certify
        monkeypatch.setattr(solver, "certify", lambda g: real(g)._replace(bound=2))
        report = verify_theorem1(2, samples=40, seed=1, mode="solver")
        twos = [row for row in report.rows if row["min_weight"] == 2]
        assert twos and all(row["pass"] is False for row in twos)
        assert len(report.failures) == len(twos)
        assert {entry["observed"] for entry in report.failures} <= {
            "solver_weight 2", "solver_weight -2"}


class TestTheorem2Witness:
    def test_rows_equal_the_oracle(self):
        # every cell with n <= 4 and 2 <= k <= n + 2, plus order 20 at k = 2
        cells = [(n, k) for n in range(1, 5) for k in range(2, n + 3)] + [(5, 2)]
        failures = []
        for n, k in cells:
            for row in verify_theorem2(n, k, samples=20, seed=n + k).rows:
                g = random_with_imbalance(4 * n, row["s"], row["seed"])
                exact, _ = oracle_min_weight(g)
                observed = (row["min_weight"], row["pass"])
                if observed != (exact, exact <= 2 * k - 2):
                    name = keep_artifact(f"thm2_n{n}_k{k}_{row['seed']}", g)
                    failures.append(f"{name}: row {observed}, oracle {exact}")
        assert not failures, "; ".join(failures)


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
        real = blossom.maximum_matching

        def counting(order, edges):
            calls.append(order)
            return real(order, edges)

        monkeypatch.setattr(blossom, "maximum_matching", counting)
        return calls

    def test_floor_reached_without_bound(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        for seed in range(5):
            _, report = local_search_min_weight(
                random_with_imbalance(12, 0, seed), seed=seed)
            assert report.stop_reason == "floor"
        assert calls == []

    def test_bound_computed_once_per_solve(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        # lo > 0: the minus class's matching alone certifies, no plus call
        _, report = local_search_min_weight(clique_instance(3, 2), seed=1)
        assert report.stop_reason == "certified"
        assert calls == [12]
        for name, g in flipped_extremal_instances():
            calls.clear()
            local_search_min_weight(g, seed=1)
            assert len(calls) <= 2, name

    def test_verifiers_add_no_blossom_call(self, monkeypatch):
        # lo = 2k > 0 on the plus-clique family: one minus-class call, no plus one
        calls = self.count_calls(monkeypatch)
        assert verify_tightness(50, 2).ok
        assert calls == [200]
        calls.clear()
        assert verify_prop2(8).ok
        assert len(calls) <= 2
