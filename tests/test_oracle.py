"""Exact-minimum oracle versus independent brute force."""

import gc
from itertools import product

import pytest

from lowpm import (
    OracleLimitError,
    PerfectMatching,
    SignedCompleteGraph,
    certify,
    clique_instance,
    oracle_min_weight,
    pair_count,
    proposition2_instance,
    random_with_imbalance,
    serialize_instance,
    sigma_matching,
    sign_subgraph,
    verify_theorem1,
    verify_theorem2,
    verify_tightness,
)
from lowpm import solver
from lowpm.cli import main
from lowpm.solver import ORACLE_COST, _pairings

from helpers import brute_min_weight, brute_perfect_matchings, flipped_prop2, reference_oracle


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
            assert (w, witness.pairs) == brute_min_weight(g) == reference_oracle(g)

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
            w, witness = oracle_min_weight(g)
            assert abs(sigma_matching(g, witness)) == w
            assert w == certify(g).bound

    def test_memo_freed_on_return(self):
        # balanced, then refuted at the floor (every matching weighs >= 4), so
        # that few sets are completed in one call and every set in the other
        for g in (random_with_imbalance(12, 0, 5), clique_instance(3, 2)):
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

    def test_order_past_the_maximum_is_not_told_to_raise_the_limit(self):
        # 24 is fixed in the library; the ways out, with their flags, are the CLI's to name
        with pytest.raises(OracleLimitError) as info:
            oracle_min_weight(random_with_imbalance(26, 1, 0))
        message = str(info.value)
        assert message == f"order 26 exceeds the oracle limit 24 ({ORACLE_COST})"
        assert "--" not in message and "raise the limit" not in message

    # the flag's argparse type is the one place a limit's range is checked
    @pytest.mark.parametrize("argv,limit", [
        (("oracle", "{r8}"), "-3"),
        (("oracle", "{r8}"), "1"),
        (("oracle", "{r8}"), "25"),
        (("oracle", "{r26}"), "26"),
        (("verify", "thm1", "--n", "1", "--samples", "2", "--mode", "solver"), "0"),
        (("verify", "thm1", "--n", "10", "--samples", "2", "--mode", "solver"), "99"),
    ], ids=["oracle-negative", "oracle-1", "oracle-25", "oracle-26-at-26", "thm1-solver-0",
            "thm1-solver-99"])
    def test_limit_outside_its_range_blames_the_limit(self, tmp_path, capsys, argv, limit):
        paths = {"r8": tmp_path / "r8.sk", "r26": tmp_path / "r26.sk"}
        paths["r8"].write_text(serialize_instance(random_with_imbalance(8, 0, 1)))
        paths["r26"].write_text(serialize_instance(random_with_imbalance(26, 1, 3)))
        with pytest.raises(SystemExit) as info:
            main([arg.format(**paths) for arg in argv] + ["--oracle-limit", limit])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        end = "maximum is 24" if int(limit) > 24 else "minimum is 2"
        assert captured.err.endswith(f" error: argument --oracle-limit: the {end}, got {limit}\n")

    def test_limits_at_the_ends_of_the_range_are_accepted(self, tmp_path, capsys):
        path = tmp_path / "inst.sk"
        for g, limit, expected in ((SignedCompleteGraph(2, (-1,)), "2", 1),
                                   (random_with_imbalance(24, 0, 1), "24", 0)):
            path.write_text(serialize_instance(g))
            assert main(["oracle", str(path), "--oracle-limit", limit]) == 0
            assert capsys.readouterr().out.startswith(f"min_weight {expected}\n")

    def test_oracle_takes_no_limit(self):
        with pytest.raises(TypeError):
            oracle_min_weight(random_with_imbalance(8, 0, 1), order_limit=24)

    def test_thm1_takes_no_limit(self):
        with pytest.raises(TypeError):
            verify_theorem1(1, samples=2, oracle_limit=24)

    def test_tight_takes_no_limit(self):
        with pytest.raises(TypeError):
            verify_tightness(2, 2, oracle_limit=0)

    def test_thm2_takes_no_limit(self):
        with pytest.raises(TypeError):
            verify_theorem2(2, 2, oracle_limit=24)

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


class TestAgainstRetiredDP:
    """The top-down queries return exactly the (min, witness) of the
    bottom-up fill of every set's weights, ``helpers.reference_oracle``
    (every K6 labeling is compared in ``TestOracle``)."""

    def check(self, g):
        w, witness = oracle_min_weight(g)
        assert (w, witness.pairs) == reference_oracle(g)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_clique_family(self, n):
        for k in range(1, n + 1):
            self.check(clique_instance(n, k))

    @pytest.mark.parametrize("k", [2, 4])
    def test_prop2(self, k):
        self.check(proposition2_instance(k))

    @pytest.mark.parametrize("k,seeds", [(2, range(12)), (4, range(4))])
    def test_flipped_prop2(self, k, seeds):
        for seed in seeds:
            self.check(flipped_prop2(k, seed))

    @pytest.mark.parametrize("order", [8, 10, 12, 14, 16, 18, 20])
    def test_random_across_the_imbalance_band(self, order):
        total = pair_count(order)
        # 9 imbalances from -total to total, each with the parity of total
        for i, s in enumerate(-total + 2 * round(j * total / 8) for j in range(9)):
            for seed in (i, 100 + i):
                self.check(random_with_imbalance(order, s, seed))

    def test_next_weight_past_order_12(self):
        # minima at the floor and above it, where the first weights tried fail
        cases = [clique_instance(4, k) for k in (1, 2, 3)]
        cases += [clique_instance(5, 2), proposition2_instance(4)]
        for order in (14, 16, 18, 20):
            total, half = pair_count(order), order // 2
            floor = half % 2
            # s = +-(total - 2m) leaves m pairs of the minority sign, so
            # |weight| >= half - 2m: floor + 4, floor + 2 and the floor here
            for m in range((half - floor) // 2 - 2, (half - floor) // 2 + 1):
                for s, seed in product((total - 2 * m, 2 * m - total), (0, 1)):
                    cases.append(random_with_imbalance(order, s, seed))
        above_floor = set()
        for g in cases:
            w, witness = oracle_min_weight(g)
            assert (w, witness.pairs) == reference_oracle(g)
            above_floor.add(w - g.order // 2 % 2)
        assert {0, 2, 4} <= above_floor


class TestQueries:
    """``solver._reach`` on a shared memo, as one oracle call uses it,
    answers every weight of the whole vertex set exactly, whatever the order
    of the questions."""

    def test_plus_masks_match_sign(self):
        for order, seed in ((2, 0), (4, 1), (8, 2), (12, 3)):
            g = random_with_imbalance(order, pair_count(order) % 2, seed)
            expected = [sum(1 << v for v in range(order) if v != u and g.sign(u, v) > 0)
                        for u in range(order)]
            assert solver._plus_masks(g) == expected

    def test_plus_masks_match_sign_subgraph(self):
        # the oracle builds its own plus rows; sign_subgraph's are a second builder
        for order in range(2, 41, 2):
            g = random_with_imbalance(order, pair_count(order) % 2, order)
            assert solver._plus_masks(g) == list(sign_subgraph(g, 1).rows)
        for g in (clique_instance(5, 2), proposition2_instance(4)):
            assert solver._plus_masks(g) == list(sign_subgraph(g, 1).rows)

    @pytest.mark.parametrize("order,s,seed", [(6, 5, 2), (6, -3, 5), (6, -1, 11), (8, 0, 3),
                                              (8, 10, 4), (10, -5, 1), (10, 15, 2), (12, 0, 7)])
    def test_every_weight_in_any_order(self, order, s, seed):
        g = random_with_imbalance(order, s, seed)
        weights = {sum(g.sign(a, b) for a, b in pairs) for pairs in brute_perfect_matchings(order)}
        half, everything = order // 2, (1 << order) - 1
        lattice = range(-half, half + 1, 2)  # every weight has the parity of half
        up, down = [w for w in lattice if w >= 0], [w for w in reversed(lattice) if w < 0]
        plus = solver._plus_masks(g)
        # from the middle out, so that successes come first
        for asked in (up + down, down + up, lattice):
            full = {0: 1 << order}  # bit i <=> weight i - order
            answers = {w for w in asked if solver._reach(everything, order + w, full, plus)}
            assert answers == weights


@pytest.fixture
def completions(monkeypatch):
    """Every vertex set whose weights ``solver._reach`` completed, in order,
    once per completion: a set completed twice is listed twice."""
    done = []
    reach = solver._reach

    def spy(mask, bit, full, plus):
        before = full.get(mask)
        found = reach(mask, bit, full, plus)
        if full.get(mask) is not before:  # weights are ints past 2^8, each a new object
            done.append(mask)
        return found

    monkeypatch.setattr(solver, "_reach", spy)
    return done


class TestWork:
    """What a call costs, pinned by the sets it completes, not by a clock."""

    def test_balanced_order_20_completes_few_sets(self, completions):
        # the instances of `verify thm1 --n 5 --seed 1000`; completing every
        # set would take 20 x 10,946
        report = verify_theorem1(5, samples=20, seed=1000, mode="oracle")
        assert report.passed == 20
        assert 0 < len(completions) < 1000

    def test_unreachable_floor_completes_each_set_once(self, completions):
        # every perfect matching weighs >= 4, so the floor query fails everywhere
        assert oracle_min_weight(clique_instance(5, 2))[0] == 4
        assert len(set(completions)) == len(completions) <= 10946
