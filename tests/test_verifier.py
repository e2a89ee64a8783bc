"""Verification sweep runners and report emission."""

import json

import pytest

from lowpm import (
    ParameterError,
    VerifyReport,
    certify,
    clique_instance,
    pair_count,
    parse_instance,
    pm_from_sign_max_matching,
    proposition2_instance,
    serialize_instance,
    random_with_imbalance,
    verify_erdos_gallai,
    verify_prop2,
    verify_theorem1,
    verify_theorem2,
    verify_tightness,
)
from lowpm import verifier

from helpers import sigma_by_index


def strip_elapsed(report_json: str) -> dict:
    payload = json.loads(report_json)
    payload.pop("elapsed_ms")
    return payload


class TestTheorem1:
    def test_exhaustive_n1(self):
        report = verify_theorem1(1, exhaustive=True)
        assert (report.tested, report.passed) == (20, 20)
        assert report.ok and report.clean

    def test_sampled_n2_both_modes(self):
        report = verify_theorem1(2, samples=40, seed=7, mode="both")
        assert report.tested == 40
        assert report.passed == 40
        assert report.stats["solver_mismatches"] == []
        assert len(report.rows) == 40
        assert all(row["min_weight"] == 0 for row in report.rows)

    def test_oracle_only_mode(self):
        report = verify_theorem1(2, samples=10, seed=1, mode="oracle")
        assert report.ok
        assert "solver_mismatches" not in report.stats

    def test_solver_only_mode(self):
        report = verify_theorem1(2, samples=10, seed=1, mode="solver")
        assert report.ok

    def test_deterministic_given_seed(self):
        a = verify_theorem1(2, samples=15, seed=3)
        b = verify_theorem1(2, samples=15, seed=3)
        assert strip_elapsed(a.to_json()) == strip_elapsed(b.to_json())

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            verify_theorem1(0)
        with pytest.raises(ParameterError):
            verify_theorem1(2, exhaustive=True)
        with pytest.raises(ParameterError):
            verify_theorem1(5, mode="oracle", oracle_limit=16)  # order 20 above the limit
        with pytest.raises(ParameterError):
            verify_theorem1(1, mode="everything")


class TestProp2:
    def test_k2_full_check(self):
        report = verify_prop2(2)
        assert (report.tested, report.passed) == (2, 2)
        assert report.ok
        assert "partial" not in report.stats

    def test_k4_partial(self):
        # the minimum 2 is certified by the solve, as at every k
        report = verify_prop2(4)
        assert report.ok
        assert "partial" not in report.stats
        assert (report.tested, report.passed) == (2, 2)
        assert report.rows[0]["min_weight"] == 2

    def test_k3_rejected(self):
        with pytest.raises(ParameterError):
            verify_prop2(3)


class TestTheorem2:
    def test_n1_k2_trivial_band(self):
        # order 4: admissible imbalances are capped by C(4,2)=6, not by the
        # bound 14; every matching weight is within +/-2 anyway
        report = verify_theorem2(1, 2, samples=12, seed=5)
        assert report.ok
        imbalances = {row["s"] for row in report.rows}
        assert imbalances <= set(range(-6, 7, 2))
        assert {0, 6, -6} <= imbalances  # forced extremes

    def test_full_grid_counts(self):
        report = verify_theorem2(2, 2, samples=2, seed=1, grid="full")
        # cap = 26: imbalances -26..26 step 2 -> 27 values, 2 instances each
        assert report.tested == 54
        assert report.ok
        assert report.stats["constructive_max_abs_weight"] >= 0

    def test_sampled_includes_forced_extremes(self):
        report = verify_theorem2(2, 2, samples=10, seed=3)
        imbalances = [row["s"] for row in report.rows]
        assert imbalances[0] == 0
        assert {26, -26} <= set(imbalances[:3])

    @pytest.mark.parametrize("samples", [1, 2, 3, 4])
    def test_sampled_checks_exactly_samples(self, samples):
        report = verify_theorem2(1, 2, samples=samples, seed=0)
        assert report.tested == len(report.rows) == samples
        assert [row["s"] for row in report.rows][:3] == [0, 6, -6][:samples]

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            verify_theorem2(2, 1)
        with pytest.raises(ParameterError):
            verify_theorem2(0, 2)
        with pytest.raises(ParameterError):
            verify_theorem2(2, 2, grid="dense")

    @staticmethod
    def certified_at(weight, bound):
        """A certify whose witness weighs ``weight`` against ``bound``."""
        real = verifier.certify

        def fake(g):
            return real(g)._replace(bound=bound, weight=weight)

        return fake

    def test_certified_witness_above_the_threshold_fails_replayably(self, monkeypatch):
        # k = 3: the threshold is 4, so a proven minimum of 6 is a counterexample
        monkeypatch.setattr(verifier, "certify", self.certified_at(-6, 6))
        report = verify_theorem2(2, 3, samples=3, seed=4)
        assert report.tested == 3 and report.passed == 0
        for entry, row in zip(report.failures, report.rows):
            assert (entry["expected"], entry["observed"]) == ("min_weight <= 4", "min_weight 6")
            assert parse_instance(entry["instance"]) == random_with_imbalance(
                8, row["s"], row["seed"])
            assert (row["min_weight"], row["pass"]) == (6, False)

    def test_light_witness_above_its_bound_passes_with_no_minimum(self, monkeypatch):
        # a gap > 0 proves no minimum, but a witness of |weight| 2 proves the statement
        monkeypatch.setattr(verifier, "certify", self.certified_at(2, 0))
        report = verify_theorem2(3, 2, samples=4, seed=1)
        assert report.ok and report.passed == 4
        assert [row["min_weight"] for row in report.rows] == [""] * 4
        assert all(row["pass"] for row in report.rows)

    def test_one_certify_per_instance_and_no_other_route(self, monkeypatch):
        real, seen = verifier.certify, []

        def spy(g):
            seen.append(g)
            return real(g)

        def elsewhere(*args, **kwargs):
            raise AssertionError("thm2 is decided by its certificate alone")

        monkeypatch.setattr(verifier, "certify", spy)
        for name in ("local_search_min_weight", "pm_from_sign_max_matching", "oracle_min_weight"):
            monkeypatch.setattr(verifier, name, elsewhere)
        report = verify_theorem2(2, 2, samples=2, seed=1, grid="full")
        assert len(seen) == report.tested == 54
        assert seen == [random_with_imbalance(8, row["s"], row["seed"]) for row in report.rows]

    @pytest.mark.parametrize("n,k,grid,samples", [
        (1, 2, "full", 3), (1, 3, "full", 3), (2, 2, "full", 3), (2, 4, "full", 3),
        (3, 2, "sampled", 12), (5, 3, "sampled", 12), (8, 5, "sampled", 12),
        (10, 2, "sampled", 12),
    ])
    def test_constructive_weight_equals_a_fresh_minority_matching(self, n, k, grid, samples):
        # the minority sign's completed maximum matching, built apart from certify
        report = verify_theorem2(n, k, samples=samples, seed=n + k, grid=grid)
        worst = 0
        for row in report.rows:
            g = random_with_imbalance(4 * n, row["s"], row["seed"])
            cert = certify(g)
            if row["s"] <= 0:  # M+ is built: Erdos-Gallai puts lo <= 0
                assert cert.hi is not None
            minority = -1 if row["s"] >= 0 else 1
            weight = sigma_by_index(g, pm_from_sign_max_matching(g, minority).pairs)
            assert weight == (cert.lo if minority < 0 else cert.hi)
            worst = max(worst, abs(weight))
        assert report.stats["constructive_max_abs_weight"] == worst


class TestTightness:
    @pytest.mark.parametrize("n,k,min_weight", [(2, 2, 4), (3, 2, 4), (3, 3, 6)])
    def test_small_cases(self, n, k, min_weight):
        report = verify_tightness(n, k)
        assert report.ok
        assert report.rows[0]["min_weight"] == min_weight
        assert report.rows[0]["bound"] == min_weight

    def test_above_oracle_scope_is_partial(self):
        # the minimum 2k is certified, at order 20 as at every order
        report = verify_tightness(5, 2)
        assert report.ok
        assert "partial" not in report.stats
        assert (report.tested, report.passed) == (3, 3)
        assert report.rows[0]["min_weight"] == 4

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            verify_tightness(2, 3)


class TestUncertifiedWitness:
    @pytest.mark.parametrize("run,g", [
        (lambda: verify_tightness(5, 2), clique_instance(5, 2)),
        (lambda: verify_prop2(2), proposition2_instance(2)),
    ], ids=["tight", "prop2"])
    def test_witness_above_its_bound_fails_once(self, monkeypatch, run, g):
        real = verifier.certify

        def below_its_witness(g):
            cert = real(g)
            return cert._replace(bound=cert.bound - 2)

        monkeypatch.setattr(verifier, "certify", below_its_witness)
        cert = below_its_witness(g)
        report = run()
        assert [entry["observed"] for entry in report.failures] == [
            f"lower bound {cert.bound}, witness weight {cert.weight}"]
        assert report.rows[0]["min_weight"] == ""
        assert parse_instance(report.failures[0]["instance"]) == g


class TestErdosGallai:
    def test_extremal_and_contrapositive(self):
        report = verify_erdos_gallai(2, 1, samples=200, seed=11)
        assert report.ok
        assert report.stats["samples_above_bound"] > 0
        assert report.tested == 202

    def test_graphs_at_or_below_the_bound_are_not_counted(self):
        # the README case: 11 of its 1000 graphs have at most 7 edges, so the
        # contrapositive says nothing about them; each still gets a row
        report = verify_erdos_gallai(2, 1, samples=1000, seed=7)
        assert report.stats["samples_above_bound"] == 989
        assert report.tested == report.passed == 2 + 989
        assert len(report.rows) == 1 + 1000

    def test_edgeless_case(self):
        report = verify_erdos_gallai(2, 2, samples=50, seed=2)
        assert report.ok

    def test_failure_instances_round_trip(self):
        report = verify_erdos_gallai(3, 1, samples=30, seed=4)
        # no real failures expected; exercise the embedding used for them
        from lowpm.verifier import _graph_as_minus_instance
        from lowpm import eg_extremal_graph, sign_subgraph

        graph = eg_extremal_graph(3, 1)
        embedded = _graph_as_minus_instance(graph)
        assert sign_subgraph(parse_instance(serialize_instance(embedded)), -1).edges == graph.edges
        assert report.ok

    def test_extremal_row_fails_on_its_edge_count(self, monkeypatch):
        # the matching number still checks out; the row must not say pass
        from lowpm.constructions import eg_edge_bound

        monkeypatch.setattr(verifier, "eg_edge_bound", lambda n, k: eg_edge_bound(n, k) + 1)
        report = verify_erdos_gallai(2, 1, samples=5, seed=3)
        assert [(entry["expected"], entry["observed"]) for entry in report.failures] == [
            ("edges 8", "edges 7")]
        assert report.rows[0]["pass"] is False

    def test_forced_failures_embed_their_instances(self, monkeypatch):
        # a matching number of 0 fails the extremal check and every sample
        # above the bound, so each failure entry is built from its callable
        from lowpm import blossom, random_graph, sign_subgraph

        monkeypatch.setattr(blossom, "matching_number", lambda order, edges: 0)
        report = verify_erdos_gallai(2, 1, samples=20, seed=3)
        extremal, *sampled = report.failures
        assert extremal["expected"] == "matching_number 1"
        assert parse_instance(extremal["instance"]) == clique_instance(2, 1)
        seeds = [row["seed"] for row in report.rows[1:] if not row["pass"]]
        assert len(sampled) == len(seeds) == report.stats["samples_above_bound"] > 0
        for entry, seed in zip(sampled, seeds):
            assert sign_subgraph(parse_instance(entry["instance"]), -1) == random_graph(8, seed)


class TestReportShape:
    def test_json_schema_fields(self):
        report = verify_theorem1(1, exhaustive=True)
        payload = json.loads(report.to_json())
        assert set(payload) >= {
            "theorem", "params", "seed", "tested", "passed", "failures", "elapsed_ms",
        }
        assert payload["theorem"] == "theorem1"
        assert payload["failures"] == []

    def test_failure_entries_round_trip(self):
        report = VerifyReport(theorem="demo", params={}, seed=0)
        g = random_with_imbalance(8, 0, 1)
        report.check(g, "x 1", "x 2", passed=False)
        assert not report.ok
        entry = report.failures[0]
        assert parse_instance(entry["instance"]) == g
        assert set(entry) == {"instance", "expected", "observed"}

    def test_text_summary_mentions_failures(self):
        report = VerifyReport(theorem="demo", params={"n": 1}, seed=0)
        g = random_with_imbalance(8, 0, 1)
        report.check(g, "min_weight 0", "min_weight 2", passed=False)
        text = report.to_text()
        assert "failures    1" in text
        assert "min_weight 2" in text

    def test_csv_shape(self):
        report = verify_theorem2(1, 2, samples=5, seed=9)
        lines = report.to_csv().splitlines()
        assert lines[0] == "n,k,s,seed,min_weight,bound,pass"
        assert len(lines) == 1 + len(report.rows)
        for line in lines[1:]:
            assert line.split(",")[0] == "1"

    def test_pass_iff_no_failures(self):
        report = verify_prop2(2)
        assert report.ok == (len(report.failures) == 0)
