"""Core types, sign arithmetic and the text formats."""

import pytest
from hypothesis import given, settings, strategies as st

from lowpm import (
    InstanceFormatError,
    InvalidPairError,
    MatchingError,
    ParameterError,
    PerfectMatching,
    SignedCompleteGraph,
    SimpleGraph,
    canonical_pair_index,
    iter_pairs,
    pair_count,
    parse_instance,
    random_with_imbalance,
    serialize_instance,
    serialize_matching,
    sigma_matching,
    sigma_total,
    sign_subgraph,
)

from helpers import brute_perfect_matchings


def all_plus(order):
    return SignedCompleteGraph(order, (1,) * pair_count(order))


def k4_two_plus():
    """K_4 with +1 on {0,1} and {2,3}, -1 elsewhere."""
    return SignedCompleteGraph.from_edge_sign(
        4, lambda u, v: 1 if (u, v) in ((0, 1), (2, 3)) else -1
    )


class TestPairIndex:
    def test_first_pair(self):
        assert canonical_pair_index(0, 1, 8) == 0

    def test_last_pair(self):
        assert canonical_pair_index(6, 7, 8) == 27

    def test_hand_enumerated_value(self):
        # walking the upper triangle of order 8: (0,1)..(0,7) take 0..6,
        # then (1,2) -> 7 and (1,3) -> 8
        assert canonical_pair_index(1, 3, 8) == 8

    @pytest.mark.parametrize("order", [2, 3, 5, 8, 13])
    def test_bijection(self, order):
        seen = [canonical_pair_index(u, v, order) for u, v in iter_pairs(order)]
        assert seen == list(range(pair_count(order)))

    @pytest.mark.parametrize("u,v", [(3, 3), (5, 2), (-1, 2), (0, 8), (7, 9)])
    def test_invalid_pairs(self, u, v):
        with pytest.raises(InvalidPairError):
            canonical_pair_index(u, v, 8)


class TestGraphType:
    def test_counts(self):
        g = all_plus(8)
        assert (g.plus_count, g.minus_count) == (28, 0)
        g = random_with_imbalance(8, 0, 3)
        assert (g.plus_count, g.minus_count) == (14, 14)

    def test_sign_lookup_symmetric(self):
        g = k4_two_plus()
        assert g.sign(0, 1) == g.sign(1, 0) == 1
        assert g.sign(0, 2) == g.sign(2, 0) == -1

    def test_rejects_odd_order(self):
        with pytest.raises(ParameterError):
            SignedCompleteGraph(5, (1,) * 10)

    def test_rejects_wrong_length(self):
        with pytest.raises(ParameterError):
            SignedCompleteGraph(8, (1,) * 27)

    def test_rejects_bad_entries(self):
        for bad in (0, 2, -2, "+", 1.5, [1], None):
            with pytest.raises(ParameterError, match="every sign must be -1 or \\+1"):
                SignedCompleteGraph(4, (1, -1, bad, 1, 1, -1))

    def test_accepts_bool_true_as_plus(self):
        g = SignedCompleteGraph(4, (True, -1, -1, 1, 1, -1))
        assert g.plus_count == 3 and g.minus_count == 3
        assert serialize_instance(g) == "signed-k 1\norder 4\nsigns +--++-\n"

    def test_hashable_and_equal(self):
        a = random_with_imbalance(8, 2, 7)
        b = random_with_imbalance(8, 2, 7)
        assert a == b and hash(a) == hash(b)

    def test_imbalance_parity_matches_pair_count(self):
        for order in (4, 6, 8, 10):
            for seed in range(5):
                total = pair_count(order)
                g = random_with_imbalance(order, total % 2, seed)
                assert (sigma_total(g) - total) % 2 == 0


class TestSigma:
    def test_all_plus_total(self):
        assert sigma_total(all_plus(8)) == 28

    def test_balanced_total(self):
        assert sigma_total(random_with_imbalance(8, 0, 11)) == 0

    def test_k4_example_weights(self):
        g = k4_two_plus()
        weights = {}
        for pairs in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
            weights[pairs] = sigma_matching(g, PerfectMatching(pairs))
        assert weights[((0, 1), (2, 3))] == 2
        assert weights[((0, 2), (1, 3))] == -2
        assert weights[((0, 3), (1, 2))] == -2
        # the three matchings partition E(K_4)
        assert sum(weights.values()) == sigma_total(g) == -2

    def test_k4_partition_identity_exhaustive(self):
        # over all 2^6 labelings the three matching weights sum to the total
        from itertools import product

        matchings = [PerfectMatching(p) for p in
                     (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))]
        for signs in product((-1, 1), repeat=6):
            g = SignedCompleteGraph(4, signs)
            assert sum(sigma_matching(g, m) for m in matchings) == sigma_total(g)

    def test_all_plus_any_pm(self):
        g = all_plus(8)
        for pairs in brute_perfect_matchings(8):
            assert sigma_matching(g, PerfectMatching(pairs)) == 4

    def test_weight_arithmetic_identity(self):
        for seed in range(10):
            # C(10,2) = 45 is odd, so the imbalance must be odd
            g = random_with_imbalance(10, 2 * (seed - 5) + 1, seed)
            for pairs in list(brute_perfect_matchings(10))[:50]:
                m = PerfectMatching(pairs)
                w = sigma_matching(g, m)
                plus = sum(1 for a, b in pairs if g.sign(a, b) > 0)
                minus = sum(1 for a, b in pairs if g.sign(a, b) < 0)
                assert plus + minus == 5
                assert w == plus - minus
                assert w == 5 - 2 * minus
                assert -5 <= w <= 5

    def test_wrong_order_matching_rejected(self):
        g = all_plus(8)
        with pytest.raises(MatchingError):
            sigma_matching(g, PerfectMatching(((0, 1), (2, 3))))


class TestPerfectMatchingType:
    def test_canonicalization(self):
        m = PerfectMatching.from_pairs([(3, 2), (1, 0)])
        assert m.pairs == ((0, 1), (2, 3))
        assert m.order == 4

    def test_uniqueness_for_hashing(self):
        a = PerfectMatching.from_pairs([(5, 4), (0, 1), (3, 2)])
        b = PerfectMatching(((0, 1), (2, 3), (4, 5)))
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("pairs", [
        ((1, 0),),                      # a >= b
        ((0, 1), (1, 2)),               # overlap
        ((0, 1), (3, 4)),               # gap: vertex 2 missing
        ((2, 3), (0, 1)),               # unsorted
    ])
    def test_rejects_bad_pairs(self, pairs):
        with pytest.raises(MatchingError):
            PerfectMatching(pairs)


class TestSimpleGraph:
    def test_validation(self):
        SimpleGraph(4, ((0, 1), (1, 3)))
        SimpleGraph(4, ())
        for edges in (((0, 4),), ((2, 1),), ((0, 1), (2, 2)), ((-1, 2),), ((0, 1), (3, 2))):
            with pytest.raises(InvalidPairError, match=r"edge \(-?\d,\d\) out of range"):
                SimpleGraph(4, edges)
        for edges in (((1, 3), (0, 1)), ((0, 1), (0, 1)), ((0, 2), (0, 1), (0, 3))):
            with pytest.raises(ParameterError, match="strictly sorted"):
                SimpleGraph(4, edges)

    def test_sign_subgraph(self):
        g = k4_two_plus()
        assert sign_subgraph(g, 1).edges == ((0, 1), (2, 3))
        assert sign_subgraph(g, -1).edge_count == 4
        with pytest.raises(ParameterError):
            sign_subgraph(g, 0)

    def test_sign_subgraph_matches_sign(self):
        for order in range(4, 31, 2):
            total = pair_count(order)
            for s in (total % 2, total - order, 2 * order - total):
                g = random_with_imbalance(order, s, order * 100 + s)
                for sign in (1, -1):
                    expected = tuple(p for p in iter_pairs(order) if g.sign(*p) == sign)
                    # equal to the checked construction, so it would pass the check
                    assert sign_subgraph(g, sign) == SimpleGraph(order, expected), (order, s, sign)


class TestInstanceFormat:
    def test_direct_encoding(self):
        g = parse_instance("signed-k 1\norder 4\nsigns ++-+-+\n")
        assert g.order == 4
        assert g.signs == (1, 1, -1, 1, -1, 1)

    def test_round_trip_random(self):
        for order in (2, 4, 6, 8, 12):
            for seed in range(5):
                g = random_with_imbalance(order, pair_count(order) % 2, seed)
                assert parse_instance(serialize_instance(g)) == g

    def test_serialized_form_exact(self):
        g = SignedCompleteGraph(4, (1, 1, -1, 1, -1, 1))
        assert serialize_instance(g) == "signed-k 1\norder 4\nsigns ++-+-+\n"

    def test_whitespace_insensitive_sign_block(self):
        g = parse_instance("signed-k 1\norder 4\nsigns ++ -+\n-+\n")
        assert g.signs == (1, 1, -1, 1, -1, 1)

    def test_wrong_sign_length(self):
        text = "signed-k 1\norder 8\nsigns " + "+" * 27 + "\n"
        with pytest.raises(InstanceFormatError) as info:
            parse_instance(text)
        assert "27" in str(info.value) and "28" in str(info.value)

    def test_bad_header(self):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance("signed-k 2\norder 4\nsigns ++-+-+\n")
        assert info.value.line == 1

    def test_bad_order_line(self):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance("signed-k 1\norder four\nsigns ++-+-+\n")
        assert info.value.line == 2

    @pytest.mark.parametrize("order", [
        pytest.param("²", id="superscript"),
        pytest.param("٤", id="arabic-indic"),
        pytest.param("1" * 5000, id="past-int-digit-limit"),
    ])
    def test_order_must_be_ascii_numeral(self, order):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance(f"signed-k 1\norder {order}\nsigns ++-+-+\n")
        assert info.value.line == 2

    def test_illegal_character_position(self):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance("signed-k 1\norder 4\nsigns ++x+-+\n")
        assert (info.value.line, info.value.column) == (3, 9)

    def test_illegal_character_on_continuation_line(self):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance("signed-k 1\norder 4\nsigns ++-+\n-*\n")
        assert (info.value.line, info.value.column) == (4, 2)

    def test_odd_order_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("signed-k 1\norder 5\nsigns ++++++++++\n")


class TestMatchingFormat:
    def test_serialized_form(self):
        assert serialize_matching(((0, 3), (1, 2), (4, 5))) == "matching 0-3 1-2 4-5"

    def test_empty(self):
        assert serialize_matching(()) == "matching"


# Text shaped like the instance format, so generated input gets past the
# header checks into the numeral and sign parsing.
_NUMERALS = st.sampled_from(["0", "4", "12", "²", "٤", "1" * 5000]) | st.text(max_size=2)
_INSTANCE_LIKE = st.builds("signed-k 1\norder {}\nsigns {}".format,
                           _NUMERALS, st.text(alphabet="+- \t\nx²", max_size=40))
_PARSER_SETTINGS = settings(max_examples=150, deadline=None, database=None)


class TestParserProperties:
    """The instance parser returns a value or raises InstanceFormatError on any text."""

    @_PARSER_SETTINGS
    @given(st.text() | _INSTANCE_LIKE)
    def test_parse_instance_total(self, text):
        try:
            g = parse_instance(text)
        except InstanceFormatError:
            return
        assert parse_instance(serialize_instance(g)) == g

    @_PARSER_SETTINGS
    @given(st.integers(1, 8).flatmap(
        lambda half: st.lists(st.sampled_from((1, -1)),
                              min_size=pair_count(2 * half), max_size=pair_count(2 * half))
        .map(lambda signs: SignedCompleteGraph(2 * half, tuple(signs)))))
    def test_serialize_parse_identity(self, g):
        assert parse_instance(serialize_instance(g)) == g


class TestPublicSurface:
    def test_star_import_resolves_every_name(self):
        import lowpm

        namespace = {}
        exec("from lowpm import *", namespace)  # raises on a stale __all__ entry
        assert sorted(set(lowpm.__all__)) == sorted(lowpm.__all__)
        assert set(lowpm.__all__) <= namespace.keys()
