"""Unit tests for the quality metrics (Section 3)."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    balance,
    breadth,
    cover,
    entropy,
    homogeneity_proxy,
    indep_from_entropies,
    max_entropy,
    score_segmentation,
    simplicity,
)
from repro.backends import open_backend
from repro.core import analyse_dependence, cut_query, cut_segmentation, indep, product
from repro.sdl import (
    NoConstraint,
    RangePredicate,
    SDLQuery,
    Segment,
    Segmentation,
    SetPredicate,
)
from repro.storage import QueryEngine, Table


def _context() -> SDLQuery:
    return SDLQuery([NoConstraint("x"), NoConstraint("t")])


def _segmentation(counts, cut_attributes=("x",)) -> Segmentation:
    context = _context()
    segments = []
    low = 0
    for count in counts:
        query = context.refine(RangePredicate("x", low, low + 9))
        segments.append(Segment(query, count))
        low += 10
    return Segmentation(context, segments, cut_attributes=cut_attributes)


class TestEntropy:
    def test_single_piece_is_zero(self):
        assert entropy(_segmentation([100])) == 0.0

    def test_balanced_pieces_reach_log_m(self):
        segmentation = _segmentation([25, 25, 25, 25])
        assert entropy(segmentation) == pytest.approx(math.log(4))

    def test_unbalanced_lower_than_balanced(self):
        balanced = _segmentation([50, 50])
        skewed = _segmentation([90, 10])
        assert entropy(skewed) < entropy(balanced)

    def test_empty_segments_contribute_nothing(self):
        with_empty = _segmentation([50, 50, 0])
        without_empty = _segmentation([50, 50])
        assert entropy(with_empty) == pytest.approx(entropy(without_empty))

    def test_natural_logarithm(self):
        segmentation = _segmentation([50, 50])
        assert entropy(segmentation) == pytest.approx(math.log(2))

    def test_entropy_grows_with_depth(self):
        assert entropy(_segmentation([25] * 4)) > entropy(_segmentation([50] * 2))


class TestMaxEntropyAndBalance:
    def test_max_entropy_counts_non_empty_pieces(self):
        assert max_entropy(_segmentation([10, 10, 0])) == pytest.approx(math.log(2))

    def test_balance_of_perfectly_balanced_is_one(self):
        assert balance(_segmentation([20, 20, 20])) == pytest.approx(1.0)

    def test_balance_of_single_piece_is_one(self):
        assert balance(_segmentation([42])) == 1.0

    def test_balance_decreases_with_skew(self):
        assert balance(_segmentation([99, 1])) < balance(_segmentation([60, 40]))


class TestSimplicity:
    def test_counts_constraints_added_beyond_context(self):
        segmentation = _segmentation([10, 10])
        assert simplicity(segmentation) == 1

    def test_context_constraints_are_not_charged(self):
        context = SDLQuery([RangePredicate("year", 1700, 1800), NoConstraint("x")])
        query = context.refine(RangePredicate("x", 0, 5))
        segmentation = Segmentation(context, [Segment(query, 10)])
        assert simplicity(segmentation) == 1

    def test_takes_the_maximum_over_queries(self):
        context = _context()
        simple = context.refine(RangePredicate("x", 0, 5))
        complex_query = simple.refine(SetPredicate("t", frozenset({"a"})))
        segmentation = Segmentation(context, [Segment(simple, 5), Segment(complex_query, 5)])
        assert simplicity(segmentation) == 2


class TestBreadth:
    def test_counts_distinct_cut_columns(self):
        assert breadth(_segmentation([10, 10], cut_attributes=("x",))) == 1
        assert breadth(_segmentation([10, 10], cut_attributes=("x", "t"))) == 2


class TestCover:
    def test_table_relative(self):
        table = Table.from_dict({"x": list(range(10)), "t": ["a"] * 10})
        engine = QueryEngine(table)
        query = SDLQuery([RangePredicate("x", 0, 4)])
        assert cover(engine, query) == pytest.approx(0.5)


class TestIndepFromEntropies:
    def test_zero_denominator_defaults_to_one(self):
        assert indep_from_entropies(0.0, 0.0, 0.0) == 1.0

    def test_quotient(self):
        assert indep_from_entropies(1.0, 0.6, 0.6) == pytest.approx(1.0 / 1.2)


class TestIndep:
    """``indep`` agrees with HB-cuts' pair pass and ``analyse_dependence``."""

    #: x and y are never both set: the product of their cuts holds no row.
    DISJOINT = {"x": [1, 2, 3, 4, None, None, None, None], "y": [None] * 4 + [5, 6, 7, 8]}

    @pytest.mark.parametrize("spec", ["memory", "sqlite"])
    def test_a_product_holding_no_row_reads_one(self, spec):
        engine = open_backend(spec, Table.from_dict(self.DISJOINT, name="t"))
        context = SDLQuery.over(["x", "y"])
        first, second = cut_query(engine, context, "x"), cut_query(engine, context, "y")
        assert indep(engine, first, second) == 1.0
        assert analyse_dependence(engine, first, second).indep == 1.0

    @pytest.mark.parametrize("spec", ["memory", "sqlite"])
    def test_is_the_entropy_quotient_of_the_product(self, spec):
        data = {"x": [1, 2, 3, 4, 5, 6, 7, 8], "t": ["a", "a", "a", "b", "b", "b", "b", "a"]}
        engine = open_backend(spec, Table.from_dict(data, name="t"))
        context = SDLQuery.over(["x", "t"])
        first, second = cut_query(engine, context, "x"), cut_query(engine, context, "t")
        assert indep(engine, first, second) == indep_from_entropies(
            entropy(product(engine, first, second)), entropy(first), entropy(second)
        )


class TestHomogeneityProxy:
    def test_pure_segments_score_one(self):
        table = Table.from_dict({"x": [1, 1, 5, 5], "t": ["a", "a", "b", "b"]})
        engine = QueryEngine(table)
        segmentation = cut_query(engine, SDLQuery.over(["x", "t"]), "t")
        assert homogeneity_proxy(engine, segmentation) == pytest.approx(1.0)

    def test_mixed_segments_score_below_one(self):
        table = Table.from_dict({"x": [1, 2, 3, 4], "t": ["a", "b", "a", "b"]})
        engine = QueryEngine(table)
        segmentation = cut_query(engine, SDLQuery.over(["x", "t"]), "x")
        # Each x-half contains both t values: concentration is low.
        assert homogeneity_proxy(engine, segmentation) < 0.5

    def test_no_attributes_scores_one(self):
        context = _context()
        segmentation = Segmentation(context, [Segment(context, 10)])
        engine = QueryEngine(Table.from_dict({"x": [1], "t": ["a"]}))
        assert homogeneity_proxy(engine, segmentation) == 1.0


class TestScoreSegmentation:
    def test_bundles_every_metric(self):
        segmentation = _segmentation([30, 30, 40], cut_attributes=("x",))
        scores = score_segmentation(segmentation)
        assert scores.entropy == pytest.approx(entropy(segmentation))
        assert scores.breadth == 1
        assert scores.simplicity == 1
        assert scores.depth == 3
        assert scores.covered_fraction == pytest.approx(1.0)
        assert set(scores.as_dict()) >= {"entropy", "breadth", "simplicity", "balance"}

    def test_deep_cut_on_real_engine(self):
        table = Table.from_dict({"x": list(range(64)), "t": ["a", "b"] * 32})
        engine = QueryEngine(table)
        context = SDLQuery.over(["x", "t"])
        segmentation = cut_segmentation(engine, cut_query(engine, context, "x"), "t")
        scores = score_segmentation(segmentation)
        assert scores.depth == 4
        assert scores.breadth == 2
        assert 0.0 < scores.entropy <= math.log(4) + 1e-9
