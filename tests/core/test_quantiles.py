"""Unit tests for the quantile-cut extension (Section 5.2)."""

from __future__ import annotations

import pytest

from repro.core import quantile_cut_query
from repro.core.quantiles import quantile_points
from repro.errors import CannotCutError
from repro.sdl import SDLQuery, check_partition
from repro.storage import QueryEngine, Table
from repro.workloads import make_gaussian_table, make_zipf_table


def _engine(data: dict) -> QueryEngine:
    return QueryEngine(Table.from_dict(data, name="t"))


class TestQuantilePoints:
    def test_terciles_of_uniform_range(self):
        points = quantile_points(list(range(1, 301)), [1 / 3, 2 / 3])
        assert points[0] == pytest.approx(100, abs=2)
        assert points[1] == pytest.approx(200, abs=2)

    def test_duplicate_points_removed(self):
        points = quantile_points([1] * 50 + [2] * 50, [0.1, 0.2, 0.3])
        assert points == [1]

    def test_empty_values_rejected(self):
        with pytest.raises(CannotCutError):
            quantile_points([], [0.5])

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(CannotCutError):
            quantile_points([1, 2, 3], [1.5])


class TestNumericQuantileCut:
    def test_tercile_cut_produces_three_pieces(self):
        engine = _engine({"x": list(range(90))})
        segmentation = quantile_cut_query(engine, SDLQuery.over(["x"]), "x")
        assert segmentation.depth == 3
        assert check_partition(engine, segmentation).is_partition
        assert max(segmentation.counts) - min(segmentation.counts) <= 2

    def test_quartile_cut(self):
        engine = _engine({"x": list(range(100))})
        segmentation = quantile_cut_query(
            engine, SDLQuery.over(["x"]), "x", quantiles=(0.25, 0.5, 0.75)
        )
        assert segmentation.depth == 4
        assert check_partition(engine, segmentation).is_partition

    def test_gaussian_middle_third_is_isolatable(self):
        # The paper's motivating example: the dense middle of a Gaussian
        # should be a single segment under tercile cuts.
        engine = QueryEngine(make_gaussian_table(rows=4000, mean=100.0, std=15.0, seed=1))
        segmentation = quantile_cut_query(engine, SDLQuery.over(["value"]), "value")
        assert segmentation.depth == 3
        middle = segmentation.segments[1]
        low = middle.query.predicate_for("value").low
        high = middle.query.predicate_for("value").high
        assert 90 < low < 100 < high < 110

    def test_single_value_rejected(self):
        engine = _engine({"x": [5, 5, 5]})
        with pytest.raises(CannotCutError):
            quantile_cut_query(engine, SDLQuery.over(["x"]), "x")

    def test_empty_context_rejected(self):
        engine = _engine({"x": [1, 2, 3]})
        from repro.sdl import RangePredicate

        context = SDLQuery([RangePredicate("x", 50, 60)])
        with pytest.raises(CannotCutError):
            quantile_cut_query(engine, context, "x")

    def test_no_quantiles_rejected(self):
        engine = _engine({"x": [1, 2, 3, 4]})
        with pytest.raises(CannotCutError):
            quantile_cut_query(engine, SDLQuery.over(["x"]), "x", quantiles=())

    def test_skewed_data_collapses_gracefully(self):
        # 80% of the mass on one value: some quantile points coincide, the
        # cut still returns at least two valid pieces.
        engine = _engine({"x": [1] * 80 + list(range(2, 22))})
        segmentation = quantile_cut_query(
            engine, SDLQuery.over(["x"]), "x", quantiles=(0.25, 0.5, 0.75)
        )
        assert segmentation.depth >= 2
        assert check_partition(engine, segmentation).is_partition


class TestNominalQuantileCut:
    def test_zipf_categories_grouped_by_frequency(self):
        engine = QueryEngine(make_zipf_table(rows=3000, exponent=1.4, categories=12, seed=2))
        segmentation = quantile_cut_query(
            engine, SDLQuery.over(["category", "score"]), "category", quantiles=[1 / 3, 2 / 3]
        )
        assert 2 <= segmentation.depth <= 3
        assert check_partition(engine, segmentation).is_partition

    def test_two_value_column(self):
        engine = _engine({"t": ["a"] * 30 + ["b"] * 70})
        segmentation = quantile_cut_query(engine, SDLQuery.over(["t"]), "t", quantiles=[0.5])
        assert segmentation.depth == 2

    def test_single_value_rejected(self):
        engine = _engine({"t": ["only"] * 10})
        with pytest.raises(CannotCutError):
            quantile_cut_query(engine, SDLQuery.over(["t"]), "t")
