"""Unit tests for the per-segment distribution renderers."""

from __future__ import annotations

import pytest

from repro.core import cut_query
from repro.errors import VisualizationError
from repro.sdl import RangePredicate, SDLQuery
from repro.storage import QueryEngine, Table
from repro.viz import segment_distributions
from repro.viz.histogram import numeric_sparkline, value_histogram


@pytest.fixture()
def engine() -> QueryEngine:
    table = Table.from_dict(
        {
            "category": ["a"] * 50 + ["b"] * 30 + ["c"] * 20,
            "value": list(range(100)),
        },
        name="data",
    )
    return QueryEngine(table)


class TestValueHistogram:
    def test_lists_values_with_counts(self, engine):
        text = value_histogram(engine, "category")
        assert "a" in text and "50" in text
        assert text.splitlines()[0].startswith("category")

    def test_bars_proportional(self, engine):
        lines = value_histogram(engine, "category", width=20).splitlines()
        bar_lengths = [line.count("▇") for line in lines[1:]]
        assert bar_lengths == sorted(bar_lengths, reverse=True)

    def test_respects_query_restriction(self, engine):
        query = SDLQuery([RangePredicate("value", 0, 49)])
        text = value_histogram(engine, "category", query)
        assert "b" not in text.replace("▇", "")

    def test_long_tail_is_collapsed(self, engine):
        text = value_histogram(engine, "value", max_values=5)
        assert "more values" in text

    def test_empty_selection(self, engine):
        query = SDLQuery([RangePredicate("value", 1000, 2000)])
        assert "(no values)" in value_histogram(engine, "category", query)

    def test_invalid_width(self, engine):
        with pytest.raises(VisualizationError):
            value_histogram(engine, "category", width=1)


class TestNumericSparkline:
    def test_fixed_length_output(self, engine):
        spark = numeric_sparkline(engine, "value", bins=12)
        assert len(spark) == 12

    def test_uniform_data_is_flat_ish(self, engine):
        spark = numeric_sparkline(engine, "value", bins=10)
        assert len(set(spark)) <= 3

    def test_constant_data(self):
        engine = QueryEngine(Table.from_dict({"x": [5.0] * 20}))
        spark = numeric_sparkline(engine, "x", bins=8)
        assert len(spark) == 8

    def test_requires_numeric_column(self, engine):
        with pytest.raises(VisualizationError):
            numeric_sparkline(engine, "category")

    def test_invalid_bins(self, engine):
        with pytest.raises(VisualizationError):
            numeric_sparkline(engine, "value", bins=1)

    def test_empty_selection(self, engine):
        query = SDLQuery([RangePredicate("value", 1000, 2000)])
        assert numeric_sparkline(engine, "value", query) == "(empty)"


class TestSegmentDistributions:
    def test_nominal_probe_shows_context_and_every_segment(self, engine):
        context = SDLQuery.over(["category", "value"])
        segmentation = cut_query(engine, context, "value")
        text = segment_distributions(engine, segmentation, "category")
        lines = text.splitlines()
        assert "context" in lines[1]
        assert len(lines) == 2 + segmentation.depth

    def test_numeric_probe_uses_sparklines(self, engine):
        context = SDLQuery.over(["category", "value"])
        segmentation = cut_query(engine, context, "category")
        text = segment_distributions(engine, segmentation, "value")
        assert "▁" in text or "█" in text

    def test_shifted_distribution_is_visible(self, engine):
        # Cutting on value at the median puts all of category 'c' in the
        # upper half; its share should read 0% in one row and >0% in another.
        context = SDLQuery.over(["category", "value"])
        segmentation = cut_query(engine, context, "value")
        text = segment_distributions(engine, segmentation, "category")
        assert "0%" in text
