"""Unit tests for the per-segment distribution renderers."""

from __future__ import annotations

import pytest

from repro.core import cut_query
from repro.errors import VisualizationError
from repro.sdl import RangePredicate, SDLQuery
from repro.storage import QueryEngine, Table
from repro.viz import segment_distributions
from repro.viz.histogram import numeric_sparkline


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


class TestNumericSparkline:
    def test_fixed_length_output(self, engine):
        spark = numeric_sparkline(engine, "value", SDLQuery.over(["value"]))
        assert len(spark) == 16

    def test_uniform_data_is_flat_ish(self, engine):
        spark = numeric_sparkline(engine, "value", SDLQuery.over(["value"]))
        assert len(set(spark)) <= 3

    def test_constant_data(self):
        engine = QueryEngine(Table.from_dict({"x": [5.0] * 20}))
        spark = numeric_sparkline(engine, "x", SDLQuery.over(["x"]))
        assert len(spark) == 16

    def test_requires_numeric_column(self, engine):
        with pytest.raises(VisualizationError):
            numeric_sparkline(engine, "category", SDLQuery.over(["category"]))

    def test_empty_selection(self, engine):
        query = SDLQuery([RangePredicate("value", 1000, 2000)])
        assert numeric_sparkline(engine, "value", query) == "(empty)"

    def test_respects_query_restriction(self):
        engine = QueryEngine(Table.from_dict({"x": [0] * 50 + [100] * 50}))
        whole = numeric_sparkline(engine, "x", SDLQuery.over(["x"]))
        assert whole[0] == whole[-1] == "█" and whole[1] == "▁"
        lower = numeric_sparkline(engine, "x", SDLQuery([RangePredicate("x", 0, 50)]))
        assert lower == "█" * 16  # one value left: a constant selection


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

    def test_values_are_ordered_by_context_frequency(self, engine):
        context = SDLQuery.over(["category", "value"])
        segmentation = cut_query(engine, context, "value")
        context_row = segment_distributions(engine, segmentation, "category").splitlines()[1]
        assert context_row.index("a:") < context_row.index("b:") < context_row.index("c:")

    def test_long_tail_is_collapsed(self):
        engine = QueryEngine(Table.from_dict({
            "code": [f"v{index % 10}" for index in range(100)],
            "value": list(range(100)),
        }))
        segmentation = cut_query(engine, SDLQuery.over(["code", "value"]), "value")
        rows = segment_distributions(engine, segmentation, "code").splitlines()[1:]
        # Ten values in the context; each row shows the six most frequent.
        assert all(row.count("%") == 6 for row in rows)
