"""Unit tests for the CUT primitive (Definitions 5 and 6)."""

from __future__ import annotations

import pytest

from repro.core import cut_query, cut_segmentation
from repro.errors import CannotCutError
from repro.sdl import RangePredicate, SDLQuery, check_partition
from repro.storage import QueryEngine, Table


def _engine(data: dict) -> QueryEngine:
    return QueryEngine(Table.from_dict(data, name="t"))


class TestCutQuery:
    def test_produces_two_pieces(self):
        engine = _engine({"x": list(range(10))})
        segmentation = cut_query(engine, SDLQuery.over(["x"]), "x")
        assert segmentation.depth == 2
        assert segmentation.cut_attributes == ("x",)

    def test_partition_is_valid(self):
        engine = _engine({"x": [5, 3, 9, 1, 7, 2, 8, 6]})
        segmentation = cut_query(engine, SDLQuery.over(["x"]), "x")
        assert check_partition(engine, segmentation).is_partition

    def test_counts_cover_the_context(self):
        engine = _engine({"x": list(range(11))})
        segmentation = cut_query(engine, SDLQuery.over(["x"]), "x")
        assert sum(segmentation.counts) == 11

    def test_roughly_equal_pieces_on_uniform_data(self):
        engine = _engine({"x": list(range(100))})
        segmentation = cut_query(engine, SDLQuery.over(["x"]), "x")
        assert abs(segmentation.counts[0] - segmentation.counts[1]) <= 1

    def test_nominal_cut(self):
        engine = _engine({"t": ["a"] * 6 + ["b"] * 3 + ["c"] * 1})
        segmentation = cut_query(engine, SDLQuery.over(["t"]), "t")
        assert segmentation.depth == 2
        assert check_partition(engine, segmentation).is_partition

    def test_cut_within_constrained_context(self):
        engine = _engine({"x": list(range(20)), "y": ["a", "b"] * 10})
        context = SDLQuery([RangePredicate("x", 0, 9), SDLQuery.over(["y"]).predicates[0]])
        segmentation = cut_query(engine, context, "x")
        assert segmentation.context_count == 10
        assert sum(segmentation.counts) == 10

    def test_uncuttable_attribute_raises(self):
        engine = _engine({"x": [1, 1, 1]})
        with pytest.raises(CannotCutError):
            cut_query(engine, SDLQuery.over(["x"]), "x")

    def test_only_attributes_with_two_values_in_the_context_cut(self):
        engine = _engine({"x": [1, 2, 3], "c": ["same"] * 3})
        context = SDLQuery.over(["x", "c"])
        assert cut_query(engine, context, "x").depth == 2
        with pytest.raises(CannotCutError):
            cut_query(engine, context, "c")


class TestCutSegmentation:
    def test_doubles_the_pieces_when_possible(self):
        engine = _engine(
            {
                "x": list(range(16)),
                "y": [i % 4 for i in range(16)],
            }
        )
        context = SDLQuery.over(["x", "y"])
        first = cut_query(engine, context, "x")
        second = cut_segmentation(engine, first, "y")
        assert second.depth == 4
        assert second.cut_attributes == ("x", "y")

    def test_result_is_still_a_partition(self):
        engine = _engine(
            {
                "x": [1, 2, 3, 4, 5, 6, 7, 8],
                "y": ["a", "a", "b", "b", "a", "b", "a", "b"],
            }
        )
        context = SDLQuery.over(["x", "y"])
        segmentation = cut_segmentation(engine, cut_query(engine, context, "x"), "y")
        assert check_partition(engine, segmentation).is_partition

    def test_uncuttable_pieces_kept_whole(self):
        # After cutting on x, the lower piece holds a single y value and
        # cannot be cut again; it must survive unchanged.
        engine = _engine(
            {
                "x": [1, 1, 1, 10, 10, 10],
                "y": ["only", "only", "only", "p", "q", "r"],
            }
        )
        context = SDLQuery.over(["x", "y"])
        first = cut_query(engine, context, "x")
        second = cut_segmentation(engine, first, "y")
        assert second.depth == 3
        assert check_partition(engine, second).is_partition

    def test_non_strict_mode_keeps_partition_when_nothing_can_be_cut(self):
        engine = _engine({"x": [1, 1, 2, 2], "y": ["a"] * 4})
        first = cut_query(engine, SDLQuery.over(["x", "y"]), "x")
        unchanged = cut_segmentation(engine, first, "y")
        assert unchanged.depth == first.depth
        assert unchanged.cut_attributes == ("x",)

    def test_repeated_cut_on_same_attribute_refines_ranges(self):
        engine = _engine({"x": list(range(32))})
        context = SDLQuery.over(["x"])
        once = cut_query(engine, context, "x")
        twice = cut_segmentation(engine, once, "x")
        assert twice.depth == 4
        assert check_partition(engine, twice).is_partition
        # Each piece must be a strictly narrower range than its parent.
        widths = []
        for segment in twice.segments:
            predicate = segment.query.predicate_for("x")
            widths.append(predicate.high - predicate.low)
        assert max(widths) < 31
