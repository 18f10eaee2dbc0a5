"""Unit tests for median-point selection (Definition 5)."""

from __future__ import annotations

import pytest

from repro.errors import CannotCutError
from repro.core.median import (
    median_split,
    nominal_split_point,
    nominal_value_order,
)
from repro.sdl import RangePredicate, SDLQuery, SetPredicate
from repro.storage import QueryEngine, Table


def _engine(data: dict) -> QueryEngine:
    return QueryEngine(Table.from_dict(data, name="t"))


class TestNominalValueOrder:
    def test_low_cardinality_sorted_by_frequency(self):
        # 11 distinct values: below the dozen, so by decreasing frequency.
        frequencies = {f"v{i:02d}": i + 1 for i in range(11)}
        assert nominal_value_order(frequencies) == [f"v{i:02d}" for i in reversed(range(11))]

    def test_high_cardinality_sorted_alphabetically(self):
        # 12 distinct values: a dozen or more, so alphabetically.
        frequencies = {f"v{i:02d}": i + 1 for i in range(12)}
        assert nominal_value_order(frequencies) == [f"v{i:02d}" for i in range(12)]

    def test_frequency_ties_broken_alphabetically(self):
        frequencies = {"b": 5, "a": 5}
        assert nominal_value_order(frequencies) == ["a", "b"]


class TestNominalSplitPoint:
    def test_balanced_two_values(self):
        assert nominal_split_point(["a", "b"], {"a": 5, "b": 5}) == 1

    def test_split_closest_to_half(self):
        # cumulative: a=0.4, a+b=0.7 -> splitting after "a" (0.4) is closest to 0.5
        assert nominal_split_point(["a", "b", "c"], {"a": 4, "b": 3, "c": 3}) == 1

    def test_split_never_empty(self):
        # Even when the first value holds most of the mass, both sides stay non-empty.
        index = nominal_split_point(["a", "b"], {"a": 99, "b": 1})
        assert index == 1


class TestNumericSplit:
    def test_split_at_median(self):
        engine = _engine({"x": [1, 2, 3, 4, 5, 6, 7, 8]})
        spec = median_split(engine, SDLQuery.over(["x"]), "x")
        assert spec.kind == "range"
        assert spec.lower == RangePredicate("x", 1, 4.5, include_high=False)
        assert spec.upper == RangePredicate("x", 4.5, 8)

    def test_pieces_are_complementary(self):
        engine = _engine({"x": [10, 20, 30, 40, 50]})
        spec = median_split(engine, SDLQuery.over(["x"]), "x")
        values = engine.table.column("x").values_list()
        lower_hits = [v for v in values if spec.lower.matches_value(v)]
        upper_hits = [v for v in values if spec.upper.matches_value(v)]
        assert sorted(lower_hits + upper_hits) == sorted(values)
        assert not set(lower_hits) & set(upper_hits)

    def test_split_within_subquery(self):
        engine = _engine({"x": [1, 2, 3, 4, 100, 200, 300, 400]})
        query = SDLQuery([RangePredicate("x", 1, 4)])
        spec = median_split(engine, query, "x")
        assert spec.upper.high == 4
        assert spec.split_point == pytest.approx(2.5)

    def test_single_value_cannot_be_cut(self):
        engine = _engine({"x": [7, 7, 7]})
        with pytest.raises(CannotCutError):
            median_split(engine, SDLQuery.over(["x"]), "x")

    def test_no_value_left_cannot_be_cut(self):
        # Rows remain, but the attribute is NULL on every one of them.
        engine = _engine({"x": [1, 2, 3, 4], "y": [None, None, 5.0, 6.0]})
        query = SDLQuery([RangePredicate("x", 1, 2)])
        with pytest.raises(CannotCutError):
            median_split(engine, query, "y")

    def test_empty_query_cannot_be_cut(self):
        engine = _engine({"x": [1, 2, 3]})
        query = SDLQuery([RangePredicate("x", 100, 200)])
        with pytest.raises(CannotCutError):
            median_split(engine, query, "x")

    def test_skewed_mass_on_minimum_shifts_split_point(self):
        # More than half the rows hold the minimum value: the paper's
        # [min, med[ piece would be empty, so the split moves up.
        engine = _engine({"x": [1, 1, 1, 1, 1, 1, 2, 3]})
        spec = median_split(engine, SDLQuery.over(["x"]), "x")
        assert spec.split_point == 2
        assert spec.lower == RangePredicate("x", 1, 2, include_high=False)

    def test_date_column_split(self):
        engine = _engine({"d": ["2020-01-01", "2020-06-01", "2021-01-01", "2021-06-01"]})
        spec = median_split(engine, SDLQuery.over(["d"]), "d")
        assert spec.kind == "range"
        assert spec.lower.low < spec.upper.high


class TestNominalSplit:
    def test_two_balanced_values(self):
        engine = _engine({"t": ["fluit"] * 5 + ["jacht"] * 5})
        spec = median_split(engine, SDLQuery.over(["t"]), "t")
        assert spec.kind == "set"
        groups = {frozenset(spec.lower.values), frozenset(spec.upper.values)}
        assert groups == {frozenset({"fluit"}), frozenset({"jacht"})}

    def test_groups_partition_all_values(self):
        engine = _engine({"t": ["a"] * 4 + ["b"] * 3 + ["c"] * 2 + ["d"]})
        spec = median_split(engine, SDLQuery.over(["t"]), "t")
        assert spec.lower.values | spec.upper.values == {"a", "b", "c", "d"}
        assert not spec.lower.values & spec.upper.values

    def test_single_value_cannot_be_cut(self):
        engine = _engine({"t": ["only"] * 5})
        with pytest.raises(CannotCutError):
            median_split(engine, SDLQuery.over(["t"]), "t")

    def test_split_respects_query_scope(self):
        engine = _engine(
            {
                "t": ["a", "a", "b", "b", "c", "c"],
                "x": [1, 1, 1, 2, 2, 2],
            }
        )
        query = SDLQuery([RangePredicate("x", 1, 1), SDLQuery.over(["t"]).predicates[0]])
        spec = median_split(engine, query, "t")
        # Only values present under the query (a, a, b) may appear.
        assert spec.lower.values | spec.upper.values == {"a", "b"}

    def test_boolean_column_uses_nominal_rule(self):
        engine = _engine({"flag": [True, True, False, False, True]})
        spec = median_split(engine, SDLQuery.over(["flag"]), "flag")
        assert spec.kind == "set"
        assert isinstance(spec.lower, SetPredicate)
