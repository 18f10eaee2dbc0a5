"""Unit tests for SDL predicates (Definition 1)."""

from __future__ import annotations

import pytest

from repro.errors import PredicateError
from repro.sdl import (
    NoConstraint,
    RangePredicate,
    SetPredicate,
    intersect_predicates,
)


class TestNoConstraint:
    def test_is_unconstrained(self):
        predicate = NoConstraint("tonnage")
        assert not predicate.is_constrained

    def test_to_sdl(self):
        assert NoConstraint("tonnage").to_sdl() == "tonnage:"

    def test_matches_everything(self):
        predicate = NoConstraint("tonnage")
        assert predicate.matches_value(5)
        assert predicate.matches_value(None)
        assert predicate.matches_value("anything")

    def test_requires_attribute(self):
        with pytest.raises(PredicateError):
            NoConstraint("")

    def test_equality_and_hash(self):
        assert NoConstraint("a") == NoConstraint("a")
        assert NoConstraint("a") != NoConstraint("b")
        assert hash(NoConstraint("a")) == hash(NoConstraint("a"))


class TestRangePredicate:
    def test_closed_range_matches_bounds(self):
        predicate = RangePredicate("tonnage", 1000, 2000)
        assert predicate.matches_value(1000)
        assert predicate.matches_value(2000)
        assert predicate.matches_value(1500)
        assert not predicate.matches_value(999)
        assert not predicate.matches_value(2001)

    def test_half_open_range_excludes_high(self):
        predicate = RangePredicate("tonnage", 1000, 2000, include_high=False)
        assert predicate.matches_value(1999)
        assert not predicate.matches_value(2000)

    def test_half_open_range_excludes_low(self):
        predicate = RangePredicate("tonnage", 1000, 2000, include_low=False)
        assert not predicate.matches_value(1000)
        assert predicate.matches_value(1001)

    def test_none_never_matches(self):
        assert not RangePredicate("tonnage", 1, 2).matches_value(None)

    def test_to_sdl_brackets(self):
        closed = RangePredicate("date", 1550, 1650)
        assert closed.to_sdl() == "date: [1550, 1650]"
        half_open = RangePredicate("date", 1550, 1650, include_high=False)
        assert half_open.to_sdl() == "date: [1550, 1650["

    def test_rejects_missing_bounds(self):
        with pytest.raises(PredicateError):
            RangePredicate("tonnage", None, 5)
        with pytest.raises(PredicateError):
            RangePredicate("tonnage", 5, None)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(PredicateError):
            RangePredicate("tonnage", 10, 5)

    def test_rejects_incomparable_bounds(self):
        with pytest.raises(PredicateError):
            RangePredicate("tonnage", "a", 5)

    def test_degenerate_range(self):
        predicate = RangePredicate("tonnage", 7, 7)
        assert predicate.is_degenerate
        assert predicate.matches_value(7)
        assert not predicate.matches_value(8)

    def test_string_range_uses_lexicographic_order(self):
        predicate = RangePredicate("name", "b", "d")
        assert predicate.matches_value("c")
        assert not predicate.matches_value("a")


class TestSetPredicate:
    def test_membership(self):
        predicate = SetPredicate("type", frozenset({"jacht", "fluit"}))
        assert predicate.matches_value("jacht")
        assert not predicate.matches_value("galjoot")

    def test_rejects_empty_set(self):
        with pytest.raises(PredicateError):
            SetPredicate("type", frozenset())

    def test_to_sdl_sorted_values(self):
        predicate = SetPredicate("type", frozenset({"jacht", "fluit"}))
        assert predicate.to_sdl() == "type: {'fluit', 'jacht'}"

    def test_values_deduplicated(self):
        predicate = SetPredicate("type", ["a", "a", "b"])
        assert predicate.values == frozenset({"a", "b"})

    def test_equality_ignores_order(self):
        first = SetPredicate("type", frozenset({"a", "b"}))
        second = SetPredicate("type", frozenset({"b", "a"}))
        assert first == second
        assert hash(first) == hash(second)


class TestIntersectPredicates:
    def test_different_attributes_rejected(self):
        with pytest.raises(PredicateError):
            intersect_predicates(NoConstraint("a"), NoConstraint("b"))

    def test_no_constraint_is_identity(self):
        constrained = RangePredicate("a", 1, 5)
        assert intersect_predicates(NoConstraint("a"), constrained) == constrained
        assert intersect_predicates(constrained, NoConstraint("a")) == constrained

    def test_overlapping_ranges(self):
        first = RangePredicate("a", 1, 10)
        second = RangePredicate("a", 5, 20)
        merged = intersect_predicates(first, second)
        assert merged == RangePredicate("a", 5, 10)

    def test_disjoint_ranges_return_none(self):
        first = RangePredicate("a", 1, 3)
        second = RangePredicate("a", 5, 9)
        assert intersect_predicates(first, second) is None

    def test_touching_ranges_respect_inclusivity(self):
        first = RangePredicate("a", 1, 5, include_high=False)
        second = RangePredicate("a", 5, 9)
        assert intersect_predicates(first, second) is None
        first_closed = RangePredicate("a", 1, 5)
        merged = intersect_predicates(first_closed, second)
        assert merged == RangePredicate("a", 5, 5)

    def test_set_intersection(self):
        first = SetPredicate("a", frozenset({"x", "y"}))
        second = SetPredicate("a", frozenset({"y", "z"}))
        merged = intersect_predicates(first, second)
        assert merged == SetPredicate("a", frozenset({"y"}))

    def test_disjoint_sets_return_none(self):
        first = SetPredicate("a", frozenset({"x"}))
        second = SetPredicate("a", frozenset({"z"}))
        assert intersect_predicates(first, second) is None

    def test_range_and_set_mixed(self):
        range_predicate = RangePredicate("a", 1, 5)
        set_predicate = SetPredicate("a", frozenset({0, 2, 4, 9}))
        merged = intersect_predicates(range_predicate, set_predicate)
        assert merged == SetPredicate("a", frozenset({2, 4}))
        merged_other_order = intersect_predicates(set_predicate, range_predicate)
        assert merged_other_order == merged

    def test_range_and_set_disjoint(self):
        range_predicate = RangePredicate("a", 1, 5)
        set_predicate = SetPredicate("a", frozenset({9}))
        assert intersect_predicates(range_predicate, set_predicate) is None
