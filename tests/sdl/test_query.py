"""Unit tests for SDL queries (Definition 2)."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, SetPredicate


def _example_query() -> SDLQuery:
    return SDLQuery(
        [
            RangePredicate("date", 1550, 1650),
            NoConstraint("tonnage"),
            SetPredicate("type", frozenset({"jacht", "fluit"})),
        ]
    )


class TestConstruction:
    def test_attributes_in_order(self):
        query = _example_query()
        assert query.attributes == ("date", "tonnage", "type")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(QueryError):
            SDLQuery([NoConstraint("a"), RangePredicate("a", 1, 2)])

    def test_non_predicate_rejected(self):
        with pytest.raises(QueryError):
            SDLQuery(["not a predicate"])  # type: ignore[list-item]

    def test_over_builds_unconstrained_context(self):
        query = SDLQuery.over(["a", "b"])
        assert query.attributes == ("a", "b")
        assert query.constrained_attributes == ()

    def test_empty_query_is_allowed(self):
        query = SDLQuery()
        assert len(query) == 0
        assert query.to_sdl() == "()"


class TestAccessors:
    def test_constrained_attributes(self):
        query = _example_query()
        assert query.constrained_attributes == ("date", "type")
        assert len(query.constrained_attributes) == 2

    def test_predicate_for_missing_attribute(self):
        assert _example_query().predicate_for("missing") is None

    def test_mentions(self):
        query = _example_query()
        assert query.mentions("tonnage")
        assert not query.mentions("missing")

    def test_iteration_and_len(self):
        query = _example_query()
        assert len(query) == 3
        assert [p.attribute for p in query] == ["date", "tonnage", "type"]

    def test_to_sdl_matches_paper_syntax(self):
        query = _example_query()
        assert query.to_sdl() == (
            "(date: [1550, 1650], tonnage:, type: {'fluit', 'jacht'})"
        )


class TestRefine:
    def test_refine_new_attribute_appends(self):
        query = SDLQuery([NoConstraint("a")])
        refined = query.refine(RangePredicate("b", 1, 2))
        assert refined is not None
        assert refined.attributes == ("a", "b")

    def test_refine_existing_attribute_intersects(self):
        query = SDLQuery([RangePredicate("a", 0, 10)])
        refined = query.refine(RangePredicate("a", 5, 20))
        assert refined is not None
        assert refined.predicate_for("a") == RangePredicate("a", 5, 10)

    def test_refine_unconstrained_attribute_replaces(self):
        query = SDLQuery([NoConstraint("a")])
        refined = query.refine(RangePredicate("a", 1, 2))
        assert refined is not None
        assert refined.predicate_for("a") == RangePredicate("a", 1, 2)

    def test_refine_empty_intersection_returns_none(self):
        query = SDLQuery([RangePredicate("a", 0, 3)])
        assert query.refine(RangePredicate("a", 5, 9)) is None

    def test_refine_does_not_mutate_original(self):
        query = SDLQuery([NoConstraint("a")])
        query.refine(RangePredicate("a", 1, 2))
        assert query.predicate_for("a") == NoConstraint("a")


class TestMerge:
    def test_merge_disjoint_attributes(self):
        first = SDLQuery([RangePredicate("a", 1, 2)])
        second = SDLQuery([SetPredicate("b", frozenset({"x"}))])
        merged = first.merge(second)
        assert merged is not None
        assert set(merged.attributes) == {"a", "b"}

    def test_merge_shared_attribute_intersects(self):
        first = SDLQuery([RangePredicate("a", 1, 10)])
        second = SDLQuery([RangePredicate("a", 5, 20), NoConstraint("b")])
        merged = first.merge(second)
        assert merged is not None
        assert merged.predicate_for("a") == RangePredicate("a", 5, 10)

    def test_merge_unsatisfiable_returns_none(self):
        first = SDLQuery([RangePredicate("a", 1, 2)])
        second = SDLQuery([RangePredicate("a", 5, 9)])
        assert first.merge(second) is None


class TestProjectionAndRemoval:
    def test_without_removes_attribute(self):
        query = _example_query()
        assert query.without("tonnage").attributes == ("date", "type")


class TestRowMatching:
    def test_matches_row(self):
        query = _example_query()
        assert query.matches_row({"date": 1600, "tonnage": 99, "type": "jacht"})
        assert not query.matches_row({"date": 1700, "tonnage": 99, "type": "jacht"})
        assert not query.matches_row({"date": 1600, "tonnage": 99, "type": "galjoot"})

    def test_unconstrained_attribute_ignored(self):
        query = _example_query()
        assert query.matches_row({"date": 1600, "type": "fluit"})


class TestEqualityHash:
    def test_equality_is_order_independent(self):
        first = SDLQuery([NoConstraint("a"), RangePredicate("b", 1, 2)])
        second = SDLQuery([RangePredicate("b", 1, 2), NoConstraint("a")])
        assert first == second
        assert hash(first) == hash(second)

    def test_inequality_on_different_constraints(self):
        first = SDLQuery([RangePredicate("a", 1, 2)])
        second = SDLQuery([RangePredicate("a", 1, 3)])
        assert first != second

    def test_usable_as_dict_key(self):
        mapping = {_example_query(): "value"}
        assert mapping[_example_query()] == "value"
