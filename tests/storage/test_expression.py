"""Unit tests for binding queries to a schema and evaluating them into masks."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from repro.errors import TypeMismatchError, UnknownColumnError
from repro.sdl import (
    ExclusionPredicate,
    NoConstraint,
    RangePredicate,
    SDLQuery,
    SetPredicate,
)
from repro.storage import DataType, Table
from repro.storage.expression import bind, predicate_mask, query_mask

_SCHEMA = {
    "n": DataType.INT,
    "x": DataType.FLOAT,
    "d": DataType.DATE,
    "s": DataType.STRING,
    "b": DataType.BOOL,
    "e": DataType.FLOAT,
}

_DAY = dt.date(2020, 1, 2)


def _bound_set(attribute, *values):
    query = SDLQuery([SetPredicate(attribute, frozenset(values))])
    return bind(query, _SCHEMA).predicates[0].values


class TestBind:
    """One literal rule per column type, and every error raised at bind."""

    @pytest.mark.parametrize("attribute, literals, bound", [
        pytest.param("n", (1, 1.5, True, "2"), {1, 1.5, 2.0}, id="int-plain-numbers"),
        pytest.param("n", (np.float64(2.5),), {np.float64(2.5)}, id="int-numpy-float"),
        pytest.param("x", (0.25, "3e2", False), {0.25, 300.0, 0}, id="float"),
        pytest.param("d", (_DAY, "2020-01-02", _DAY.toordinal()), {_DAY.toordinal()}, id="date"),
        pytest.param("s", (2, 1.5, True, "a"), {"2", "1.5", "True", "a"}, id="string"),
        pytest.param("b", ("yes", 0, "false"), {True, False}, id="bool"),
        pytest.param("s", ("a", None, float("nan"), ""), {"a", None}, id="missing-drops"),
    ])
    def test_set_literals_take_the_column_type(self, attribute, literals, bound):
        values = _bound_set(attribute, *literals)
        assert values == bound
        assert {type(v) for v in values} == {type(v) for v in bound}

    @pytest.mark.parametrize("attribute, low, high, bound", [
        pytest.param("n", "1", "2.5", (1.0, 2.5), id="numeric"),
        pytest.param("d", "2020-01-02", "2020/01/02", (_DAY.toordinal(),) * 2, id="date"),
        pytest.param("s", "", "m", ("", "m"), id="string-bounds-are-text"),
        pytest.param("b", "no", "yes", (False, True), id="bool"),
    ])
    def test_range_bounds_take_the_column_type(self, attribute, low, high, bound):
        query = SDLQuery([RangePredicate(attribute, low, high, include_high=False)])
        predicate = bind(query, _SCHEMA).predicates[0]
        assert (predicate.low, predicate.high) == bound
        assert (predicate.include_low, predicate.include_high) == (True, False)

    @pytest.mark.parametrize("predicate, error", [
        pytest.param(NoConstraint("nosuch"), UnknownColumnError, id="unknown-column"),
        pytest.param(RangePredicate("n", "a", "b"), TypeMismatchError, id="non-numeric-bound"),
        pytest.param(RangePredicate("x", "", "1"), TypeMismatchError, id="missing-bound"),
        pytest.param(SetPredicate("d", frozenset({"soon"})), TypeMismatchError, id="bad-date"),
        pytest.param(SetPredicate("d", frozenset({1.5})), TypeMismatchError, id="float-date"),
        pytest.param(SetPredicate("b", frozenset({"maybe"})), TypeMismatchError, id="bad-bool"),
        pytest.param(ExclusionPredicate("n", frozenset({"x"})), TypeMismatchError, id="bad-number"),
    ])
    def test_errors_are_raised_wherever_the_predicate_stands(self, predicate, error):
        empty = RangePredicate("e", 100, 200)
        for query in (SDLQuery([predicate, empty]), SDLQuery([empty, predicate])):
            with pytest.raises(error):
                bind(query, _SCHEMA)

    def test_bounds_that_invert_once_typed_bind_to_an_empty_range(self):
        table = Table.from_dict({"s": ["1", "5", "9", "10"]}, types={"s": DataType.STRING})
        for low, high in [(9, 10), (2, 10)]:
            query = SDLQuery([RangePredicate("s", low, high)])
            predicate = bind(query, table.schema()).predicates[0]
            assert (predicate.low, predicate.high) == (str(low), str(low))
            assert not (predicate.include_low or predicate.include_high)
            assert query_mask(table, query).sum() == 0

    def test_canonical_literals_bind_to_themselves(self):
        query = SDLQuery([
            RangePredicate("n", 1, 2.5),
            SetPredicate("s", frozenset({"a", "b"})),
            ExclusionPredicate("b", frozenset({True})),
            RangePredicate("d", 737000, 737100),
            NoConstraint("x"),
        ])
        assert bind(query, _SCHEMA) is query

    def test_binding_is_idempotent_and_kept_on_the_predicate(self):
        predicate = SetPredicate("s", frozenset({1, 2.0}))
        bound = bind(SDLQuery([predicate]), _SCHEMA)
        assert bound.key == "s: {'1', '2.0'}"
        assert bind(bound, _SCHEMA) is bound
        assert bind(SDLQuery([predicate]), _SCHEMA).predicates[0] is bound.predicates[0]
        query = SDLQuery([predicate])
        assert bind(query, _SCHEMA) is bind(query, _SCHEMA)
        assert bind(query, dict(_SCHEMA)) == bind(query, _SCHEMA)  # another schema object

    def test_the_kept_binding_follows_the_schema(self):
        predicate = SetPredicate("v", frozenset({1.0}))
        query = SDLQuery([predicate])
        as_text = bind(query, {"v": DataType.STRING})
        assert bind(query, {"v": DataType.INT}) is query
        assert as_text.key == "v: {'1.0'}"
        assert bind(SDLQuery([predicate]), {"v": DataType.STRING}).key == as_text.key


@pytest.fixture()
def table() -> Table:
    return Table.from_dict(
        {
            "tonnage": [1000, 1100, 1200, 1300, None],
            "type": ["fluit", "jacht", "fluit", "galjoot", "fluit"],
        },
        name="boats",
    )


class TestPredicateMask:
    def test_no_constraint_selects_all(self, table):
        mask = predicate_mask(table, NoConstraint("tonnage"))
        assert mask.tolist() == [True] * 5

    def test_no_constraint_unknown_column(self, table):
        with pytest.raises(UnknownColumnError):
            predicate_mask(table, NoConstraint("missing"))

    def test_range_predicate(self, table):
        mask = predicate_mask(table, RangePredicate("tonnage", 1100, 1200))
        assert mask.tolist() == [False, True, True, False, False]

    def test_half_open_range_predicate(self, table):
        mask = predicate_mask(
            table, RangePredicate("tonnage", 1000, 1200, include_high=False)
        )
        assert mask.tolist() == [True, True, False, False, False]

    def test_set_predicate(self, table):
        mask = predicate_mask(table, SetPredicate("type", frozenset({"fluit"})))
        assert mask.tolist() == [True, False, True, False, True]

    def test_missing_values_never_match(self, table):
        mask = predicate_mask(table, RangePredicate("tonnage", 0, 10_000))
        assert mask.tolist()[-1] is False or mask.tolist()[-1] == False  # noqa: E712


class TestQueryMask:
    def test_conjunction(self, table):
        query = SDLQuery(
            [
                RangePredicate("tonnage", 1000, 1200),
                SetPredicate("type", frozenset({"fluit"})),
            ]
        )
        mask = query_mask(table, query)
        assert mask.tolist() == [True, False, True, False, False]

    def test_unconstrained_query_selects_all(self, table):
        query = SDLQuery.over(["tonnage", "type"])
        assert query_mask(table, query).sum() == 5

    def test_empty_query_selects_all(self, table):
        assert query_mask(table, SDLQuery()).sum() == 5

    def test_unconstrained_attribute_must_exist(self, table):
        query = SDLQuery([NoConstraint("missing")])
        with pytest.raises(UnknownColumnError):
            query_mask(table, query)

    def test_unsatisfiable_conjunction_is_empty(self, table):
        query = SDLQuery(
            [
                RangePredicate("tonnage", 1000, 1000),
                SetPredicate("type", frozenset({"jacht"})),
            ]
        )
        assert query_mask(table, query).sum() == 0

    def test_matches_row_and_mask_agree(self, table):
        query = SDLQuery(
            [
                RangePredicate("tonnage", 1050, 1300),
                SetPredicate("type", frozenset({"jacht", "galjoot"})),
            ]
        )
        mask = query_mask(table, query)
        for index, row in enumerate(table.iter_rows()):
            assert bool(mask[index]) == query.matches_row(row)
