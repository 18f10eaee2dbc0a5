"""One literal rule on every backend: a query binds to its table once.

Each row is a query and the one answer (a count) or the one error kind it
gives on the plain column store, on forced zone-map shards and on SQLite:
the INT set ``{1.5}`` is not cast to ``1``, a textual bool is a bool, a
bool on a STRING column is its text, and an empty range does not hide an
unknown column or a bad literal after it.
"""

from __future__ import annotations

import datetime as dt

import pytest

from repro.backends.sqlite import SQLiteBackend
from repro.errors import TypeMismatchError, UnknownColumnError
from repro.sdl import (
    ExclusionPredicate,
    NoConstraint,
    RangePredicate,
    SDLQuery,
    SetPredicate,
)
from repro.service import AdvisorService
from repro.storage import DataType, QueryEngine, Table

_DAY = dt.date(2020, 1, 1)

_TABLE = Table.from_dict(
    {
        "n": [1, 2, 3, None, 5],
        "b": [True, True, False, None, False],
        "s": ["True", "True", "1", "1.0", "1.0"],
        "d": [_DAY + dt.timedelta(days=i) for i in range(5)],
    },
    name="literals",
    types={"n": DataType.INT, "b": DataType.BOOL, "s": DataType.STRING},
)

_BACKENDS = {
    "memory": lambda: QueryEngine(_TABLE),
    "zonemap": lambda: QueryEngine(_TABLE, use_index="zonemap", partitions=2),
    "sqlite": lambda: SQLiteBackend.from_table(_TABLE),
}

_EMPTY = RangePredicate("n", 100, 200)

#: (query predicates, the count or the error class every backend gives)
_ROWS = [
    pytest.param([SetPredicate("n", frozenset({1.5}))], 0, id="int-set-float"),
    pytest.param([ExclusionPredicate("n", frozenset({1.5}))], 4, id="int-exclusion-float"),
    pytest.param([SetPredicate("n", frozenset({"2", 3.0}))], 2, id="int-set-text-and-float"),
    pytest.param([SetPredicate("n", frozenset({2**70}))], 0, id="int-set-past-64-bits"),
    pytest.param([SetPredicate("b", frozenset({"yes"}))], 2, id="bool-set-text"),
    pytest.param([ExclusionPredicate("b", frozenset({"no"}))], 2, id="bool-exclusion-text"),
    pytest.param([SetPredicate("b", frozenset({0}))], 2, id="bool-set-number"),
    pytest.param([SetPredicate("s", frozenset({True}))], 2, id="string-set-bool"),
    pytest.param([SetPredicate("s", frozenset({1}))], 1, id="string-set-int"),
    pytest.param([SetPredicate("s", frozenset({1.0}))], 2, id="string-set-float"),
    pytest.param([RangePredicate("d", "2020-01-02", "2020-01-03")], 2, id="date-range-text"),
    pytest.param([SetPredicate("d", frozenset({_DAY.toordinal()}))], 1, id="date-set-ordinal"),
    pytest.param([RangePredicate("n", "a", "b")], TypeMismatchError, id="int-range-text"),
    pytest.param([_EMPTY, SetPredicate("nosuch", frozenset({1}))], UnknownColumnError,
                 id="empty-range-then-unknown-column"),
    pytest.param([_EMPTY, NoConstraint("nosuch")], UnknownColumnError,
                 id="empty-range-then-unknown-context-column"),
    pytest.param([_EMPTY, SetPredicate("d", frozenset({"soon"}))], TypeMismatchError,
                 id="empty-range-then-bad-date"),
]


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
@pytest.mark.parametrize("predicates, expected", _ROWS)
def test_every_backend_gives_the_one_answer(backend, predicates, expected):
    engine = _BACKENDS[backend]()
    query = SDLQuery(predicates)
    if isinstance(expected, int):
        assert engine.count(query) == expected
        assert engine.count_batch([query, query]) == (expected, expected)
    else:
        with pytest.raises(expected):
            engine.count(query)


def test_one_shared_cache_keeps_int_and_float_literals_apart():
    # {1} and {1.0} bind to '1' and '1.0' on a STRING column: two entries.
    service = AdvisorService(_TABLE)
    counts = [
        service.count(SDLQuery([SetPredicate("s", frozenset({value}))]))
        for value in (1, 1.0, 1, 1.0)
    ]
    assert counts == [1, 2, 1, 2]


def test_advice_for_int_and_float_literals_is_cached_apart():
    codes = Table.from_dict(
        {"code": ["1"] * 40 + ["1.0"] * 60, "v": list(range(100))},
        name="codes",
        types={"code": DataType.STRING},
    )
    service = AdvisorService(codes)
    service.open_session("s")
    advice = [
        service.advise("s", SDLQuery([SetPredicate("code", frozenset({value})), NoConstraint("v")]))
        for value in (1, 1.0)
    ]
    assert advice[0] is not advice[1]
    assert [a.best().segmentation.context_count for a in advice] == [40, 60]
    assert service.stats()["tables"]["codes"]["advice_cache"]["misses"] == 2


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_an_aggregate_over_a_bad_query_raises_alike(backend):
    engine = _BACKENDS[backend]()
    bad = SDLQuery([RangePredicate("n", "a", "b")])
    # Every aggregate binds its query before it reads the attribute.
    for aggregate in (engine.median, engine.minmax, engine.value_frequencies):
        with pytest.raises(TypeMismatchError):
            aggregate("nosuch", bad)
    with pytest.raises(UnknownColumnError):
        engine.value_frequencies("nosuch", SDLQuery([RangePredicate("n", 1, 2)]))
