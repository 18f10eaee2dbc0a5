"""Differential testing: the engine's own choice of access path is invisible.

An engine with nothing forced picks its path per query
(:meth:`QueryEngine._plan`).  Whatever it picks must be *bit-for-bit* the
engine forced plain (``use_index=False, partitions=1``): same counts,
masks, medians, frequency tables, batches and exception types, the same
operation counters (``skipped_partitions`` aside) and the same cache
statistics.  Each property runs with the reuse threshold as shipped —
Hypothesis-sized tables then stay on the small-table side of the rule —
and with it patched to 0, which sends the same tables down the
parent-reuse branch.

The second half pins the rules themselves, table-driven, by calling
``_plan`` without running a query.
"""

from __future__ import annotations

from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from diff_strategies import (
    counters_except_skips,
    drilldowns,
    equal_outcomes,
    outcome,
    sdl_queries,
    small_tables,
)
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, SetPredicate
from repro.storage import DataType, QueryEngine, Table, build_column
from repro.storage import engine as engine_module
from repro.storage.engine import REUSE_MIN_ROWS

thresholds = pytest.mark.parametrize("zeroed", [False, True], ids=["shipped", "zero"])


def _thresholds(reuse: int):
    return mock.patch.object(engine_module, "REUSE_MIN_ROWS", reuse)


def _patched(zeroed: bool):
    return _thresholds(0 if zeroed else REUSE_MIN_ROWS)


def _forced_plain(table: Table, **options) -> QueryEngine:
    return QueryEngine(table, use_index=False, partitions=1, **options)


def _trace(engine: QueryEngine, queries, pairs) -> list:
    """Everything observable about one engine over a workload."""
    trace = []
    for query in queries:
        for _ in range(2):
            trace.append(outcome(engine.count, query))
        trace.append(outcome(engine.evaluate, query))
        trace.append(outcome(engine.median, "num", query))
        trace.append(outcome(engine.minmax, "val", query))
        trace.append(outcome(engine.value_frequencies, "cat", query))
    for parent, child in pairs:
        trace.append(outcome(engine.count, parent))
        trace.append(outcome(engine.count, child))
        trace.append(outcome(engine.evaluate, child))
    trace.append(outcome(engine.count_batch, queries))
    trace.append(counters_except_skips(engine))
    trace.append(engine.cache.stats().snapshot())
    return trace


def _assert_same_trace(expected: list, actual: list, label: str) -> None:
    assert len(expected) == len(actual)
    for step, (want, got) in enumerate(zip(expected, actual)):
        if isinstance(want, tuple):
            assert equal_outcomes(want, got), (
                f"{label}: step {step} diverged: {want!r} != {got!r}"
            )
        else:
            assert want == got, f"{label}: trace tail diverged: {want!r} != {got!r}"


@thresholds
@given(
    table=small_tables(),
    queries=st.lists(sdl_queries(), min_size=1, max_size=4),
    pairs=st.lists(drilldowns(), max_size=3),
)
def test_unforced_engine_matches_forced_plain(zeroed, table, queries, pairs):
    with _patched(zeroed):
        plain = _trace(_forced_plain(table), queries, pairs)
        unforced = _trace(QueryEngine(table), queries, pairs)
        _assert_same_trace(plain, unforced, "unforced")


@thresholds
@given(table=small_tables(), queries=st.lists(sdl_queries(), min_size=1, max_size=4))
def test_unforced_uncached_counts_match_forced_plain(zeroed, table, queries):
    """``cache_size=0``: the count-without-assembling path, aggregates cached or not."""
    with _patched(zeroed):
        for aggregates in (False, True):
            plain = _forced_plain(table, cache_size=0, cache_aggregates=aggregates)
            expected = [outcome(plain.count, query) for query in queries]
            expected.append(outcome(plain.count_batch, queries))
            engine = QueryEngine(table, cache_size=0, cache_aggregates=aggregates)
            actual = [outcome(engine.count, query) for query in queries]
            actual.append(outcome(engine.count_batch, queries))
            for want, got in zip(expected, actual):
                assert equal_outcomes(want, got)
            assert counters_except_skips(plain) == counters_except_skips(engine)
            assert plain.cache.stats().snapshot() == engine.cache.stats().snapshot()


# -- the rules themselves ------------------------------------------------------


def _table(rows: int) -> Table:
    return Table(
        "plan",
        [
            build_column("num", list(range(rows)), DataType.INT),
            build_column("cat", ["a", "b"] * (rows // 2), DataType.STRING),
        ],
    )


#: The rule tests shrink the reuse threshold so that 60 rows are few and
#: 400 are many.
_RULE_THRESHOLDS = {"reuse": 300}
_SMALL = _table(60)
_LARGE = _table(400)
_PARENT = SDLQuery([RangePredicate("num", 0, 50), NoConstraint("cat")])
_CHILD = SDLQuery(
    [RangePredicate("num", 0, 50), SetPredicate("cat", frozenset({"a"}))]
)

#: (case, table, engine options, counting) -> the scan the planner picks.
_RULES = [
    ("small table: plain scan", _SMALL, {}, False, "scan"),
    (
        "cache disabled: count without assembling the mask",
        _SMALL,
        {"cache_size": 0},
        True,
        "count",
    ),
    ("cache enabled: a count still keeps its mask", _SMALL, {}, True, "scan"),
    ("forced plain", _LARGE, {"use_index": False, "partitions": 1}, False, "scan"),
    ("forced shards skip by zone maps", _SMALL, {"partitions": 4}, False, "scan+zonemap"),
    (
        "forced features are taken as given",
        _SMALL,
        {"use_index": "zonemap"},
        False,
        "scan+zonemap",
    ),
]


@pytest.mark.parametrize(
    "table,options,counting,expected",
    [rule[1:] for rule in _RULES],
    ids=[rule[0] for rule in _RULES],
)
def test_plan_rules(table, options, counting, expected):
    engine = QueryEngine(table, **options)
    with _thresholds(**_RULE_THRESHOLDS):
        path = engine._plan(_CHILD, engine._refresh(), counting=counting)
    assert path.parent is None
    assert path.scan == expected
    # Planning runs nothing and leaves no trace.
    assert engine.counter.snapshot()["total_database_operations"] == 0
    assert engine.counter.evaluations == 0
    assert engine.cache.stats().snapshot()["misses"] == 0


def test_plan_reuses_a_resident_parent():
    with _thresholds(**_RULE_THRESHOLDS):
        engine = QueryEngine(_LARGE)
        state = engine._refresh()
        assert engine._plan(_CHILD, state).parent is None
        parent_mask = engine.evaluate(_PARENT)
        path = engine._plan(_CHILD, state)
        mask, delta = path.parent
        assert np.array_equal(mask, parent_mask)
        assert delta == _CHILD.predicate_for("cat")
        reused, taken = engine._execute(path, _CHILD, state)
        assert taken == "reuse"
        assert reused.tolist() == _forced_plain(_LARGE).evaluate(_CHILD).tolist()
        # On a small table looking for the parent costs more than the scan
        # (siblings and samples of an unforced engine stay unforced)...
        small = QueryEngine(_SMALL)
        small.evaluate(_PARENT)
        for engine in (small, small.sibling()):
            assert engine._plan(_CHILD, engine._refresh()).parent is None
        assert small.sample(0.5, seed=1)._forced_features is None
        # ...unless reuse is forced; forced off or with nothing cached,
        # there is nothing to reuse at any size.
        for options, reuses in (
            ({"use_index": "maskreuse"}, True),
            ({"use_index": "bitmap"}, False),
            ({"cache_size": 0}, False),
        ):
            table = _SMALL if reuses else _LARGE
            other = QueryEngine(table, **options)
            other.evaluate(_PARENT)
            planned = other._plan(_CHILD, other._refresh()).parent
            assert (planned is not None) == reuses


def _cat(*values: str) -> SetPredicate:
    return SetPredicate("cat", frozenset(values))


#: (case, would-be parent, child): only the child with one predicate relaxed
#: to ``attr:`` is a parent, so reuse declines each resident query here.
_NOT_PARENTS = [
    (
        "a tightened set",
        SDLQuery([NoConstraint("num"), _cat("a", "b")]),
        SDLQuery([NoConstraint("num"), _cat("a")]),
    ),
    (
        "two new predicates",
        SDLQuery([NoConstraint("num"), NoConstraint("cat")]),
        SDLQuery([RangePredicate("num", 0, 50), _cat("a")]),
    ),
    (
        "a different attribute set",
        SDLQuery([NoConstraint("num")]),
        SDLQuery([RangePredicate("num", 0, 50), NoConstraint("cat")]),
    ),
    (
        "a set inside a range",
        SDLQuery([RangePredicate("num", 0, 50), NoConstraint("cat")]),
        SDLQuery([SetPredicate("num", frozenset({2, 4})), NoConstraint("cat")]),
    ),
]


@pytest.mark.parametrize(
    "parent,child",
    [case[1:] for case in _NOT_PARENTS],
    ids=[case[0] for case in _NOT_PARENTS],
)
def test_plan_declines_a_resident_non_parent(parent, child):
    with _thresholds(**_RULE_THRESHOLDS):
        engine = QueryEngine(_LARGE)
        state = engine._refresh()
        engine.evaluate(parent)
        assert engine.cache.peek("mask:" + parent.key, version=state.version) is not None
        assert engine._plan(child, state).parent is None
        expected = _forced_plain(_LARGE).evaluate(child)
        assert engine.evaluate(child).tolist() == expected.tolist()


#: (rows, forced shards) -> (shards, zone maps): one shard, the table
#: itself, at every size unless ``partitions`` forces more; zone maps only
#: when shards are forced.
_SHARD_RULES = [
    (60, None, 1, False),
    (198, None, 1, False),
    (200, None, 1, False),
    (400, None, 1, False),
    (1_000, None, 1, False),
    (400, 4, 4, True),
    (1_000, 4, 4, True),
    (60, 4, 4, True),
    (400, 1, 1, False),
]


@pytest.mark.parametrize(
    "rows,forced,shards,zonemaps",
    _SHARD_RULES,
    ids=[f"{rule[0]} rows, forced {rule[1]}" for rule in _SHARD_RULES],
)
def test_one_shard_unless_forced(rows, forced, shards, zonemaps):
    table = _table(rows)
    engine = QueryEngine(table, partitions=forced)
    state = engine._refresh()
    path = engine._plan(_CHILD, state)
    assert engine.partitions == state.partitioned.num_partitions == shards
    assert engine.sibling()._refresh() is state
    assert ("zonemap" in engine.index_features) == path.zonemap == zonemaps
    if shards == 1:
        assert state.partitioned.shards[0] is state.table


def test_shards_follow_an_ingest():
    for forced, shards in ((None, 1), (2, 2)):
        engine = QueryEngine(_table(150), partitions=forced)
        sibling = engine.sibling()
        before = engine._refresh()
        engine.ingest([{"num": 1, "cat": "a"}] * 100)
        state = engine._refresh()
        assert state is sibling._refresh() and state is not before
        assert sibling.partitions == shards
        assert state.partitioned.num_rows == 250
        assert engine.count(_CHILD) == _forced_plain(engine.table).count(_CHILD)
