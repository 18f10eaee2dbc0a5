"""Differential testing: the engine's own choice of access path is invisible.

An engine with nothing forced picks its path per query
(:meth:`QueryEngine._plan`).  Whatever it picks must be *bit-for-bit* the
engine forced plain (``use_index=False, partitions=1``): same counts,
masks, medians, frequency tables, batches and exception types, the same
operation counters (``skipped_partitions`` aside) and the same cache
statistics.  Each property runs with the module thresholds as shipped —
Hypothesis-sized tables then stay on the small-table side of every rule —
and with them patched to 0, which sends the same tables down the
parent-reuse and fan-out branches.

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
from repro.backends.pool import ExecutorPool
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, SetPredicate
from repro.storage import DataType, QueryEngine, Table, build_column
from repro.storage import engine as engine_module
from repro.storage.engine import FANOUT_MIN_ROWS_PER_SHARD, REUSE_MIN_ROWS

#: Shared by every example (pools are shared by design).
_POOL = ExecutorPool(3, name="planner-tests")

#: Nothing forced, without and with a pool (the pool also sets the shard
#: count, so the second one plans zone maps and — patched — fan-out).
_UNFORCED = ({}, {"pool": _POOL})

thresholds = pytest.mark.parametrize("zeroed", [False, True], ids=["shipped", "zero"])


def _thresholds(fanout: int, reuse: int):
    return mock.patch.multiple(
        engine_module, FANOUT_MIN_ROWS_PER_SHARD=fanout, REUSE_MIN_ROWS=reuse
    )


def _patched(zeroed: bool):
    if zeroed:
        return _thresholds(0, 0)
    return _thresholds(FANOUT_MIN_ROWS_PER_SHARD, REUSE_MIN_ROWS)


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
        for options in _UNFORCED:
            unforced = _trace(QueryEngine(table, **options), queries, pairs)
            _assert_same_trace(plain, unforced, f"unforced {sorted(options)}")


@thresholds
@given(table=small_tables(), queries=st.lists(sdl_queries(), min_size=1, max_size=4))
def test_unforced_uncached_counts_match_forced_plain(zeroed, table, queries):
    """``cache_size=0``: the count-without-assembling path, aggregates cached or not."""
    with _patched(zeroed):
        for aggregates in (False, True):
            plain = _forced_plain(table, cache_size=0, cache_aggregates=aggregates)
            expected = [outcome(plain.count, query) for query in queries]
            expected.append(outcome(plain.count_batch, queries))
            for options in _UNFORCED:
                engine = QueryEngine(
                    table, cache_size=0, cache_aggregates=aggregates, **options
                )
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


#: The rule tests shrink the thresholds so that 60 rows are few and 400
#: are many: per shard for fan-out, in all for parent reuse.
_RULE_THRESHOLDS = {"fanout": 100, "reuse": 300}
_SMALL = _table(60)
_LARGE = _table(400)
_TWO_WORKERS = ExecutorPool(2, name="planner-rules")
_PARENT = SDLQuery([RangePredicate("num", 0, 50), NoConstraint("cat")])
_CHILD = SDLQuery(
    [RangePredicate("num", 0, 50), SetPredicate("cat", frozenset({"a"}))]
)

#: (case, table, engine options, counting) -> the scan the planner picks.
_RULES = [
    ("small table, no pool: plain scan, inline", _SMALL, {}, False, "scan"),
    ("one shard: no zone maps", _LARGE, {}, False, "scan"),
    (
        "small shards with a pool: skip, but map inline",
        _SMALL,
        {"pool": _TWO_WORKERS},
        False,
        "scan+zonemap",
    ),
    (
        "many rows with a pool: skip and fan out",
        _LARGE,
        {"pool": _TWO_WORKERS},
        False,
        "scan+zonemap+fanout",
    ),
    (
        "a one-worker pool never fans out",
        _LARGE,
        {"pool": ExecutorPool(1)},
        False,
        "scan",
    ),
    (
        "cache disabled: count without assembling the mask",
        _SMALL,
        {"cache_size": 0},
        True,
        "count",
    ),
    ("cache enabled: a count still keeps its mask", _SMALL, {}, True, "scan"),
    (
        "forced plain",
        _LARGE,
        {"use_index": False, "partitions": 1, "pool": _TWO_WORKERS},
        False,
        "scan+fanout",
    ),
    (
        "forced shards always go through the pool",
        _SMALL,
        {"partitions": 4, "pool": _TWO_WORKERS},
        False,
        "scan+zonemap+fanout",
    ),
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


def test_unset_shard_count_follows_the_pool():
    assert QueryEngine(_SMALL).partitions == 1
    assert QueryEngine(_SMALL, pool=_TWO_WORKERS).partitions == 2
    assert QueryEngine(_SMALL, pool=_TWO_WORKERS).sibling().partitions == 2
