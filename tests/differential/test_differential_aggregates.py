"""Differential testing: skipping indexes are observationally invisible.

Every engine configuration — zone maps, bitmap indexes, mask reuse, any
partition count — must produce *bit-for-bit* the answers of the plain
unindexed engine: same counts, same selection vectors, same medians and
frequency tables, same exception types on malformed queries, and the
same operation counters and cache traffic (the only permitted divergence
is the purely observational ``skipped_partitions`` tally, proven sound
separately in ``test_shard_skip_accounting.py``).
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given

from diff_strategies import (
    counters_except_skips,
    drilldowns,
    equal_outcomes,
    outcome,
    sdl_queries,
    small_tables,
)
from repro.storage import QueryEngine

#: (index features, partitions) grid compared against the plain baseline.
#: ``partitions=9`` intentionally exceeds many generated row counts so the
#: empty-shard edge stays covered.
CONFIGS = (
    ("all", 1),
    ("zonemap,bitmap", 4),
    ("all", 4),
    ("all", 9),
)


def _run_workload(engine: QueryEngine, queries) -> list:
    """One engine's observable trace over a query workload.

    Each query runs twice (the repeat exercises the mask cache) and
    contributes its count, selection vector, a numeric median and a
    nominal frequency table; the trace ends with the engine's counter
    snapshot and cache statistics so any divergence in *how* the answers
    were produced fails the comparison too.
    """
    trace = []
    for query in queries:
        for _ in range(2):
            trace.append(outcome(engine.count, query))
        trace.append(outcome(engine.evaluate, query))
        trace.append(outcome(engine.median, "num", query))
        trace.append(outcome(engine.value_frequencies, "cat", query))
    trace.append(counters_except_skips(engine))
    trace.append(engine.cache.stats().snapshot())
    return trace


@given(table=small_tables(), queries=st.lists(sdl_queries(), min_size=1, max_size=5))
def test_indexed_engines_match_plain(table, queries):
    plain = _run_workload(QueryEngine(table), queries)
    for features, partitions in CONFIGS:
        indexed = _run_workload(
            QueryEngine(table, use_index=features, partitions=partitions), queries
        )
        assert len(plain) == len(indexed)
        for step, (expected, actual) in enumerate(zip(plain, indexed)):
            if isinstance(expected, tuple):
                assert equal_outcomes(expected, actual), (
                    f"config index={features!r} partitions={partitions}: "
                    f"step {step} diverged: {expected!r} != {actual!r}"
                )
            else:
                assert expected == actual, (
                    f"config index={features!r} partitions={partitions}: "
                    f"trace tail diverged: {expected!r} != {actual!r}"
                )


@given(table=small_tables(), pairs=st.lists(drilldowns(), min_size=1, max_size=4))
def test_mask_reuse_is_invisible(table, pairs):
    """Drill-downs answer exactly like the plain engine.

    The two runs are call-for-call identical — including the evaluation
    counters and cache hit/miss traffic, which mask reuse is required to
    leave untouched.
    """
    plain = QueryEngine(table)
    reuse = QueryEngine(table, use_index="maskreuse")
    for parent, child in pairs:
        results = []
        for engine in (plain, reuse):
            step = [outcome(engine.count, parent)]
            step.append(outcome(engine.count, child))
            step.append(outcome(engine.evaluate, child))
            results.append(step)
        for expected, actual in zip(*results):
            assert equal_outcomes(expected, actual), (
                f"mask reuse diverged on parent={parent.to_sdl()!r} "
                f"child={child.to_sdl()!r}: {expected!r} != {actual!r}"
            )
    assert counters_except_skips(plain) == counters_except_skips(reuse)
    assert plain.cache.stats().snapshot() == reuse.cache.stats().snapshot()


@given(table=small_tables(), queries=st.lists(sdl_queries(), min_size=1, max_size=4))
def test_batches_match_plain(table, queries):
    """The deduplicated batch entry points agree under every index tier."""
    plain = QueryEngine(table)
    expected = outcome(plain.count_batch, queries)
    for features, partitions in CONFIGS:
        engine = QueryEngine(table, use_index=features, partitions=partitions)
        assert equal_outcomes(expected, outcome(engine.count_batch, queries))
        assert counters_except_skips(plain) == counters_except_skips(engine)
