"""Shard-skip accounting: every skipped shard is *provably* empty.

Two obligations: (a) whenever the zone maps rule a shard out, a
brute-force evaluation of the query on that shard selects zero rows —
and raises nothing, because a skip decision is only allowed when the
zone checks performed the exact encodes evaluation would; (b) the
``skipped_partitions`` counter equals the sum of the per-shard skip
decisions, so the observability surface reports real work avoided.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given

from diff_strategies import outcome, sdl_queries, small_tables
from repro.sdl import RangePredicate, SDLQuery
from repro.storage import PartitionedTable, QueryEngine, Table, build_column
from repro.storage.expression import query_mask
from repro.storage.table import DataType


@given(
    table=small_tables(),
    query=sdl_queries(),
    partitions=st.integers(min_value=2, max_value=6),
)
def test_skipped_shards_are_provably_empty(table, query, partitions):
    partitioned = PartitionedTable(table, partitions)
    decisions = partitioned.skipping().skip_decisions(query)
    assert len(decisions) == partitioned.num_partitions
    for shard, skipped in zip(partitioned.shards, decisions):
        if skipped:
            # Skips must be raise-free by construction: the zone checks
            # already performed every encode evaluation would attempt.
            mask = query_mask(shard, query)
            assert int(np.count_nonzero(mask)) == 0


@given(table=small_tables(), query=sdl_queries())
def test_skip_counter_matches_decisions(table, query):
    """On a cache-disabled partitioned count, the counter equals the tally."""
    engine = QueryEngine(table, use_index="all", partitions=4, cache_size=0)
    expected = sum(engine.partitioned_table.skipping().skip_decisions(query))
    result = outcome(engine.count, query)
    if result[0] == "error":
        return  # an erroring query aborts the walk; no accounting claim
    assert engine.counter.snapshot()["skipped_partitions"] == expected


def test_clustered_table_actually_skips():
    """Anti-vacuousness: a value-clustered table produces real skips."""
    values = sorted(range(400))
    table = Table("clustered", [build_column("num", values, DataType.INT)])
    engine = QueryEngine(table, use_index="zonemap", partitions=8, cache_size=0)
    query = SDLQuery([RangePredicate("num", 10, 30)])
    assert engine.count(query) == 21
    skipped = engine.counter.snapshot()["skipped_partitions"]
    assert skipped >= 6  # the range spans one of eight 50-row shards
    # And the plain scan agrees on the answer without skipping a shard.
    plain = QueryEngine(table, use_index="none", partitions=8, cache_size=0)
    assert plain.count(query) == 21
    assert plain.counter.snapshot()["skipped_partitions"] == 0


def test_skip_counter_survives_in_stats():
    table = Table("clustered", [build_column("num", list(range(100)), DataType.INT)])
    engine = QueryEngine(table, use_index="all", partitions=4, cache_size=0)
    engine.count(SDLQuery([RangePredicate("num", 0, 5)]))
    stats = engine.stats()
    assert stats["operations"]["skipped_partitions"] >= 1
    assert sorted(stats["index"]) == ["bitmap", "maskreuse", "zonemap"]
