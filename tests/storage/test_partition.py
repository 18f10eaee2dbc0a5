"""Tests for row-range partitioning and partition-aware evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StorageError, TypeMismatchError
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, SetPredicate
from repro.storage import PartitionedTable, QueryEngine, Table
from repro.storage.partition import partition_bounds
from repro.storage.expression import query_mask
from repro.workloads import generate_voc


@pytest.fixture(scope="module")
def table():
    return generate_voc(rows=500, seed=42)


def _fluit_query():
    return SDLQuery([SetPredicate("type_of_boat", frozenset({"fluit"}))])


def _range_query():
    return SDLQuery(
        [RangePredicate("tonnage", 500, 2500), NoConstraint("departure_harbour")]
    )


class TestPartitionBounds:
    def test_even_split(self):
        assert partition_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_spreads_over_leading_partitions(self):
        assert partition_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_single_partition_covers_everything(self):
        assert partition_bounds(7, 1) == [(0, 7)]

    def test_more_partitions_than_rows_yields_empty_tails(self):
        bounds = partition_bounds(3, 5)
        assert bounds == [(0, 1), (1, 2), (2, 3), (3, 3), (3, 3)]

    def test_bounds_are_contiguous_and_complete(self):
        for rows in (0, 1, 17, 100):
            for partitions in (1, 2, 3, 7, 150):
                bounds = partition_bounds(rows, partitions)
                assert len(bounds) == partitions
                assert bounds[0][0] == 0
                assert bounds[-1][1] == rows
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start

    def test_invalid_arguments(self):
        with pytest.raises(StorageError):
            partition_bounds(10, 0)
        with pytest.raises(StorageError):
            partition_bounds(-1, 2)


class TestPartitionedTable:
    def test_single_partition_shares_the_source_table(self, table):
        partitioned = PartitionedTable(table, 1)
        assert partitioned.shards[0] is table
        assert partitioned.num_partitions == 1

    def test_shards_reassemble_the_table(self, table):
        partitioned = PartitionedTable(table, 4)
        assert sum(shard.num_rows for shard in partitioned.shards) == table.num_rows
        offset = 0
        for shard in partitioned.shards:
            assert shard.column_names == table.column_names
            if shard.num_rows:
                assert shard.row(0) == table.row(offset)
            offset += shard.num_rows

    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_masks_concatenate(self, table, partitions):
        partitioned = PartitionedTable(table, partitions)
        for query in (_fluit_query(), _range_query()):
            expected = query_mask(table, query)
            assert np.array_equal(partitioned.query_mask(query), expected)
            parts = partitioned.partition_masks(query)
            assert np.array_equal(np.concatenate(parts), expected)

    @pytest.mark.parametrize("partitions", [1, 2, 5, 16])
    def test_counts_sum(self, table, partitions):
        partitioned = PartitionedTable(table, partitions)
        for query in (_fluit_query(), _range_query()):
            assert partitioned.count(query) == int(
                np.count_nonzero(query_mask(table, query))
            )

    @pytest.mark.parametrize("partitions", [1, 2, 3, 8])
    def test_medians_merge(self, table, partitions):
        partitioned = PartitionedTable(table, partitions)
        query = _range_query()
        mask = query_mask(table, query)
        expected = table.column("tonnage").median(mask)
        assert partitioned.median("tonnage", mask) == expected

    def test_median_merges_dates(self, table, partitions=3):
        partitioned = PartitionedTable(table, partitions)
        mask = query_mask(table, _fluit_query())
        expected = table.column("departure_date").median(mask)
        assert partitioned.median("departure_date", mask) == expected

    def test_median_rejects_nominal_columns(self, table):
        partitioned = PartitionedTable(table, 2)
        mask = np.ones(table.num_rows, dtype=bool)
        with pytest.raises(TypeMismatchError):
            partitioned.median("type_of_boat", mask)

    def test_shards_are_zero_copy_views(self, table):
        partitioned = PartitionedTable(table, 4)
        for (start, stop), shard in zip(partitioned.bounds, partitioned.shards):
            if start == stop:
                continue
            for name in table.column_names:
                source = table.column(name)
                shard_data = getattr(
                    shard.column(name), "_data", None
                )
                source_data = getattr(source, "_data", None)
                if shard_data is None:  # nominal columns store codes
                    shard_data = shard.column(name)._codes
                    source_data = source._codes
                assert shard_data.base is not None
                assert np.shares_memory(shard_data, source_data[start:stop])

    def test_shards_share_the_source_dictionary(self):
        # One category per row (VOC's trip id is like this): rebuilding the
        # dictionary per shard would make "zero-copy" sharding O(rows).
        source = Table.from_dict({"id": [f"row{i}" for i in range(50)]}).column("id")
        pieces = [
            *(shard.column("id") for shard in PartitionedTable(
                Table("ids", [source]), 4
            ).shards),
            source.slice_rows(0, 0),
            source.take(np.array([3, 1, 2])),
        ]
        for piece in pieces:
            assert piece._categories is source._categories
            assert piece._index_of is source._index_of
        grown = source.append_values(["row7", "new"])
        assert grown._categories is not source._categories
        assert len(source.categories) == 50 and len(grown.categories) == 51
        assert pieces[-1].values_list() == ["row3", "row1", "row2"]

    def test_more_partitions_than_rows(self):
        tiny = Table.from_dict({"x": [1, 2, 3]}, name="tiny")
        partitioned = PartitionedTable(tiny, 7)
        query = SDLQuery([RangePredicate("x", 2, 3)])
        assert partitioned.count(query) == 2
        assert np.array_equal(
            partitioned.query_mask(query), query_mask(tiny, query)
        )
        mask = partitioned.query_mask(query)
        assert partitioned.median("x", mask) == tiny.column("x").median(mask)

    def test_custom_map_fn_receives_every_shard(self, table):
        partitioned = PartitionedTable(table, 4)
        seen = []

        def spy_map(fn, items):
            seen.extend(items)
            return [fn(item) for item in items]

        partitioned.count(_fluit_query(), spy_map)
        assert len(seen) == 4


class TestPartitionedEngine:
    """The engine path: sequential is the ``partitions=1`` special case."""

    @pytest.mark.parametrize("partitions", [2, 3, 9])
    def test_counts_and_medians_match_sequential(self, table, partitions):
        sequential = QueryEngine(table)
        partitioned = QueryEngine(table, partitions=partitions)
        for query in (_fluit_query(), _range_query()):
            assert partitioned.count(query) == sequential.count(query)
        assert partitioned.median("tonnage", _range_query()) == sequential.median(
            "tonnage", _range_query()
        )
        assert partitioned.counter.snapshot() == sequential.counter.snapshot()

    def test_partitioned_masks_land_in_the_shared_cache(self, table):
        from repro.storage import ResultCache

        cache = ResultCache(capacity=32)
        partitioned = QueryEngine(table, cache=cache, partitions=4)
        sequential = QueryEngine(table, cache=cache)
        partitioned.count(_fluit_query())
        sequential.count(_fluit_query())
        # The sequential engine answers from the partitioned engine's mask.
        assert sequential.counter.evaluations == 0
        assert sequential.counter.cache_hits == 1

    def test_uncached_fast_path_sums_partition_counts(self, table):
        uncached = QueryEngine(table, cache_size=0, partitions=4)
        baseline = QueryEngine(table, cache_size=0)
        assert uncached.count(_range_query()) == baseline.count(_range_query())
        assert uncached.counter.snapshot() == baseline.counter.snapshot()

    def test_batches_match_sequential(self, table):
        sequential = QueryEngine(table)
        partitioned = QueryEngine(table, partitions=3)
        queries = [_fluit_query(), _range_query(), _fluit_query()]
        assert partitioned.count_batch(queries) == sequential.count_batch(queries)
        assert partitioned.counter.snapshot() == sequential.counter.snapshot()

    def test_sibling_shares_shards_and_pool(self, table):
        from repro.backends.pool import ExecutorPool

        pool = ExecutorPool(2)
        engine = QueryEngine(table, partitions=4, pool=pool)
        sibling = engine.sibling()
        assert sibling.partitioned_table is engine.partitioned_table
        assert sibling.pool is engine.pool
        assert sibling.cache is engine.cache
        assert sibling.counter is not engine.counter
