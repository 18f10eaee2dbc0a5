"""Tests for VersionedTable: versioning, isolation, re-sharding."""

from __future__ import annotations

import datetime as dt

import pytest

from repro.errors import SchemaError
from repro.live import VersionedTable
from repro.storage import QueryEngine, Table
from repro.storage.sql import parse_where
from repro.workloads import generate_voc


@pytest.fixture()
def table():
    return generate_voc(rows=300, seed=21)


@pytest.fixture()
def source(table):
    return VersionedTable(table)


class TestVersioning:
    def test_starts_at_version_one(self, source, table):
        assert source.version == 1
        assert source.table is table
        assert source.num_rows == table.num_rows

    def test_append_bumps_version_and_grows(self, source, table):
        version = source.append_batch([table.row(0), table.row(1)])
        assert version == 2
        assert source.version == 2
        assert source.num_rows == table.num_rows + 2

    def test_empty_append_is_a_no_op(self, source):
        assert source.append_batch([]) == 1
        assert source.version == 1

    def test_delete_bumps_version_and_shrinks(self, source, table):
        deleted, version = source.delete_where(parse_where("tonnage < 2000"))
        assert deleted > 0
        assert version == 2
        assert source.num_rows == table.num_rows - deleted

    def test_empty_delete_keeps_version(self, source):
        deleted, version = source.delete_where(parse_where("tonnage < 0"))
        assert (deleted, version) == (0, 1)

    def test_append_matches_cold_concatenation(self, source, table):
        batch = [table.row(i) for i in range(30)]
        source.append_batch(batch)
        cold = table.append_rows(batch)
        assert source.table.to_dict() == cold.to_dict()

    def test_streamed_batches_rebuild_the_table(self, table):
        source = VersionedTable(table.slice_rows(0, 100))
        for begin in range(100, table.num_rows, 64):
            end = min(begin + 64, table.num_rows)
            source.append_batch([table.row(i) for i in range(begin, end)])
        assert source.num_rows == table.num_rows
        assert source.table.to_dict() == table.to_dict()

    def test_appended_values_are_coerced(self, source):
        before = source.num_rows
        source.append_batch(
            [{"tonnage": "900", "type_of_boat": "pinas"}]
        )
        row = source.table.row(before)
        assert row["tonnage"] == 900
        assert row["master"] is None  # missing key -> missing value

    def test_date_columns_round_trip_through_append(self):
        dated = Table.from_dict(
            {"day": [dt.date(1700, 1, 1), dt.date(1700, 6, 1)], "v": [1, 2]},
            name="dated",
        )
        source = VersionedTable(dated)
        source.append_batch([{"day": "1701-05-02", "v": 3}])
        assert source.table.row(2)["day"] == dt.date(1701, 5, 2)

    def test_unknown_column_is_rejected(self, source):
        with pytest.raises(SchemaError):
            source.append_batch([{"no_such_column": 1}])
        assert source.version == 1


class TestSnapshotIsolation:
    def test_old_snapshots_are_not_mutated(self, source, table):
        old = source.table
        source.append_batch([table.row(0)])
        assert old.num_rows == table.num_rows
        assert source.table.num_rows == table.num_rows + 1


class TestLazyResharding:
    def test_shards_are_memoised_per_version(self, source):
        assert source.partitioned(4) is source.partitioned(4)

    def test_growth_reshards_lazily(self, source, table):
        before = source.partitioned(4)
        assert before.bounds[-1][1] == table.num_rows
        source.append_batch([table.row(i) for i in range(10)])
        after = source.partitioned(4)
        assert after is not before
        assert after.bounds[-1][1] == table.num_rows + 10
        # The old shard set still covers the old snapshot.
        assert before.bounds[-1][1] == table.num_rows

    def test_engines_share_reshard_through_source(self, source):
        engine = QueryEngine(source, partitions=3)
        sibling = engine.sibling()
        source.append_batch([source.table.row(0)])
        assert engine.partitioned_table is sibling.partitioned_table
        assert engine.partitioned_table.num_rows == source.num_rows
