"""Unit tests for the skipping-index tier: zone maps, bitmap indexes,
feature resolution and cache peeking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import open_backend
from repro.errors import BackendError, StorageError, TypeMismatchError
from repro.sdl import (
    ExclusionPredicate,
    RangePredicate,
    SDLQuery,
    SetPredicate,
)
from repro.storage import (
    DataType,
    QueryEngine,
    ResultCache,
    Table,
    build_column,
    resolve_index_features,
)
from repro.storage.engine import INDEX_FEATURES
from repro.storage.expression import query_mask
from repro.storage.index import BitmapIndex
from repro.storage.partition import PartitionedTable
from repro.storage.zonemap import ZoneMap


def _int_column(values, name="num"):
    return build_column(name, values, DataType.INT)


def _str_column(values, name="cat"):
    return build_column(name, values, DataType.STRING)


def _bool_column(values, name="flag"):
    return build_column(name, values, DataType.BOOL)


class TestZoneMapNumeric:
    def test_statistics(self):
        zone = ZoneMap(_int_column([3, None, 7, 5]))
        assert zone.rows == 4
        assert zone.null_count == 1
        assert zone.valid_rows == 3
        assert zone.low == 3.0 and zone.high == 7.0
        assert zone.distinct == frozenset({3.0, 5.0, 7.0})

    def test_range_pruning(self):
        zone = ZoneMap(_int_column([10, 20, 30]))
        assert zone.allows(RangePredicate("num", 15, 25))
        assert not zone.allows(RangePredicate("num", 40, 50))
        assert not zone.allows(RangePredicate("num", 0, 5))
        # Exclusive bounds at the extremes.
        assert zone.allows(RangePredicate("num", 30, 99))
        assert not zone.allows(RangePredicate("num", 30, 99, include_low=False))

    def test_distinct_gap_pruning(self):
        # The range [11, 19] sits inside [10, 30] but between the points.
        zone = ZoneMap(_int_column([10, 20, 30]))
        assert not zone.allows(RangePredicate("num", 11, 19))

    def test_set_pruning_respects_int_truncation(self):
        # mask_set truncates float members to the INT dtype: 10.7 -> 10.
        zone = ZoneMap(_int_column([10, 20]))
        assert zone.allows(SetPredicate("num", frozenset({10.7})))
        assert not zone.allows(SetPredicate("num", frozenset({11.7})))

    def test_exclusion_pruning(self):
        zone = ZoneMap(_int_column([10, 10, 20]))
        assert zone.allows(ExclusionPredicate("num", frozenset({10})))
        assert not zone.allows(ExclusionPredicate("num", frozenset({10, 20})))

    def test_all_missing_shard_allows_nothing(self):
        zone = ZoneMap(_int_column([None, None]))
        assert not zone.allows(RangePredicate("num", 0, 100))
        assert not zone.allows(SetPredicate("num", frozenset({1})))
        assert not zone.allows(ExclusionPredicate("num", frozenset({1})))

    def test_bad_bound_raises_like_evaluation(self):
        zone = ZoneMap(_int_column([1, 2]))
        with pytest.raises(TypeMismatchError):
            zone.allows(RangePredicate("num", "aaa", "zzz"))


class TestZoneMapNominal:
    def test_string_set_and_exclusion(self):
        zone = ZoneMap(_str_column(["a", "b", None, "b"]))
        assert zone.distinct == frozenset({"a", "b"})
        assert zone.allows(SetPredicate("cat", frozenset({"b", "z"})))
        assert not zone.allows(SetPredicate("cat", frozenset({"z"})))
        assert zone.allows(ExclusionPredicate("cat", frozenset({"a"})))
        assert not zone.allows(ExclusionPredicate("cat", frozenset({"a", "b"})))

    def test_bool_range(self):
        zone = ZoneMap(_bool_column([False, False, None]))
        assert zone.allows(RangePredicate("flag", False, False))
        assert not zone.allows(RangePredicate("flag", True, True))

    def test_missing_only_set_is_empty_everywhere(self):
        zone = ZoneMap(_str_column(["a"]))
        assert not zone.allows(SetPredicate("cat", frozenset({None})))


class TestBitmapIndex:
    def test_matches_column_mask_set(self):
        column = _str_column(["a", "b", None, "a", "c"])
        index = BitmapIndex(column)
        for values in ({"a"}, {"b", "c"}, {"z"}, {"a", None}, {None}):
            expected = column.mask_set(frozenset(values))
            assert np.array_equal(index.mask_set(frozenset(values)), expected)

    def test_matches_column_mask_exclusion(self):
        column = _str_column(["a", "b", None, "a"])
        index = BitmapIndex(column)
        for values in ({"a"}, {"a", "b"}, {"z"}):
            expected = column.valid_mask() & ~column.mask_set(frozenset(values))
            assert np.array_equal(index.mask_exclusion(frozenset(values)), expected)

    def test_repeated_lookups_do_not_corrupt_bitmaps(self):
        column = _str_column(["a", "b", "a"])
        index = BitmapIndex(column)
        first = index.mask_set(frozenset({"a"})).copy()
        index.mask_set(frozenset({"a", "b"}))
        index.mask_exclusion(frozenset({"a"}))
        assert np.array_equal(index.mask_set(frozenset({"a"})), first)


class TestFeatureResolution:
    def test_boolean_forms(self):
        assert resolve_index_features(False) == frozenset()
        assert resolve_index_features(True) == INDEX_FEATURES
        assert resolve_index_features("1") == INDEX_FEATURES
        assert INDEX_FEATURES == frozenset({"zonemap", "bitmap", "maskreuse"})

    def test_strings(self):
        assert resolve_index_features("none") == frozenset()
        assert resolve_index_features("off") == frozenset()
        assert resolve_index_features("zonemap,bitmap") == frozenset(
            {"zonemap", "bitmap"}
        )
        assert resolve_index_features("all") == INDEX_FEATURES
        assert resolve_index_features(" Zonemap , MASKREUSE ") == frozenset(
            {"zonemap", "maskreuse"}
        )

    def test_iterables_and_idempotence(self):
        features = resolve_index_features(["zonemap", "bitmap"])
        assert features == frozenset({"zonemap", "bitmap"})
        assert resolve_index_features(features) == features

    def test_unknown_feature_raises(self):
        with pytest.raises(StorageError):
            resolve_index_features("zonemaps")

    def test_backend_spec_parses_features(self, voc_table):
        engine = open_backend("memory?index=zonemap,bitmap", voc_table)
        assert engine.index_features == frozenset({"zonemap", "bitmap"})
        assert open_backend("memory?index=all", voc_table).index_features == (
            INDEX_FEATURES
        )

    def test_backend_spec_typo_raises_backend_error(self, voc_table):
        with pytest.raises(BackendError):
            open_backend("memory?index=zonemapz", voc_table)

    def test_repr_shows_features(self, voc_table):
        assert "zonemap" in repr(QueryEngine(voc_table, use_index="zonemap"))
        assert "index=off" in repr(QueryEngine(voc_table, use_index=False))


class TestCachePeek:
    def test_peek_has_no_side_effects(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1, version=1)
        before = cache.stats().snapshot()
        assert cache.peek("a", version=1) == 1
        assert cache.peek("a", version=2) is None  # stale: no drop either
        assert cache.peek("missing", version=None) is None
        assert cache.stats().snapshot() == before
        assert cache.peek("a", version=1) == 1  # stale probe kept the entry

    def test_peek_does_not_refresh_lru(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1, version=None)
        cache.put("b", 2, version=None)
        cache.peek("a", version=None)  # a get() here would mark "a" recently used
        cache.put("c", 3, version=None)
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_disabled_cache_peeks_none(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1, version=None)
        assert cache.peek("a", version=None) is None


class TestSkippingIndexes:
    def test_skip_decisions_and_masks_agree(self):
        table = Table("t", [_int_column(sorted(range(100)))])
        partitioned = PartitionedTable(table, 5)
        skipping = partitioned.skipping()
        query = SDLQuery([RangePredicate("num", 5, 15)])
        decisions = skipping.skip_decisions(query)
        assert sum(decisions) == 4  # every 20-row shard beyond [0, 20)
        mask, skipped = skipping.query_mask(query)
        assert skipped == 4
        assert np.array_equal(mask, query_mask(table, query))
        count, skipped = skipping.count(query)
        assert (count, skipped) == (11, 4)

    def test_skipping_memo_shared_and_version_keyed(self, voc_table):
        partitioned = PartitionedTable(voc_table, 4)
        assert partitioned.skipping() is partitioned.skipping()
        engine = QueryEngine(voc_table, use_index="all", partitions=4)
        first = engine.partitioned_table.skipping()
        engine.ingest([next(iter(voc_table.iter_rows()))])
        assert engine.partitioned_table.skipping() is not first
