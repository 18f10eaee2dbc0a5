"""Unit tests for the skipping-index tier: zone maps, the one-pass set
masks of nominal columns, feature resolution and cache peeking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends import open_backend
from repro.core import Charles
from repro.errors import BackendError, StorageError, TypeMismatchError, UnknownColumnError
from repro.sdl import (
    ExclusionPredicate,
    NoConstraint,
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
from repro.storage.expression import bind, query_mask
from repro.storage.partition import PartitionedTable
from repro.storage.types import is_missing
from repro.workloads import generate_voc


def _int_column(values, name="num"):
    return build_column(name, values, DataType.INT)


def _str_column(values, name="cat"):
    return build_column(name, values, DataType.STRING)


def _bool_column(values, name="flag"):
    return build_column(name, values, DataType.BOOL)


def _skips(columns, query, partitions=2):
    """Skip verdicts over a table of ``partitions`` shards, each checked
    against a brute-force scan of the shard it skips."""
    partitioned = PartitionedTable(Table("t", columns), partitions)
    decisions = partitioned.skipping().skip_decisions(query)
    for shard, skipped in zip(partitioned.shards, decisions):
        if skipped:
            assert not query_mask(shard, query).any()
    return decisions


class TestZoneMapSkips:
    """A numeric range skips a shard whose [min, max] it misses."""

    @pytest.mark.parametrize(
        "low, high, include_low, include_high, expected",
        [
            (20, 30, True, True, [False, False]),
            (20, 30, False, True, [True, False]),
            (20, 30, True, False, [False, True]),
            (10, 40, False, False, [False, False]),
            (0, 9, True, True, [True, True]),
            (0, 10, True, False, [True, True]),
            (40, 99, False, True, [True, True]),
            (15, 17, True, True, [False, True]),  # inside [10, 20]: min/max cannot rule it out
        ],
    )
    def test_bounds_at_the_extremes(self, low, high, include_low, include_high, expected):
        column = _int_column([10, 20, 30, 40])  # shards [10, 20] and [30, 40]
        query = SDLQuery([RangePredicate("num", low, high, include_low, include_high)])
        assert _skips([column], query) == expected

    def test_an_all_missing_shard_is_skipped(self):
        column = _int_column([None, None, 1, 2])
        assert _skips([column], SDLQuery([RangePredicate("num", 0, 100)])) == [True, False]

    def test_a_date_column_takes_a_date_string_bound(self):
        column = build_column(
            "day", ["1700-01-01", "1700-06-01", "1750-01-01", "1760-01-01"], DataType.DATE
        )
        query = SDLQuery([RangePredicate("day", "1740-01-01", "1800-12-31")])
        assert _skips([column], query) == [True, False]

    def test_a_bad_bound_raises_at_bind_before_any_shard(self):
        query = SDLQuery([RangePredicate("num", "aaa", "zzz")])
        skipping = PartitionedTable(Table("t", [_int_column([1, 2, 3, 4])]), 2).skipping()
        for decide in (skipping.skip_decisions, skipping.count, skipping.query_mask):
            with pytest.raises(TypeMismatchError):
                decide(query)
        with pytest.raises(TypeMismatchError):
            skipping.count(query, zonemaps=False)

    def test_a_raising_predicate_raises_wherever_it_stands(self):
        # Binding raises before any shard is decided: an empty range
        # cannot hide a bad predicate, in either order.
        columns = [_int_column([1, 2, 3, 4]), _int_column([5, 6, 7, 8], name="other")]
        misses = RangePredicate("num", 100, 200)  # misses every shard
        assert _skips(columns, SDLQuery([misses])) == [True, True]
        skipping = PartitionedTable(Table("t", columns), 2).skipping()
        for bad, error in [
            (RangePredicate("other", "aaa", "zzz"), TypeMismatchError),
            (NoConstraint("nope"), UnknownColumnError),
        ]:
            for query in (SDLQuery([bad, misses]), SDLQuery([misses, bad])):
                with pytest.raises(error):
                    skipping.skip_decisions(query)
                with pytest.raises(error):
                    skipping.count(query)

    def test_only_numeric_ranges_skip(self):
        columns = [_str_column(["a", "a", "b", "b"]), _bool_column([True, True, False, False])]
        for predicate in (
            SetPredicate("cat", frozenset({"b"})),
            ExclusionPredicate("cat", frozenset({"a"})),
            RangePredicate("cat", "b", "c"),
            RangePredicate("flag", False, False),
        ):
            assert _skips(columns, SDLQuery([predicate])) == [False, False]


def _reference_masks(rows, literals, key):
    """Per-row ``IN`` and ``NOT IN`` answers under SQL missing-value rules."""
    wanted = {key(value) for value in literals if not is_missing(value)}
    in_set = [not is_missing(row) and key(row) in wanted for row in rows]
    excluded = [not is_missing(row) and key(row) not in wanted for row in rows]
    return np.array(in_set, dtype=bool), np.array(excluded, dtype=bool)


def _assert_set_masks(column, rows, literals, key):
    expected_in, expected_out = _reference_masks(rows, literals, key)
    query = SDLQuery([SetPredicate(column.name, frozenset(literals))])
    mask = column.mask_set(bind(query, {column.name: column.dtype}).predicates[0].values)
    assert mask.dtype == bool
    assert np.array_equal(mask, expected_in)
    assert np.array_equal(column.valid_mask() & ~mask, expected_out)


def _literal_ids(literals):
    return "|".join(sorted(map(repr, literals)))


class TestSetMasks:
    """``mask_set`` and ``valid & ~mask_set`` against a per-row reference."""

    _STRINGS = ["a", "b", None, "a", "c", "True", "1", "1.0", "", "b"]

    @pytest.mark.parametrize(
        "literals",
        [
            {"a"},
            {"b", "c"},
            {"a", None},
            {"a", float("nan")},
            {None},
            {"z"},
            {"z", "y"},
            {"a", "z"},
            {"a", "b", "c", "True", "1", "z", None},
            {True},
            {1},
            {1.0},
            {True, "1.0"},
        ],
        ids=_literal_ids,
    )
    def test_string_column(self, literals):
        column = _str_column(self._STRINGS)
        _assert_set_masks(column, self._STRINGS, literals, str)
        # A row slice shares the whole dictionary but holds only some codes.
        _assert_set_masks(column.slice_rows(2, 7), self._STRINGS[2:7], literals, str)

    @given(
        rows=st.lists(
            st.sampled_from(["a", "b", "c", "d", "e", "f", None]), min_size=10, max_size=40
        ),
        chosen=st.lists(st.booleans(), min_size=8, max_size=8),
        start=st.integers(0, 40),
    )
    def test_string_column_any_set_any_slice(self, rows, chosen, start):
        # Both kernels: up to FEW_CODES known literals compare, more gather.
        candidates = ["a", "b", "c", "d", "e", "f", "z", None]
        literals = [value for value, take in zip(candidates, chosen) if take] or [None]
        column = _str_column(rows)
        _assert_set_masks(column, rows, literals, str)
        _assert_set_masks(column.slice_rows(start, len(rows)), rows[start:], literals, str)

    def test_string_column_five_thousand_literals(self):
        rows = [None if i % 7 == 0 else f"v{i % 3000}" for i in range(6000)]
        literals = {f"v{i}" for i in range(0, 10_000, 2)}
        assert len(literals) == 5000
        _assert_set_masks(_str_column(rows), rows, literals, str)

    @pytest.mark.parametrize(
        "literals",
        [{True}, {False}, {True, False}, {None}, {True, None}, {1}, {0}],
        ids=_literal_ids,
    )
    def test_bool_column(self, literals):
        rows = [True, False, None, True, False]
        _assert_set_masks(_bool_column(rows), rows, literals, bool)


class TestFeatureResolution:
    def test_boolean_forms(self):
        assert resolve_index_features(False) == frozenset()
        assert resolve_index_features(True) == INDEX_FEATURES
        assert resolve_index_features("1") == INDEX_FEATURES
        assert INDEX_FEATURES == frozenset({"zonemap", "maskreuse"})

    def test_strings(self):
        assert resolve_index_features("none") == frozenset()
        assert resolve_index_features("off") == frozenset()
        assert resolve_index_features("zonemap,maskreuse") == frozenset(
            {"zonemap", "maskreuse"}
        )
        assert resolve_index_features("all") == INDEX_FEATURES
        assert resolve_index_features(" Zonemap , MASKREUSE ") == frozenset(
            {"zonemap", "maskreuse"}
        )

    def test_iterables_and_idempotence(self):
        features = resolve_index_features(["zonemap", "maskreuse"])
        assert features == frozenset({"zonemap", "maskreuse"})
        assert resolve_index_features(features) == features

    def test_bitmap_word_parses_and_is_ignored(self):
        assert resolve_index_features("zonemap,bitmap,maskreuse") == frozenset(
            {"zonemap", "maskreuse"}
        )
        assert resolve_index_features("bitmap") == frozenset()

    def test_unknown_feature_raises(self):
        with pytest.raises(StorageError):
            resolve_index_features("zonemaps")

    def test_backend_spec_parses_features(self, voc_table):
        engine = open_backend("memory?index=zonemap,bitmap", voc_table)
        assert engine.index_features == frozenset({"zonemap"})
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
        assert cache.peek("missing", version=1) is None
        assert cache.stats().snapshot() == before
        assert cache.peek("a", version=1) == 1  # stale probe kept the entry

    def test_peek_does_not_refresh_lru(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1, version=1)
        cache.put("b", 2, version=1)
        cache.peek("a", version=1)  # a get() here would mark "a" recently used
        cache.put("c", 3, version=1)
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_disabled_cache_peeks_none(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1, version=1)
        assert cache.peek("a", version=1) is None


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

    def test_pinned_traffic_keeps_its_skips(self):
        # Advice over a time-ordered log: cuts on the dates and on the
        # columns that follow them skip shards.  min/max kept every skip
        # the zone maps made on this traffic when they also pruned through
        # per-shard distinct sets, sets and exclusions (711, when the INDEP
        # pass scanned product cells: 342 of them in those scans).  The
        # pass now reads piece labels and scans no cell, so 411 is this
        # traffic's figure; a rule that loses one skip fails here.
        table = generate_voc(rows=4000, seed=42)
        dates = np.asarray(table.column("departure_date").values_list())
        table = table.take(np.argsort(dates, kind="stable"))
        engine = QueryEngine(table, use_index="zonemap", partitions=8)
        advisor = Charles(engine)
        contexts = [
            [RangePredicate("departure_date", 1650, 1700), NoConstraint("tonnage"),
             NoConstraint("type_of_boat")],
            [RangePredicate("built", 1700, 1779), NoConstraint("departure_harbour")],
            [SetPredicate("type_of_boat", frozenset({"fluit"})), NoConstraint("cape_arrival"),
             NoConstraint("tonnage")],
            [RangePredicate("cape_arrival", 1600, 1640, include_high=False),
             SetPredicate("departure_harbour", frozenset({"Amsterdam", "Zeeland"})),
             NoConstraint("departure_date")],
            [SetPredicate("yard", frozenset({"Amsterdam yard"})),
             RangePredicate("departure_date", 1760, 1780), NoConstraint("built")],
            [ExclusionPredicate("type_of_boat", frozenset({"fluit"})),
             NoConstraint("departure_date"), NoConstraint("yard")],
        ]
        for predicates in contexts:
            advisor.advise(SDLQuery(predicates), max_answers=5)
        assert engine.counter.snapshot()["skipped_partitions"] == 411

    def test_skipping_memo_shared_and_version_keyed(self, voc_table):
        partitioned = PartitionedTable(voc_table, 4)
        assert partitioned.skipping() is partitioned.skipping()
        engine = QueryEngine(voc_table, use_index="all", partitions=4)
        first = engine.partitioned_table.skipping()
        engine.ingest([next(iter(voc_table.iter_rows()))])
        assert engine.partitioned_table.skipping() is not first
