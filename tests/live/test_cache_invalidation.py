"""Version-keyed cache invalidation: tagged entries, surgical eviction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import QueryEngine, ResultCache
from repro.storage.sql import parse_where
from repro.workloads import generate_voc


@pytest.fixture()
def table():
    return generate_voc(rows=250, seed=5)


class TestVersionedResultCache:
    def test_version_match_hits(self):
        cache = ResultCache(capacity=8)
        cache.put("k", 1, version=3)
        assert cache.get("k", version=3) == 1

    def test_version_mismatch_misses_and_invalidate(self):
        cache = ResultCache(capacity=8)
        cache.put("k", 1, version=1)
        assert cache.get("k", version=2) is None
        stats = cache.stats()
        assert stats.entries == 0  # the stale entry was dropped on the spot
        assert stats.invalidations == 1
        assert stats.hits + stats.misses == stats.lookups

    def test_evict_superseded_is_surgical(self):
        cache = ResultCache(capacity=16)
        cache.put("old-a", 1, version=1)
        cache.put("old-b", 2, version=1)
        cache.put("current", 3, version=2)
        removed = cache.evict_superseded(2)
        assert removed == 2
        assert "old-a" not in cache and "old-b" not in cache
        assert cache.get("current", version=2) == 3
        assert cache.stats().invalidations == 2

    def test_a_reader_behind_the_data_keeps_the_newer_entry(self):
        cache = ResultCache(capacity=4)
        cache.put("k", "new", version=2)
        assert cache.get("k", version=1) is None  # a miss that drops nothing
        assert cache.stats().invalidations == 0
        assert cache.get("k", version=2) == "new"
        cache.put("k", "old", version=1)  # older than the entry: ignored
        assert cache.get("k", version=2) == "new"
        stats = cache.stats()
        assert (stats.puts, stats.hits, stats.misses) == (1, 2, 1)

    def test_get_or_compute_behind_the_data_leaves_the_newer_entry(self):
        # An ingest landed between an advise's version read and its put.
        cache = ResultCache(capacity=4)
        cache.put("k", "new", version=2)
        assert cache.get_or_compute("k", lambda: "old", version=1) == "old"
        assert cache.get("k", version=2) == "new"

    def test_get_or_compute_recomputes_for_new_version(self):
        cache = ResultCache(capacity=8)
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        assert cache.get_or_compute("k", compute, version=1) == 1
        assert cache.get_or_compute("k", compute, version=1) == 1
        assert cache.get_or_compute("k", compute, version=2) == 2

    def test_snapshot_reports_invalidations(self):
        cache = ResultCache(capacity=8)
        cache.put("k", 1, version=1)
        cache.evict_superseded(5)
        assert cache.stats().snapshot()["invalidations"] == 1


class TestEngineInvalidationPrecision:
    def test_ingest_evicts_only_superseded_entries(self, table):
        cache = ResultCache(capacity=512, name="shared")
        engine = QueryEngine(table, cache=cache, cache_aggregates=True)
        sibling = engine.sibling()

        stale_query = parse_where("tonnage BETWEEN 1000 AND 3000")
        engine.count(stale_query)
        # Entries the mutation must NOT touch: entries already recomputed
        # at the post-ingest version by a racing sibling (simulated by
        # tagging ahead).
        cache.put("ahead-probe", "keep", version=engine.data_version + 1)

        entries_before = cache.stats().entries
        engine.ingest([table.row(0), table.row(1)])

        stats = cache.stats()
        # The superseded mask + count entries are gone...
        assert stats.invalidations >= 2
        assert stats.entries < entries_before
        # ...but everything not superseded survived, for every sibling.
        assert cache.get("ahead-probe", version=sibling.data_version) == "keep"

    def test_stale_mask_never_answers_new_version(self, table):
        engine = QueryEngine(table, cache_aggregates=True)
        query = parse_where("tonnage >= 1000")
        count_before = engine.count(query)
        engine.ingest([{"tonnage": 1500, "type_of_boat": "pinas"}])
        assert engine.count(query) == count_before + 1
        assert engine.median("tonnage", query) == QueryEngine(
            engine.table
        ).median("tonnage", query)

    def test_noop_mutations_keep_the_cache_warm(self, table):
        engine = QueryEngine(table, cache_aggregates=True)
        query = parse_where("tonnage >= 1000")
        engine.count(query)
        engine.ingest([])
        assert engine.delete_where(parse_where("tonnage < 0")) == 0
        hits_before = engine.cache.stats().hits
        engine.count(query)
        assert engine.cache.stats().hits > hits_before

    def test_delete_invalidates_and_recomputes(self, table):
        engine = QueryEngine(table, cache_aggregates=True)
        query = parse_where("tonnage >= 1000")
        engine.count(query)
        deleted = engine.delete_where(parse_where("tonnage > 4000"))
        assert deleted > 0
        fresh = QueryEngine(engine.table)
        assert engine.count(query) == fresh.count(query)
        assert engine.cache.stats().invalidations > 0


class TestIndexedLiveParity:
    """Skipping indexes under mutation: no stale index can answer.

    A fully indexed, partitioned engine absorbs a random interleaving of
    ingests, predicate deletes and queries; after *every* step its
    answers are compared against a fresh unindexed engine built from its
    current snapshot.  Any zone map, bitmap or cached mask surviving a
    version bump would show up as a divergence here.
    """

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_indexed_engine_never_serves_stale_answers(self, data):
        import numpy as np

        from repro.sdl import RangePredicate, SDLQuery, SetPredicate
        from repro.storage import Table

        harbours = ["Bantam", "Surat", "Zeeland"]
        rows = [
            {"n": index if index % 7 else None, "s": harbours[index % 3]}
            for index in range(40)
        ]
        engine = QueryEngine(
            Table.from_rows(rows, name="live"), use_index="all", partitions=3
        )
        steps = data.draw(st.integers(min_value=3, max_value=8), label="steps")
        for _ in range(steps):
            op = data.draw(st.sampled_from(["ingest", "delete", "noop"]), label="op")
            if op == "ingest":
                batch = data.draw(
                    st.lists(
                        st.fixed_dictionaries(
                            {
                                "n": st.one_of(
                                    st.none(),
                                    st.integers(min_value=-5, max_value=60),
                                ),
                                "s": st.sampled_from(harbours + ["Texel"]),
                            }
                        ),
                        max_size=6,
                    ),
                    label="batch",
                )
                engine.ingest(batch)
            elif op == "delete":
                low = data.draw(st.integers(min_value=-5, max_value=60), label="low")
                span = data.draw(st.integers(min_value=0, max_value=10), label="span")
                engine.delete_where(SDLQuery([RangePredicate("n", low, low + span)]))
            low = data.draw(st.integers(min_value=-5, max_value=60), label="qlow")
            span = data.draw(st.integers(min_value=0, max_value=30), label="qspan")
            queries = [
                SDLQuery([RangePredicate("n", low, low + span)]),
                SDLQuery(
                    [
                        SetPredicate(
                            "s",
                            frozenset(
                                data.draw(
                                    st.sets(
                                        st.sampled_from(harbours + ["Texel"]),
                                        min_size=1,
                                        max_size=2,
                                    ),
                                    label="members",
                                )
                            ),
                        )
                    ]
                ),
            ]
            oracle = QueryEngine(engine.table)
            for query in queries:
                assert engine.count(query) == oracle.count(query)
                assert np.array_equal(engine.evaluate(query), oracle.evaluate(query))
            assert engine.data_version == engine.source.version
