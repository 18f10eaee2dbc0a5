"""Unit tests for the query engine (counts, medians, caching, accounting)."""

from __future__ import annotations

import pytest

from repro.core.metrics import cover
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, SetPredicate
from repro.storage import QueryEngine, Table


@pytest.fixture()
def table() -> Table:
    return Table.from_dict(
        {
            "tonnage": [1000, 1100, 1200, 1300, 1400, 1500],
            "type": ["fluit", "fluit", "fluit", "jacht", "jacht", "jacht"],
            "year": [1700, 1705, 1710, 1750, 1755, 1760],
        },
        name="boats",
    )


@pytest.fixture()
def engine(table: Table) -> QueryEngine:
    return QueryEngine(table)


def _fluit_query() -> SDLQuery:
    return SDLQuery([SetPredicate("type", frozenset({"fluit"})), NoConstraint("tonnage")])


class TestEvaluationAndCounts:
    def test_count_whole_table(self, engine):
        assert engine.count(SDLQuery.over(["tonnage"])) == 6

    def test_count_with_predicate(self, engine):
        assert engine.count(_fluit_query()) == 3

    def test_cover_table_relative(self, engine):
        assert cover(engine, _fluit_query()) == pytest.approx(0.5)


class TestAggregates:
    def test_median_whole_table(self, engine):
        assert engine.median("tonnage") == pytest.approx(1250)

    def test_median_under_query(self, engine):
        assert engine.median("tonnage", _fluit_query()) == 1100

    def test_minmax(self, engine):
        assert engine.minmax("tonnage") == (1000, 1500)
        assert engine.minmax("tonnage", _fluit_query()) == (1000, 1200)

    def test_value_frequencies(self, engine):
        assert engine.value_frequencies("type") == {"fluit": 3, "jacht": 3}
        query = SDLQuery([RangePredicate("year", 1750, 1760)])
        assert engine.value_frequencies("type", query) == {"jacht": 3}

    def test_unconstrained_query_equals_no_query(self, engine):
        context = SDLQuery.over(["tonnage", "type"])
        assert engine.median("tonnage", context) == engine.median("tonnage")


class TestCaching:
    def test_cache_hits_recorded(self, engine):
        query = _fluit_query()
        engine.count(query)
        engine.count(query)
        assert engine.counter.cache_hits >= 1
        assert engine.counter.evaluations == 1

    def test_cache_disabled(self, table):
        engine = QueryEngine(table, cache_size=0)
        query = _fluit_query()
        engine.count(query)
        engine.count(query)
        assert engine.counter.cache_hits == 0
        assert engine.counter.evaluations == 2

    def test_cache_eviction(self, table):
        engine = QueryEngine(table, cache_size=2)
        for low in range(1000, 1500, 100):
            engine.count(SDLQuery([RangePredicate("tonnage", low, low + 50)]))
        assert engine.cache.stats().entries <= 2
        assert engine.cache.stats().evictions > 0

    def test_equivalent_queries_share_cache_entry(self, engine):
        first = SDLQuery([SetPredicate("type", frozenset({"fluit"})), NoConstraint("tonnage")])
        second = SDLQuery([NoConstraint("tonnage"), SetPredicate("type", frozenset({"fluit"}))])
        engine.count(first)
        before = engine.counter.evaluations
        engine.count(second)
        assert engine.counter.evaluations == before


class TestOperationCounter:
    def test_counts_each_operation_type(self, engine):
        engine.counter.reset()
        query = _fluit_query()
        engine.count(query)
        engine.median("tonnage", query)
        engine.minmax("tonnage", query)
        engine.value_frequencies("type", query)
        snapshot = engine.counter.snapshot()
        assert snapshot["count_calls"] == 1
        assert snapshot["median_calls"] == 1
        assert snapshot["minmax_calls"] == 1
        assert snapshot["frequency_calls"] == 1
        assert snapshot["total_database_operations"] == 4

    def test_reset(self, engine):
        engine.count(_fluit_query())
        engine.counter.reset()
        assert engine.counter.total_database_operations == 0


class TestSharedCache:
    def test_engines_share_masks(self, table):
        from repro.storage import ResultCache

        cache = ResultCache(capacity=32)
        first = QueryEngine(table, cache=cache)
        second = QueryEngine(table, cache=cache)
        first.count(_fluit_query())
        second.count(_fluit_query())
        assert second.counter.evaluations == 0
        assert second.counter.cache_hits == 1
        assert cache.stats().hits == 1

    def test_aggregate_caching_skips_the_mask(self, table):
        from repro.storage import ResultCache

        cache = ResultCache(capacity=32)
        first = QueryEngine(table, cache=cache, cache_aggregates=True)
        second = QueryEngine(table, cache=cache, cache_aggregates=True)
        assert first.count(_fluit_query()) == second.count(_fluit_query())
        assert first.median("tonnage", _fluit_query()) == second.median(
            "tonnage", _fluit_query()
        )
        assert second.counter.evaluations == 0
        assert second.counter.aggregate_hits == 2
        # Logical accounting is unchanged by the cache.
        assert second.counter.count_calls == 1
        assert second.counter.median_calls == 1

    def test_count_batch_matches_sequential_counts(self, engine):
        queries = [_fluit_query(), SDLQuery([RangePredicate("tonnage", 1300, 1500)])]
        assert engine.count_batch(queries) == tuple(engine.count(q) for q in queries)
        assert engine.counter.batch_calls == 1

    @pytest.mark.parametrize("first_asked", [1, 1.0])
    def test_int_and_float_literals_keep_their_own_answers(self, first_asked):
        from repro.service import AdvisorService

        def by_code(value):
            return SDLQuery([SetPredicate("code", frozenset({value}))])

        codes = Table.from_dict({"code": ["1", "1.0", "1.0", "x"]}, name="codes")
        service = AdvisorService(codes)
        service.count(by_code(first_asked))
        assert (service.count(by_code(1)), service.count(by_code(1.0))) == (1, 2)


class TestOperationCounterThreadSafety:
    def test_concurrent_adds_never_drop_counts(self):
        import threading

        from repro.storage import OperationCounter

        counter = OperationCounter()
        rounds = 2000

        def tally():
            for _ in range(rounds):
                counter.add(count_calls=1, cache_hits=2)

        threads = [threading.Thread(target=tally) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.count_calls == 8 * rounds
        assert counter.cache_hits == 16 * rounds

    def test_add_rejects_unknown_tallies(self):
        from repro.storage import OperationCounter

        with pytest.raises(AttributeError):
            OperationCounter().add(bogus=1)


class TestIndexedEngine:
    def test_indexed_median_matches_plain(self, table):
        plain = QueryEngine(table, use_index=False)
        indexed = QueryEngine(table, use_index=True)
        assert plain.median("tonnage") == indexed.median("tonnage")
        assert plain.minmax("year") == indexed.minmax("year")


class TestSample:
    """``QueryEngine.sample``: a small table of its own, never forced."""

    def test_sample_engine_is_never_forced(self, table):
        engine = QueryEngine(table, partitions=4, use_index="zonemap", cache_size=512)
        sampled = engine.sample(0.5, seed=9)
        assert sampled.partitions == 1
        assert sampled.partitioned_table.num_partitions == 1
        assert sampled.index_features != engine.index_features
        assert sampled._cache_size == 512

    def test_sample_engine_shares_neither_cache_nor_counters(self, engine):
        sampled = engine.sample(0.5, seed=9)
        assert sampled.cache is not engine.cache
        counters = engine.counter.snapshot()
        traffic = engine.cache.stats().snapshot()
        sampled.count(_fluit_query())
        sampled.median("tonnage", _fluit_query())
        assert engine.counter.snapshot() == counters
        assert engine.cache.stats().snapshot() == traffic

    def test_siblings_share_one_sampled_table_per_version(self, engine):
        first = engine.sample(0.5, seed=9)
        second = engine.sibling().sample(0.5, seed=9)
        assert second.table is first.table
        assert engine.sample(0.5, seed=10).table is not first.table
        engine.ingest([{"tonnage": 1600, "type": "jacht", "year": 1765}])
        resampled = engine.sample(0.5, seed=9)
        assert resampled.table is not first.table
        assert engine.sibling().sample(0.5, seed=9).table is resampled.table
