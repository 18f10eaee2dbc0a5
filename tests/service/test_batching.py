"""Tests for batched engine passes, the HB-cuts INDEP pass and the coordinator."""

from __future__ import annotations

import threading

import pytest

from repro.backends import open_backend
from repro.core import HBCuts, HBCutsConfig, cut_query, product_counts
from repro.sdl import RangePredicate, SDLQuery, SetPredicate
from repro.service import BatchCoordinator, BatchedEngine
from repro.storage import DataType, QueryEngine, ResultCache, Table
from repro.workloads import generate_voc


@pytest.fixture(scope="module")
def table() -> Table:
    return generate_voc(rows=1500, seed=3)


def _context() -> SDLQuery:
    return SDLQuery.over(["type_of_boat", "departure_harbour", "tonnage", "built"])


def _shared_memory_backend(table: Table, cache: ResultCache):
    """What the service opens per table: aggregate-caching, on a shared cache."""
    return open_backend("memory", table, cache=cache, cache_aggregates=True)


def _range_queries(n: int):
    return [
        SDLQuery([RangePredicate("tonnage", 100 * i, 100 * i + 250)]) for i in range(n)
    ]


class TestCountBatch:
    def test_matches_sequential_counts(self, table):
        queries = _range_queries(8)
        sequential = QueryEngine(table)
        batched = QueryEngine(table)
        assert batched.count_batch(queries) == tuple(
            sequential.count(query) for query in queries
        )

    def test_duplicates_coalesced(self, table):
        engine = QueryEngine(table)
        query = _range_queries(1)[0]
        counts = engine.count_batch([query, query, query])
        assert counts[0] == counts[1] == counts[2]
        assert engine.counter.evaluations == 1
        assert engine.counter.cache_hits == 2
        assert engine.counter.count_calls == 3
        assert engine.counter.batch_calls == 1

    def test_aggregate_cache_round_trip(self, table):
        cache = ResultCache(capacity=512)
        first = QueryEngine(table, cache=cache, cache_aggregates=True)
        second = QueryEngine(table, cache=cache, cache_aggregates=True)
        queries = _range_queries(4)
        expected = first.count_batch(queries)
        assert second.count_batch(queries) == expected
        # The second engine never evaluated a mask: counts came from the cache.
        assert second.counter.evaluations == 0
        assert second.counter.aggregate_hits == len(queries)


class TestIndepPass:
    def test_one_crosstab_per_uncached_pair_equal_to_product_counts(self, table):
        """Each uncached pair costs one ``crosstab`` and the pass issues no
        ``count_batch``; the first iteration's tables are, pair by pair in
        candidate order, the full tables ``product_counts`` returns."""
        engine = QueryEngine(table)
        tables = []
        crosstab = engine.crosstab

        def recording(first, second):
            counts = crosstab(first, second)
            tables.append([list(row) for row in counts])
            return counts

        engine.crosstab = recording
        result = HBCuts().run(engine, _context())
        assert result.trace.iterations > 1
        assert result.trace.batched_passes == result.trace.iterations
        assert len(tables) == result.trace.pair_evaluations == engine.counter.crosstab_calls
        assert engine.counter.batch_calls == 0

        reference = QueryEngine(table)
        cuts = [cut_query(reference, _context(), a) for a in _context().attributes]
        expected = [
            product_counts(reference, first, second)
            for i, first in enumerate(cuts)
            for second in cuts[i + 1 :]
        ]
        assert tables[: len(expected)] == expected

    def test_pass_respects_reuse_ablation(self, table):
        engine = QueryEngine(table)
        result = HBCuts(HBCutsConfig(reuse_indep=False)).run(engine, _context())
        assert result.trace.pair_cache_hits == 0


class TestBatchCoordinator:
    def test_single_caller_round_trip(self, table):
        engine = QueryEngine(table)
        coordinator = BatchCoordinator(engine, window_seconds=0.0)
        queries = _range_queries(5)
        assert coordinator.counts(queries) == tuple(engine.count(q) for q in queries)
        assert coordinator.stats.passes == 1
        assert coordinator.stats.requests == 1

    def test_requests_merge_by_bound_key(self):
        # {1} and {1.0} are one literal on a number column, two on a STRING one.
        codes = Table.from_dict({"s": ["1", "1.0", "1.0"]}, types={"s": DataType.STRING})
        engine = QueryEngine(codes)
        queries = [SDLQuery([SetPredicate("s", frozenset({v}))]) for v in (1, 1.0)]
        coordinator = BatchCoordinator(engine, window_seconds=0)
        assert coordinator.counts(queries) == engine.count_batch(queries) == (1, 2)
        assert coordinator.stats.unique_queries == 2

    def test_concurrent_callers_get_correct_results(self, table):
        reference = QueryEngine(table)
        cache = ResultCache(capacity=1024)
        engine = BatchedEngine(_shared_memory_backend(table, cache))
        coordinator = BatchCoordinator(engine, window_seconds=0.005)
        queries = _range_queries(6)
        expected = tuple(reference.count(q) for q in queries)
        results = {}
        barrier = threading.Barrier(4)

        def worker(index: int) -> None:
            barrier.wait()
            results[index] = coordinator.counts(queries)

        workers = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()

        assert all(results[i] == expected for i in range(4))
        stats = coordinator.stats.snapshot()
        assert stats["requests"] == 4
        assert stats["queries"] == 4 * len(queries)
        # At least some requests were merged into a shared pass.
        assert stats["passes"] <= stats["requests"]
        assert stats["fallbacks"] == 0

    def test_batched_engine_routes_through_coordinator(self, table):
        cache = ResultCache(capacity=1024)
        primary = BatchedEngine(_shared_memory_backend(table, cache))
        coordinator = BatchCoordinator(primary, window_seconds=0.0)
        session_engine = BatchedEngine(
            _shared_memory_backend(table, cache), coordinator=coordinator
        )
        queries = _range_queries(3)
        expected = tuple(QueryEngine(table).count(q) for q in queries)
        assert session_engine.count_batch(queries) == tuple(expected)
        assert coordinator.stats.passes == 1
        # Logical accounting stays on the session engine.
        assert session_engine.counter.count_calls == 3
        assert session_engine.counter.batch_calls == 1
