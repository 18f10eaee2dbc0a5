"""Tests for partitioned, pooled evaluation and its registry specs."""

from __future__ import annotations

import threading

import pytest

from repro.backends import ExecutionBackend, open_backend
from repro.backends.approx import ApproxEngine
from repro.backends.pool import ExecutorPool
from repro.core import Charles
from repro.errors import BackendError
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, SetPredicate
from repro.service import AdvisorService
from repro.storage import QueryEngine, ResultCache
from repro.workloads import generate_voc


@pytest.fixture(scope="module")
def voc():
    return generate_voc(rows=400, seed=7)


def _queries():
    return [
        SDLQuery([SetPredicate("type_of_boat", frozenset({"fluit"}))]),
        SDLQuery([RangePredicate("tonnage", 500, 2500), NoConstraint("built")]),
        SDLQuery([RangePredicate("tonnage", 500, 2500), NoConstraint("built")]),
    ]


_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]

#: Who starts threads: (case, build, pool workers; ``None``: no pool).  Only
#: ``workers`` does; a shard count alone is scanned on the calling thread.
_THREAD_RULES = [
    ("spec partitions", lambda t: open_backend("memory?partitions=4", t), None),
    ("Charles partitions", lambda t: Charles(t, backend="memory?partitions=4"), None),
    (
        "service partitions",
        lambda t: AdvisorService(t, backend="memory?partitions=4"),
        None,
    ),
    (
        "advise on index=all&partitions=8",
        lambda t: Charles(t, backend="memory?index=all&partitions=8"),
        None,
    ),
    (
        "spec partitions and workers",
        lambda t: open_backend("memory?partitions=4&workers=2", t),
        2,
    ),
]


class TestPartitionedEngine:
    def test_conforms_to_the_protocol(self, voc):
        engine = open_backend("memory?partitions=3&workers=2", voc)
        assert isinstance(engine, ExecutionBackend)

    def test_everything_matches_the_sequential_engine(self, voc):
        sequential = QueryEngine(voc, use_index=False, partitions=1)
        parallel = open_backend("memory?partitions=4&workers=2&index=none", voc)
        for query in _queries():
            assert parallel.count(query) == sequential.count(query)
            assert parallel.median("tonnage", query) == sequential.median("tonnage", query)
        assert parallel.count_batch(_queries()) == sequential.count_batch(_queries())
        assert parallel.median("tonnage") == sequential.median("tonnage")
        assert parallel.minmax("tonnage", _queries()[0]) == sequential.minmax(
            "tonnage", _queries()[0]
        )
        assert parallel.value_frequencies("type_of_boat") == (
            sequential.value_frequencies("type_of_boat")
        )
        # Operation accounting is identical to the sequential path.
        assert parallel.counter.snapshot() == sequential.counter.snapshot()

    def test_unset_partitions_follow_the_pool(self, voc):
        assert QueryEngine(voc).partitions == 1
        assert QueryEngine(voc, pool=ExecutorPool(3)).partitions == 3
        assert QueryEngine(voc, partitions=5, pool=ExecutorPool(3)).partitions == 5

    def test_shares_an_external_pool(self, voc):
        pool = ExecutorPool(2, name="shared")
        engine = QueryEngine(voc, partitions=4, pool=pool)
        assert engine.pool is pool
        engine.count(_queries()[0])
        assert pool.stats()["tasks"] > 0

    def test_sibling_shares_pool_shards_and_cache(self, voc):
        cache = ResultCache(capacity=64)
        engine = open_backend("memory?partitions=3&workers=2", voc, cache=cache)
        sibling = engine.sibling()
        assert sibling.pool is engine.pool
        assert sibling.partitions == engine.partitions
        assert sibling.partitioned_table is engine.partitioned_table
        assert sibling.cache is engine.cache
        engine.count(_queries()[0])
        sibling.count(_queries()[0])
        assert sibling.counter.cache_hits == 1
        assert sibling.counter.evaluations == 0

    def test_stats_report_the_parallel_substrate(self, voc):
        stats = open_backend("memory?partitions=3&workers=2", voc).stats()
        assert stats["backend"] == "memory"
        assert stats["partitions"] == 3
        assert stats["pool"]["workers"] == 2
        assert QueryEngine(voc).stats()["pool"] is None

    def test_rejects_non_positive_partitions(self, voc):
        with pytest.raises(BackendError):
            open_backend("memory?partitions=0", voc)


class TestParallelSpecs:
    def test_partitions_and_workers_spec(self, voc):
        backend = open_backend("memory?partitions=4&workers=2", voc)
        assert isinstance(backend, QueryEngine)
        assert backend.partitions == 4
        assert backend.pool.workers == 2

    def test_workers_alone_implies_partitions(self, voc):
        backend = open_backend("memory?workers=3", voc)
        assert backend.partitions == 3

    @pytest.mark.parametrize(
        "build,workers",
        [rule[1:] for rule in _THREAD_RULES],
        ids=[rule[0] for rule in _THREAD_RULES],
    )
    def test_only_workers_start_threads(self, voc, build, workers):
        before = set(threading.enumerate())
        built = build(voc)
        if isinstance(built, AdvisorService):
            built.open_session("s", context=_CONTEXT)
            pool = built.pool
        elif isinstance(built, Charles):
            built.advise(_CONTEXT)
            pool = built.engine.pool
        else:
            built.count_batch(_queries())
            pool = built.pool
        if workers is None:
            assert pool is None
            assert set(threading.enumerate()) <= before
        else:
            assert pool.workers == workers
            assert pool.stats()["parallel_batches"] > 0  # forced fan-out
            pool.shutdown()

    def test_plain_memory_runs_without_a_pool(self, voc):
        backend = open_backend("memory", voc)
        assert backend.pool is None
        assert backend.partitions == 1

    def test_context_parameters_from_consumers(self, voc):
        pool = ExecutorPool(2)
        backend = open_backend("memory?partitions=2", voc, pool=pool)
        assert backend.partitions == 2
        assert backend.pool is pool
        # A caller's shared pool wins over the spec's own worker count.
        assert open_backend("memory?workers=4", voc, pool=pool).pool is pool

    def test_shards_are_spelled_only_in_the_spec(self, voc):
        with pytest.raises(TypeError):
            open_backend("memory", voc, partitions=2)

    def test_composes_with_sampling(self, voc):
        # The forced shards and the pool belong to the unsampled engine
        # the view decorates (and refines on), not to the sample's.
        backend = open_backend("memory?partitions=2&workers=2&sample=0.5&seed=3", voc)
        assert isinstance(backend, ApproxEngine)
        assert backend.base_engine.partitions == 2
        assert backend.base_engine.pool.workers == 2

    def test_workers_zero_shards_to_the_per_core_pool(self, voc):
        # workers=0 means "one worker per core" everywhere; the shard
        # count must follow the resolved pool size, not the raw sentinel.
        from repro.backends.pool import resolve_workers

        backend = open_backend("memory?workers=0", voc)
        assert backend.pool.workers == resolve_workers(0)
        assert backend.partitions == resolve_workers(0)

    def test_sqlite_ignores_parallel_context(self, voc):
        pool = ExecutorPool(2)
        backend = open_backend("sqlite", voc, pool=pool)
        assert backend.count(_queries()[0]) == QueryEngine(voc).count(_queries()[0])
        assert pool.stats()["tasks"] == 0
