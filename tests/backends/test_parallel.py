"""Tests for partitioned evaluation and its registry specs."""

from __future__ import annotations

import threading

import pytest

from repro.backends import ExecutionBackend, open_backend
from repro.backends.approx import ApproxEngine
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

def _ingested(engine: QueryEngine) -> QueryEngine:
    """``engine`` after an ingest, which rebuilds its shards lazily."""
    engine.ingest([{"tonnage": 900, "type_of_boat": "fluit"}] * 50)
    return engine


#: Forced shards, however spelled: (case, build).  Every shard is scanned
#: on the calling thread.
_SHARDED_BUILDS = [
    ("spec partitions", lambda t: open_backend("memory?partitions=4", t)),
    ("zone maps on partitions", lambda t: open_backend("memory?index=zonemap&partitions=4", t)),
    ("ingest into partitions", lambda t: _ingested(open_backend("memory?partitions=3", t))),
    ("Charles partitions", lambda t: Charles(t, backend="memory?partitions=4")),
    ("service partitions", lambda t: AdvisorService(t, backend="memory?partitions=4")),
    (
        "advise on index=all&partitions=8",
        lambda t: Charles(t, backend="memory?index=all&partitions=8"),
    ),
]


class TestPartitionedEngine:
    def test_conforms_to_the_protocol(self, voc):
        engine = QueryEngine(voc, partitions=3)
        assert isinstance(engine, ExecutionBackend)

    def test_everything_matches_the_sequential_engine(self, voc):
        sequential = QueryEngine(voc, use_index=False, partitions=1)
        parallel = QueryEngine(voc, use_index=False, partitions=4)
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

    def test_sibling_shares_shards_and_cache(self, voc):
        cache = ResultCache(capacity=64)
        engine = QueryEngine(voc, partitions=3, cache=cache)
        sibling = engine.sibling()
        assert sibling.partitions == engine.partitions
        assert sibling.partitioned_table is engine.partitioned_table
        assert sibling.cache is engine.cache
        engine.count(_queries()[0])
        sibling.count(_queries()[0])
        assert sibling.counter.cache_hits == 1
        assert sibling.counter.evaluations == 0

    def test_stats_report_the_shards(self, voc):
        stats = open_backend("memory?partitions=3", voc).stats()
        assert stats["backend"] == "memory"
        assert stats["partitions"] == 3
        assert "pool" not in stats

    def test_rejects_non_positive_partitions(self, voc):
        with pytest.raises(BackendError):
            open_backend("memory?partitions=0", voc)


class TestParallelSpecs:
    def test_partitions_spec(self, voc):
        backend = open_backend("memory?partitions=4", voc)
        assert isinstance(backend, QueryEngine)
        assert backend.partitions == 4

    @pytest.mark.parametrize(
        "build",
        [case[1] for case in _SHARDED_BUILDS],
        ids=[case[0] for case in _SHARDED_BUILDS],
    )
    def test_forced_shards_start_no_thread(self, voc, build):
        before = set(threading.enumerate())
        built = build(voc)
        if isinstance(built, AdvisorService):
            built.open_session("s", context=_CONTEXT)
        elif isinstance(built, Charles):
            built.advise(_CONTEXT)
        else:
            built.count_batch(_queries())
        assert set(threading.enumerate()) - before == set()

    def test_plain_memory_is_one_shard(self, voc):
        backend = open_backend("memory", voc)
        assert backend.partitions == 1
        assert backend.partitioned_table.shards[0] is backend.table

    @pytest.mark.parametrize("spec", ["memory", "sqlite"])
    def test_a_pool_is_no_open_backend_context(self, voc, spec):
        with pytest.raises(TypeError):
            open_backend(spec, voc, pool=2)

    def test_shards_are_spelled_only_in_the_spec(self, voc):
        with pytest.raises(TypeError):
            open_backend("memory", voc, partitions=2)

    def test_composes_with_sampling(self, voc):
        # The forced shards belong to the unsampled engine the view
        # decorates (and refines on), not to the sample's.
        backend = open_backend("memory?partitions=2&sample=0.5&seed=3", voc)
        assert isinstance(backend, ApproxEngine)
        assert backend.base_engine.partitions == 2
