"""Tests for the ExecutionBackend protocol and the wrapper base.

That nothing outside ``storage/`` and ``backends/`` imports a concrete
engine is ``TestLayerBoundary`` in
``tests/integration/test_source_invariants.py``.
"""

from __future__ import annotations

import pytest

from repro.backends import ApproxEngine, BackendWrapper, ExecutionBackend
from repro.core.metrics import cover
from repro.sdl import SDLQuery
from repro.backends.sqlite import SQLiteBackend
from repro.service.batching import BatchedEngine
from repro.storage import QueryEngine
from repro.workloads import generate_voc


@pytest.fixture(scope="module")
def table():
    return generate_voc(rows=600, seed=9)


class TestConformance:
    def test_query_engine_conforms(self, table):
        assert isinstance(QueryEngine(table), ExecutionBackend)

    def test_sampled_engine_conforms(self, table):
        view = ApproxEngine(QueryEngine(table), fraction=0.5, seed=1)
        assert isinstance(view, ExecutionBackend)

    def test_batched_engine_conforms(self, table):
        assert isinstance(BatchedEngine(QueryEngine(table)), ExecutionBackend)

    def test_sqlite_backend_conforms(self, table):
        assert isinstance(SQLiteBackend.from_table(table), ExecutionBackend)

    def test_schema_introspection(self, table):
        engine = QueryEngine(table)
        assert engine.name == table.name
        assert engine.num_rows == table.num_rows
        assert engine.column_names == table.column_names
        assert engine.is_numeric("tonnage")
        assert not engine.is_numeric("type_of_boat")

    def test_stats_and_counter_reset(self, table):
        engine = QueryEngine(table)
        engine.count(SDLQuery.over(["tonnage"]))
        stats = engine.stats()
        assert stats["backend"] == "memory"
        assert stats["operations"]["count_calls"] == 1
        engine.counter.reset()
        assert engine.counter.count_calls == 0


class TestBackendWrapper:
    def test_delegates_protocol_and_optional_capabilities(self, table):
        inner = QueryEngine(table)
        wrapper = BackendWrapper(inner)
        assert wrapper.num_rows == table.num_rows
        assert wrapper.column_names == table.column_names
        assert wrapper.counter is inner.counter
        # Optional capability passes through __getattr__.
        assert wrapper.table is table

    def test_every_protocol_member_is_declared_on_the_wrapper(self):
        # A member left to __getattr__ would answer from the wrapped
        # backend: an ApproxEngine would answer it unsampled.
        members = sorted(name for name in vars(ExecutionBackend) if not name.startswith("_"))
        assert "crosstab" in members
        assert [name for name in members if name not in vars(BackendWrapper)] == []

    def test_cover_through_sampling_wrappers_stays_a_fraction(self, table):
        # Regression: a cover from scaled counts over the sample's
        # num_rows used to exceed 1.
        sampled = ApproxEngine(QueryEngine(table), fraction=0.25, seed=2)
        wrapped = BatchedEngine(sampled)
        whole = SDLQuery.over(["tonnage"])
        assert cover(wrapped, whole) == pytest.approx(1.0)

    def test_sibling_of_batched_engine_shares_cache(self, table):
        primary = BatchedEngine(QueryEngine(table, cache_aggregates=True))
        session = primary.sibling()
        assert session.cache is primary.cache
        assert session.counter is not primary.counter
