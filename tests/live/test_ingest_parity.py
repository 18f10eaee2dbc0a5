"""Warm-vs-cold parity: incremental ingestion must be invisible.

The live subsystem's correctness bar: counts, medians and whole HB-cuts
advise runs on an engine that *ingested its data incrementally* (batch by
batch, with queries interleaved so caches warm up and are invalidated)
must be **bit-for-bit identical** to a cold engine built directly on the
final data — for the memory and SQLite backends, with one shard and with
forced shards.
"""

from __future__ import annotations

import pytest

from repro.api.codec import dumps
from repro.backends import open_backend
from repro.core.advisor import Charles
from repro.storage import QueryEngine
from repro.storage.expression import query_mask
from repro.storage.sql import parse_where
from repro.workloads import generate_voc

_SEED_ROWS = 120
_CONTEXT = ["tonnage", "type_of_boat", "departure_harbour"]
_QUERIES = (
    "tonnage BETWEEN 1000 AND 3000",
    "type_of_boat IN ('pinas', 'fluit')",
    "tonnage >= 2500",
)

#: The parity grid: label -> backend over a table, aggregates cached.
_GRID = {
    "memory": lambda table: open_backend("memory", table, cache_aggregates=True),
    "memory?partitions=2": lambda table: QueryEngine(
        table, cache_aggregates=True, partitions=2
    ),
    "memory?partitions=3": lambda table: QueryEngine(
        table, cache_aggregates=True, partitions=3
    ),
    "memory?index=all&partitions=4": lambda table: open_backend(
        "memory?index=all&partitions=4", table, cache_aggregates=True
    ),
    "sqlite": lambda table: open_backend("sqlite", table, cache_aggregates=True),
}


@pytest.fixture(scope="module")
def full_table():
    return generate_voc(rows=360, seed=17)


def _advice_wire(advice):
    """Canonical bytes of what the user sees (timing fields excluded)."""
    return dumps({"context": advice.context, "answers": advice.answers})


def _warm_backend(full_table, spec):
    """A backend seeded with a prefix that ingests the rest in batches,
    with queries interleaved so the caches have something to invalidate."""
    backend = _GRID[spec](full_table.slice_rows(0, _SEED_ROWS))
    probe = parse_where(_QUERIES[0])
    rows = [full_table.row(i) for i in range(_SEED_ROWS, full_table.num_rows)]
    for start in range(0, len(rows), 75):
        batch = rows[start : start + 75]
        backend.count(probe)
        backend.median("tonnage", probe)
        version_before = backend.data_version
        backend.ingest(batch)
        assert backend.data_version == version_before + 1
    return backend


@pytest.mark.parametrize("spec", list(_GRID))
class TestWarmColdParity:
    def test_counts_and_medians_are_identical(self, full_table, spec):
        warm = _warm_backend(full_table, spec)
        cold = _GRID[spec](full_table)
        assert warm.num_rows == cold.num_rows == full_table.num_rows
        for text in _QUERIES:
            query = parse_where(text)
            assert warm.count(query) == cold.count(query)
            assert warm.median("tonnage", query) == cold.median("tonnage", query)
            assert warm.minmax("tonnage", query) == cold.minmax("tonnage", query)
        assert warm.value_frequencies("type_of_boat") == (
            cold.value_frequencies("type_of_boat")
        )

    def test_advise_is_byte_identical(self, full_table, spec):
        warm = _warm_backend(full_table, spec)
        cold = _GRID[spec](full_table)
        warm_advice = Charles(warm).advise(_CONTEXT, max_answers=8)
        cold_advice = Charles(cold).advise(_CONTEXT, max_answers=8)
        assert _advice_wire(warm_advice) == _advice_wire(cold_advice)

    def test_delete_parity(self, full_table, spec):
        warm = _warm_backend(full_table, spec)
        delete = parse_where("tonnage < 1500")
        deleted = warm.delete_where(delete)
        expected_table = full_table.filter(~query_mask(full_table, delete))
        assert deleted == full_table.num_rows - expected_table.num_rows
        cold = _GRID[spec](expected_table)
        assert warm.num_rows == cold.num_rows
        for text in _QUERIES:
            query = parse_where(text)
            assert warm.count(query) == cold.count(query)
        warm_advice = Charles(warm).advise(_CONTEXT, max_answers=8)
        cold_advice = Charles(cold).advise(_CONTEXT, max_answers=8)
        assert _advice_wire(warm_advice) == _advice_wire(cold_advice)
