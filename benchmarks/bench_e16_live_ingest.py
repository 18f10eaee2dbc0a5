"""E16 — live data: ingest throughput and invalidation precision.

The live subsystem (``repro.live``) lets the advisor run over *growing*
data.  This benchmark quantifies its two performance claims:

* **ingest throughput** — appending a dataset batch-by-batch through
  :class:`~repro.live.VersionedTable` (array-level concatenation, only
  the batch is encoded) versus the naive alternative of rebuilding the
  table from all decoded rows at every batch;
* **invalidation precision** — after an ingest into one of two served
  tables, version-keyed eviction removes only the mutated table's
  superseded cache entries, while a flush-the-world strategy forces the
  untouched table's sessions to recompute everything (measured as the
  extra misses to re-warm).
"""

from __future__ import annotations

import time

import pytest
from conftest import print_table, scale

from repro.live import VersionedTable
from repro.service import AdvisorService
from repro.storage import Table
from repro.workloads import batched, generate_voc

_ROWS = scale(6000, 600)
_SEED_ROWS = _ROWS // 4
_BATCH = scale(500, 100)
_CONTEXT = ["tonnage", "type_of_boat"]


@pytest.fixture(scope="module")
def full_table():
    return generate_voc(rows=_ROWS, seed=42)


def test_e16_ingest_throughput(benchmark, full_table):
    batches = list(batched(full_table, _BATCH, start=_SEED_ROWS))
    appended = sum(len(batch) for batch in batches)

    def run_both():
        timings = {}

        source = VersionedTable(full_table.slice_rows(0, _SEED_ROWS))
        started = time.perf_counter()
        for batch in batches:
            source.append_batch(batch)
        timings["VersionedTable.append_batch"] = time.perf_counter() - started
        assert source.num_rows == full_table.num_rows

        # The naive alternative: re-materialise the table from decoded
        # rows on every batch (what a snapshot-only stack would do).
        rows = [full_table.row(i) for i in range(_SEED_ROWS)]
        started = time.perf_counter()
        rebuilt = None
        for batch in batches:
            rows.extend(batch)
            rebuilt = Table.from_rows(rows, name=full_table.name)
        timings["rebuild from rows"] = time.perf_counter() - started
        assert rebuilt is not None and rebuilt.num_rows == full_table.num_rows
        return timings

    timings = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print_table(
        f"E16 — ingesting {appended} rows in {len(batches)} batches "
        f"(seed {_SEED_ROWS} rows)",
        ["strategy", "wall time", "rows/s"],
        [
            (name, f"{seconds:.3f}s", f"{appended / seconds:,.0f}")
            for name, seconds in timings.items()
        ],
    )
    for name, seconds in timings.items():
        benchmark.extra_info[f"rows_per_s[{name}]"] = appended / seconds
    assert timings["VersionedTable.append_batch"] < timings["rebuild from rows"]


def test_e16_invalidation_precision_vs_flush(benchmark, full_table):
    other = generate_voc(rows=_ROWS // 2, seed=7)
    batch = [full_table.row(i) for i in range(50)]

    def warm_service():
        service = AdvisorService(
            {"hot": full_table, "cold": other}, batch_window=0.0
        )
        service.open_session("hot-user", table="hot", context=_CONTEXT)
        service.open_session("cold-user", table="cold", context=_CONTEXT)
        return service

    def rewarm_misses(service):
        """Misses incurred re-advising the *untouched* table's user."""
        before = service.stats()["tables"]["cold"]["result_cache"]["misses"]
        service.advise("cold-user", _CONTEXT)
        return service.stats()["tables"]["cold"]["result_cache"]["misses"] - before

    def run_both():
        precise = warm_service()
        precise.ingest(rows=batch, table="hot")
        precise_misses = rewarm_misses(precise)
        precise_survivors = precise.stats()["tables"]["cold"]["result_cache"][
            "entries"
        ]

        flush = warm_service()
        flush.ingest(rows=batch, table="hot")
        # The strawman: invalidate by flushing every cache of every table.
        for name in flush.table_names:
            stats = flush.stats()["tables"][name]
            del stats
            flush._tables[name].cache.clear()  # noqa: SLF001 - strawman only
            flush._tables[name].advice_cache.clear()
        flush_misses = rewarm_misses(flush)
        return precise_misses, precise_survivors, flush_misses

    precise_misses, precise_survivors, flush_misses = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    print_table(
        "E16 — re-warming the untouched table after an ingest elsewhere",
        ["strategy", "surviving entries", "extra misses"],
        [
            ("version-keyed eviction", precise_survivors, precise_misses),
            ("flush the world", 0, flush_misses),
        ],
    )
    benchmark.extra_info["precise_misses"] = precise_misses
    benchmark.extra_info["flush_misses"] = flush_misses
    # Precision: the untouched table keeps its cache, so re-advising it
    # costs nothing; the flush strategy pays a full recomputation.
    assert precise_misses == 0
    assert precise_survivors > 0
    assert flush_misses > precise_misses
