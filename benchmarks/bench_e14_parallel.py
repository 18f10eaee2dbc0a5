"""E14 — partitioned parallel execution on the scalability workloads.

The paper (Section 5.1) reduces all of Charles' database work to counts
and medians over predicates — an embarrassingly scannable workload.  This
benchmark measures how far the partitioned execution substrate
(:class:`~repro.storage.partition.PartitionedTable` +
:class:`~repro.backends.pool.ExecutorPool`, driven by the partition-aware
:class:`~repro.storage.engine.QueryEngine`) pushes that observation on the
vertical scalability axis the paper names.  Every spec below *forces* its
shard count (``partitions=N``), so the engine fans out at every size —
left to itself it would map these shards inline (see
``FANOUT_MIN_ROWS_PER_SHARD``):

* **vertical (E6)** — raw count throughput (counts/s) on the large VOC
  table as the worker/partition count grows, with caching disabled so
  every count is a genuine scan (the per-partition "counts sum" path);
* **end-to-end** — whole ``advise`` latency on the same dataset per
  worker count, asserting the ranked answers are bit-for-bit identical.

Wall-clock speedups only materialise with real cores; the >1.5× assertion
is therefore guarded to measurement runs (not ``--smoke``) on machines
with at least 4 CPUs — CI-class hardware.  The parity assertions run
everywhere, at every scale.
"""

from __future__ import annotations

import os
import time

import pytest
from conftest import is_smoke, print_table, scale

from repro.backends import open_backend
from repro.core import Charles
from repro.sdl import NoConstraint, RangePredicate, SDLQuery
from repro.workloads import generate_voc

_WORKER_COUNTS = (1, 2, 4)
_E6_ROWS = scale(400_000, 2_000)
_ADVISE_ROWS = scale(50_000, 1_200)
_COUNT_REPEATS = scale(30, 3)
_CAN_MEASURE_SPEEDUP = (os.cpu_count() or 1) >= 4


@pytest.fixture(scope="module")
def e6_table():
    """The E6 vertical-scalability dataset (VOC at measurement scale)."""
    return generate_voc(rows=_E6_ROWS, seed=23)


def _count_queries():
    return [
        SDLQuery(
            [
                RangePredicate("tonnage", 1200, 2600),
                RangePredicate("departure_date", 1650, 1750),
            ]
        ),
        SDLQuery(
            [RangePredicate("tonnage", 400, 1800), NoConstraint("departure_harbour")]
        ),
    ]


def _counts_per_second(table, workers: int):
    backend = open_backend(
        f"memory?partitions={workers}&workers={workers}&cache=0", table
    )
    queries = _count_queries()
    results = []
    started = time.perf_counter()
    for _ in range(_COUNT_REPEATS):
        for query in queries:
            results.append(backend.count(query))
    elapsed = time.perf_counter() - started
    total = _COUNT_REPEATS * len(queries)
    return {
        "counts": tuple(results[: len(queries)]),
        "throughput": total / elapsed if elapsed > 0 else float("inf"),
        "runtime": elapsed,
    }


def test_e14_counts_per_second_vs_workers(benchmark, e6_table):
    results = benchmark.pedantic(
        lambda: {w: _counts_per_second(e6_table, w) for w in _WORKER_COUNTS},
        rounds=1,
        iterations=1,
    )

    baseline = results[1]
    print_table(
        f"E14 — uncached counts/s vs workers (E6 VOC, {e6_table.num_rows:,} rows)",
        ["workers", "counts/s", "speedup"],
        [
            (
                w,
                f"{outcome['throughput']:.1f}",
                f"{outcome['throughput'] / baseline['throughput']:.2f}x",
            )
            for w, outcome in results.items()
        ],
    )

    # Partitioned counts are identical whatever the worker count.
    for outcome in results.values():
        assert outcome["counts"] == baseline["counts"]

    speedup_at_4 = results[4]["throughput"] / baseline["throughput"]
    benchmark.extra_info["speedup_at_4_workers"] = round(speedup_at_4, 2)
    if not is_smoke() and _CAN_MEASURE_SPEEDUP:
        assert speedup_at_4 > 1.5, (
            f"expected >1.5x counts/s at 4 workers, measured {speedup_at_4:.2f}x"
        )


def test_e14_advise_latency_vs_workers(benchmark):
    table = generate_voc(rows=_ADVISE_ROWS, seed=23)
    context = ["type_of_boat", "departure_harbour", "tonnage"]

    def advise_all():
        outcomes = {}
        for workers in _WORKER_COUNTS:
            advisor = Charles(
                table, backend=f"memory?partitions={workers}&workers={workers}"
            )
            started = time.perf_counter()
            advice = advisor.advise(context, max_answers=6)
            elapsed = time.perf_counter() - started
            outcomes[workers] = {
                "latency": elapsed,
                "fingerprint": [
                    (a.segmentation.cut_attributes, tuple(a.segmentation.counts))
                    for a in advice.answers
                ],
                "indep_values": advice.trace.indep_values,
                "operations": advice.engine_operations["total_database_operations"],
            }
        return outcomes

    results = benchmark.pedantic(advise_all, rounds=1, iterations=1)

    baseline = results[1]
    print_table(
        f"E14 — end-to-end advise latency vs workers (VOC, {table.num_rows:,} rows)",
        ["workers", "latency", "db operations"],
        [
            (w, f"{o['latency'] * 1000:.1f} ms", o["operations"])
            for w, o in results.items()
        ],
    )
    # Bit-for-bit identical answers and traces at every worker count.
    for outcome in results.values():
        assert outcome["fingerprint"] == baseline["fingerprint"]
        assert outcome["indep_values"] == baseline["indep_values"]
        assert outcome["operations"] == baseline["operations"]
    benchmark.extra_info["latency_ms_at_4_workers"] = round(
        results[4]["latency"] * 1000, 1
    )
