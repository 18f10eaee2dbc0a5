"""E6 — Section 5.1: vertical scalability (number of tuples).

The paper notes that the back-end cost of Charles is driven by two
operation classes — medians and counts over predicates — and argues that a
column store fits this workload.  This benchmark:

* sweeps the table size from 1k to 100k rows and reports the advisor's
  end-to-end runtime together with the number of database operations it
  issued (which stays constant: the work per operation grows, not their
  count);
* measures the two primitive operations in isolation at the largest size.
"""

from __future__ import annotations

import time

import pytest
from conftest import print_table, scale

from repro.core import Charles
from repro.sdl import RangePredicate, SDLQuery
from repro.storage import QueryEngine
from repro.workloads import generate_voc

_SIZES = scale((1_000, 5_000, 20_000, 50_000, 100_000), (300, 600, 1_200))


def _advise_once(rows: int):
    table = generate_voc(rows=rows, seed=23)
    advisor = Charles(table)
    started = time.perf_counter()
    advice = advisor.advise(
        ["type_of_boat", "departure_harbour", "tonnage"], max_answers=6
    )
    elapsed = time.perf_counter() - started
    return {
        "runtime": elapsed,
        "database_operations": advice.engine_operations["total_database_operations"],
        "answers": len(advice),
    }


def test_e6_runtime_vs_table_size(benchmark):
    results = benchmark.pedantic(
        lambda: {rows: _advise_once(rows) for rows in _SIZES}, rounds=1, iterations=1
    )

    table_rows = [
        (
            f"{rows:,}",
            f"{outcome['runtime'] * 1000:.1f} ms",
            outcome["database_operations"],
            outcome["answers"],
        )
        for rows, outcome in results.items()
    ]
    print_table(
        "E6 / §5.1 — advisor cost vs table size (VOC workload)",
        ["rows", "runtime", "db operations", "answers"],
        table_rows,
    )

    smallest, largest = results[_SIZES[0]], results[_SIZES[-1]]
    # The number of logical database operations is independent of the table
    # size; only the per-operation scan cost grows.
    assert abs(largest["database_operations"] - smallest["database_operations"]) <= (
        0.25 * smallest["database_operations"]
    )
    assert largest["runtime"] < 100 * smallest["runtime"]
    benchmark.extra_info["operations_at_100k"] = largest["database_operations"]


@pytest.fixture(scope="module")
def large_voc():
    return generate_voc(rows=scale(100_000, 1_200), seed=23)


def test_e6_primitive_count_cost(benchmark, large_voc):
    engine = QueryEngine(large_voc, cache_size=0)
    query = SDLQuery(
        [RangePredicate("tonnage", 1200, 2600), RangePredicate("departure_date", 1650, 1750)]
    )
    count = benchmark(lambda: engine.count(query))
    assert 0 < count < large_voc.num_rows
    benchmark.extra_info["selected_rows"] = count


def test_e6_primitive_median_cost(benchmark, large_voc):
    engine = QueryEngine(large_voc, cache_size=0)
    query = SDLQuery([RangePredicate("departure_date", 1650, 1750)])
    median = benchmark(lambda: engine.median("tonnage", query))
    assert 1000 <= median <= 5000
    benchmark.extra_info["median_tonnage"] = median
