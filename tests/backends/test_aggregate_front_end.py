"""One aggregate front end: the memory engine and SQLite tally alike.

Both backends take the same front half for every aggregate — tally, bind,
key, aggregate cache, batch deduplication, latency reporting — and differ
only in their uncached primitives, so one operation sequence leaves the
same logical tallies on both, with aggregate caching on and off.
"""

from __future__ import annotations

import pytest

from repro.backends import open_backend
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, SetPredicate
from repro.service import AdvisorService
from repro.workloads import generate_voc

_TALLIES = (
    "count_calls",
    "median_calls",
    "minmax_calls",
    "frequency_calls",
    "batch_calls",
    "aggregate_hits",
)

_HEAVY = SDLQuery([RangePredicate("tonnage", 1000, 1500), NoConstraint("type_of_boat")])
_FLUIT = SDLQuery([SetPredicate("type_of_boat", frozenset({"fluit"}))])


@pytest.fixture(scope="module")
def table():
    return generate_voc(rows=400, seed=5)


def _run(backend):
    """The same sequence on any backend: its answers and its tallies."""
    answers = []
    for _ in range(2):
        answers += [
            backend.count(_HEAVY),
            backend.count(_FLUIT),
            backend.median("tonnage", _HEAVY),
            backend.median("tonnage"),
            backend.minmax("built", _FLUIT),
            backend.value_frequencies("type_of_boat", _HEAVY),
            backend.count_batch([_HEAVY, _FLUIT, _HEAVY, _FLUIT, _HEAVY]),
        ]
    snapshot = backend.counter.snapshot()
    return answers, {name: snapshot[name] for name in _TALLIES}


@pytest.mark.parametrize("cache_aggregates", [False, True])
def test_one_sequence_tallies_alike_on_memory_and_sqlite(table, cache_aggregates):
    memory, sqlite = (
        open_backend(spec, table, cache_aggregates=cache_aggregates)
        for spec in ("memory", "sqlite")
    )
    (memory_answers, memory_tallies), (sqlite_answers, sqlite_tallies) = (
        _run(memory),
        _run(sqlite),
    )
    assert memory_answers == sqlite_answers
    assert memory_tallies == sqlite_tallies
    assert memory_tallies["aggregate_hits"] == (9 if cache_aggregates else 0)
    sqlite.close()


def test_a_sqlite_service_records_engine_latencies(table):
    service = AdvisorService(table, backend="sqlite", batch_window=0.0)
    service.open_session("s")
    service.advise("s", SDLQuery.over(["tonnage", "type_of_boat"]))
    observed = {
        row["labels"]["op"]: row["count"]
        for row in service.metrics.to_document()["histograms"]
        if row["name"] == "engine_op_seconds"
    }
    assert observed["count"] > 0 and observed["median"] > 0
