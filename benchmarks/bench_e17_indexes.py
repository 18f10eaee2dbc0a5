"""E17 — skipping indexes: zone maps, bitmaps and shard-skip rates.

The skipping tier must be free performance: bit-for-bit identical
answers (the differential harness proves that) at strictly higher count
throughput whenever the data is clustered on the filtered column — and
the engine must reach it by itself.  Three backends are compared: the
plain scan and the index tier, both *forced* (``index=...&partitions=8``:
eight shards scanned on the calling thread, since a shard count alone
starts no threads), and the default — nothing forced, just a pool
(``memory?workers=8``).
This benchmark measures the effect on the two axes the scalability
experiments use:

* **counts/s vs selectivity (E6 shape)** — uncached range counts on a
  tonnage-clustered VOC table across low/mid/high selectivities, with
  the shard-skip rate reported per selectivity.  On the low-selectivity
  predicate (the drill-down hot case: the user zoomed into a narrow
  slice) the zone maps must deliver at least a 2× counts/s improvement
  on measurement runs, forced and unforced alike.
* **the small-table cutoff** — on 2 000 rows the default must not lose
  to the forced plain scan (the forced eight-shard tiers are reported,
  not asserted: they pin a path, they are not tuned for 250-row shards).
* **end-to-end advise latency (E5 shape)** — whole ``advise`` calls with
  and without the index tier, asserting identical ranked answers.

Every figure is recorded through :func:`conftest.record`, so running
with ``--json-out BENCH_e17.json`` emits the machine-readable trajectory
rows CI archives.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import is_smoke, print_table, record, scale

from repro.backends import open_backend
from repro.core import Charles
from repro.sdl import RangePredicate, SDLQuery
from repro.workloads import generate_voc

_ROWS = scale(200_000, 2_000)
_ADVISE_ROWS = scale(30_000, 1_000)
_PARTITIONS = 8
_REPEATS = scale(20, 2)
#: label -> backend spec; the first two force their path, the last does not.
_TIERS = {
    "none": f"memory?partitions={_PARTITIONS}&cache=0&index=none",
    "zonemap,bitmap": f"memory?partitions={_PARTITIONS}&cache=0&index=zonemap,bitmap",
    "default": f"memory?workers={_PARTITIONS}&cache=0",
}


def _clustered_voc(rows: int):
    """VOC physically clustered on ``tonnage``.

    Sorting is the stand-in for the natural clustering (time-ordered
    ingest, partitioned loads) that makes zone maps effective in real
    columnar stores.
    """
    table = generate_voc(rows=rows, seed=29)
    order = np.argsort(table.column("tonnage").to_numpy(), kind="stable")
    return table.take(order, name="voc")


@pytest.fixture(scope="module")
def clustered_voc():
    return _clustered_voc(_ROWS)


def _selectivity_queries(table):
    """(label, query) pairs at ~2% / ~25% / ~80% selectivity."""
    tonnage = table.column("tonnage").to_numpy()
    q = lambda p: float(np.percentile(tonnage, p))
    return (
        ("low ~2%", SDLQuery([RangePredicate("tonnage", q(49), q(51))])),
        ("mid ~25%", SDLQuery([RangePredicate("tonnage", q(25), q(50))])),
        ("high ~80%", SDLQuery([RangePredicate("tonnage", q(10), q(90))])),
    )


def _throughput(table, spec: str, query: SDLQuery, repeats: int = _REPEATS):
    backend = open_backend(spec, table)
    count = backend.count(query)  # warm the zone maps outside the timing
    started = time.perf_counter()
    for _ in range(repeats):
        assert backend.count(query) == count
    elapsed = time.perf_counter() - started
    stats = backend.stats()
    evaluated = stats["operations"]["count_calls"] * stats["partitions"]
    return {
        "count": count,
        "throughput": repeats / elapsed if elapsed > 0 else float("inf"),
        "skip_rate": stats["operations"]["skipped_partitions"] / evaluated,
    }


def test_e17_counts_per_second_vs_selectivity(benchmark, clustered_voc):
    queries = _selectivity_queries(clustered_voc)

    results = benchmark.pedantic(
        lambda: {
            label: {
                tier: _throughput(clustered_voc, spec, query)
                for tier, spec in _TIERS.items()
            }
            for label, query in queries
        },
        rounds=1,
        iterations=1,
    )

    rows = []
    for label, tiers in results.items():
        plain, indexed, default = (tiers[tier] for tier in _TIERS)
        assert indexed["count"] == default["count"] == plain["count"]
        assert plain["skip_rate"] == 0.0
        rows.append(
            (
                label,
                f"{plain['throughput']:.1f}",
                f"{indexed['throughput']:.1f}",
                f"{default['throughput']:.1f}",
                f"{indexed['throughput'] / plain['throughput']:.2f}x",
                f"{default['throughput'] / plain['throughput']:.2f}x",
                f"{indexed['skip_rate']:.0%}",
            )
        )
        for index, outcome in tiers.items():
            record(
                "e17",
                "counts_per_second",
                outcome["throughput"],
                selectivity=label,
                index=index,
                partitions=_PARTITIONS,
                rows=clustered_voc.num_rows,
            )
        record(
            "e17",
            "shard_skip_rate",
            indexed["skip_rate"],
            selectivity=label,
            partitions=_PARTITIONS,
            rows=clustered_voc.num_rows,
        )

    print_table(
        f"E17 — uncached counts/s, forced off / forced on / default "
        f"(clustered VOC, {clustered_voc.num_rows:,} rows, {_PARTITIONS} partitions)",
        [
            "selectivity",
            "counts/s (off)",
            "counts/s (on)",
            "counts/s (default)",
            "on/off",
            "default/off",
            "skip rate",
        ],
        rows,
    )

    low = results["low ~2%"]
    for tier in ("zonemap,bitmap", "default"):
        low_speedup = low[tier]["throughput"] / low["none"]["throughput"]
        benchmark.extra_info[f"low_selectivity_speedup[{tier}]"] = round(low_speedup, 2)
        # The narrow slice lives in ~1 of 8 shards, so most shards must skip...
        assert low[tier]["skip_rate"] >= 0.5
        # ...which on a measurement run has to buy at least 2x counts/s.
        if not is_smoke():
            assert low_speedup >= 2.0, (
                f"expected >=2x counts/s from shard skipping on the low-selectivity "
                f"predicate, measured {low_speedup:.2f}x for {tier!r}"
            )


def test_e17_default_is_not_slower_on_a_small_table(benchmark):
    """2 000 rows at every scale: the size where the forced tier loses."""
    table = _clustered_voc(2_000)
    specs = {
        "plain": "memory?cache=0&index=none&partitions=1",
        "default": "memory?cache=0",
        **{f"forced {tier}": _TIERS[tier] for tier in ("none", "zonemap,bitmap")},
    }

    def measure():
        # Best of five passes per cell: at ~20 us a count, scheduling
        # noise is larger than any difference between the paths.
        return {
            label: {
                name: max(
                    _throughput(table, spec, query, repeats=200)["throughput"]
                    for _ in range(5)
                )
                for name, spec in specs.items()
            }
            for label, query in _selectivity_queries(table)
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    print_table(
        "E17 — uncached counts/s on a small table (clustered VOC, 2,000 rows)",
        ["selectivity", *specs, "default/plain"],
        [
            (
                label,
                *(f"{cells[name]:.0f}" for name in specs),
                f"{cells['default'] / cells['plain']:.2f}x",
            )
            for label, cells in results.items()
        ],
    )
    for label, cells in results.items():
        for name, value in cells.items():
            record(
                "e17",
                "small_table_counts_per_second",
                value,
                selectivity=label,
                backend=name,
                rows=table.num_rows,
            )
        if not is_smoke():
            assert cells["default"] >= 0.9 * cells["plain"], (
                f"the default path lost to the plain scan on {label}: "
                f"{cells['default']:.0f} vs {cells['plain']:.0f} counts/s"
            )


def test_e17_advise_latency_with_indexes(benchmark):
    table = generate_voc(rows=_ADVISE_ROWS, seed=29)
    context = ["type_of_boat", "departure_harbour", "tonnage"]
    specs = {
        "off": "memory?index=none&partitions=1",
        "on": f"memory?index=all&partitions={_PARTITIONS}",
        "default": "memory",
    }

    def advise_all():
        outcomes = {}
        for label, spec in specs.items():
            advisor = Charles(table, backend=spec)
            started = time.perf_counter()
            advice = advisor.advise(context, max_answers=6)
            elapsed = time.perf_counter() - started
            outcomes[label] = {
                "latency": elapsed,
                "fingerprint": [
                    (a.segmentation.cut_attributes, tuple(a.segmentation.counts))
                    for a in advice.answers
                ],
                "skipped": advisor.engine.stats()["operations"]["skipped_partitions"],
            }
        return outcomes

    results = benchmark.pedantic(advise_all, rounds=1, iterations=1)

    assert (
        results["on"]["fingerprint"]
        == results["default"]["fingerprint"]
        == results["off"]["fingerprint"]
    )
    print_table(
        f"E17 — advise latency, forced off / forced on / default "
        f"(VOC, {table.num_rows:,} rows)",
        ["indexes", "latency", "shards skipped"],
        [
            (label, f"{o['latency'] * 1000:.1f} ms", o["skipped"])
            for label, o in results.items()
        ],
    )
    for label, outcome in results.items():
        record(
            "e17",
            "advise_latency_ms",
            round(outcome["latency"] * 1000, 2),
            index=label,
            rows=table.num_rows,
        )
    benchmark.extra_info["advise_ms_indexed"] = round(
        results["on"]["latency"] * 1000, 1
    )
