"""E8 — Section 5.2: sampling, the one approximate view.

"The calculation of medians is a major bottleneck.  However, not all
tuples are necessary to give good results."  The extension is
:class:`~repro.backends.approx.ApproxEngine`: the advisor's statistics
computed on a uniform sample, counts scaled back up, every answer
carrying one reported error bound.  For sample rates from 1% to 100% this
benchmark reports

* the speed-up of a full advise() call over the 100k-row VOC table and
  whether the advisor still finds the same top answer (attribute set);
* the worst observed count and median errors over a seeded set of
  conjunctive queries next to the bound the view reports — the bound
  must hold at every rate;
* the cold first-advice latency of ``advise(mode="interactive")`` at the
  E6 table sizes next to an exact advise: the view scans a fixed number
  of rows, so its latency must not grow with ``|T|``.

The shape to reproduce: large speed-ups at small rates with negligible
loss — at 10% the top answer is unchanged and the median error is well
below one tonnage band.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest
from conftest import is_smoke, print_table, scale

from repro.backends.approx import INTERACTIVE_SAMPLE_ROWS, ApproxEngine
from repro.core import Charles
from repro.errors import EmptyColumnError
from repro.sdl import RangePredicate, SDLQuery, SetPredicate
from repro.storage import QueryEngine
from repro.workloads import generate_voc

_RATES = (0.01, 0.05, 0.10, 0.25, 1.00)
_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]
#: The E6 sweep.
_SIZES = scale((1_000, 5_000, 20_000, 50_000, 100_000), (300, 600, 1_200))


@pytest.fixture(scope="module")
def big_voc():
    return generate_voc(rows=scale(100_000, 3_000), seed=37)


def _advise_with_rate(table, rate: float):
    if rate >= 1.0:
        advisor = Charles(table)
    else:
        advisor = Charles(table, backend=f"memory?sample={rate}&seed=7")
    started = time.perf_counter()
    advice = advisor.advise(_CONTEXT, max_answers=3)
    elapsed = time.perf_counter() - started
    assert advice.approximate is (rate < 1.0)
    return {
        "runtime": elapsed,
        "top_attributes": tuple(sorted(advice.best().attributes)),
        "top_entropy": advice.best().scores.entropy,
    }


def test_e8_sampled_advisor_speedup(benchmark, big_voc):
    results = benchmark.pedantic(
        lambda: {rate: _advise_with_rate(big_voc, rate) for rate in _RATES},
        rounds=1,
        iterations=1,
    )

    exact = results[1.00]
    rows = [
        (
            f"{rate:.0%}",
            f"{outcome['runtime'] * 1000:.1f} ms",
            f"{exact['runtime'] / outcome['runtime']:.1f}x",
            ", ".join(outcome["top_attributes"]),
            f"{outcome['top_entropy']:.3f}",
        )
        for rate, outcome in results.items()
    ]
    print_table(
        "E8 / §5.2 — sampled advisor on 100k VOC rows",
        ["sample rate", "runtime", "speed-up", "top answer attributes", "top entropy"],
        rows,
    )

    if not is_smoke():  # at smoke scale a 10% sample saves less than the noise
        assert results[0.10]["runtime"] < exact["runtime"]
    assert results[0.10]["top_attributes"] == exact["top_attributes"], (
        "a 10% sample must preserve the top answer"
    )
    assert abs(results[0.10]["top_entropy"] - exact["top_entropy"]) < 0.1
    benchmark.extra_info["speedup_at_10pct"] = round(
        exact["runtime"] / results[0.10]["runtime"], 1
    )


def _conjunctions(table, size: int):
    """Seeded two-predicate queries: a boat-type set and a tonnage range."""
    rng = random.Random(8)
    types = sorted(table.column("type_of_boat").value_counts())
    tonnages = sorted(table.column("tonnage").value_counts())
    for _ in range(size):
        low, high = sorted(rng.sample(tonnages, 2))
        yield SDLQuery([
            SetPredicate("type_of_boat", frozenset(rng.sample(types, rng.randint(1, 3)))),
            RangePredicate("tonnage", low, high),
        ])


def _rank_distance(data: np.ndarray, value: float) -> float:
    """Ranks between ``value`` and the middle of the sorted ``data``."""
    target = 0.5 * (data.size - 1)
    low = int(np.searchsorted(data, value, side="left"))
    high = int(np.searchsorted(data, value, side="right")) - 1
    return max(0.0, low - target, target - high)


def test_e8_observed_error_within_reported_bound(benchmark, big_voc):
    exact = QueryEngine(big_voc)
    queries = list(_conjunctions(big_voc, scale(200, 40)))
    built = big_voc.column("built")
    truth = [
        (exact.count(q), np.sort(np.asarray(built.values_list(exact.evaluate(q)), float)))
        for q in queries
    ]
    rows = big_voc.num_rows

    def measure():
        observed = {}
        for rate in _RATES:
            view = ApproxEngine(QueryEngine(big_voc), fraction=rate, seed=3)
            count_error = median_error = 0.0
            for query, (count, data) in zip(queries, truth):
                count_error = max(count_error, abs(view.count(query) - count) / rows)
                try:
                    estimate = float(view.median("built", query))
                except EmptyColumnError:  # none of the selection was sampled
                    continue
                median_error = max(median_error, _rank_distance(data, estimate) / rows)
            observed[rate] = (count_error, median_error, view.take_error_bound())
        return observed

    observed = benchmark.pedantic(measure, rounds=1, iterations=1)

    print_table(
        "E8 / §5.2 — worst observed error vs reported bound (fractions of |T|)",
        ["sample rate", "count error", "median rank error", "reported bound"],
        [
            (f"{rate:.0%}", f"{count:.4%}", f"{median:.4%}", f"{bound:.4%}")
            for rate, (count, median, bound) in observed.items()
        ],
    )
    for rate, (count, median, bound) in observed.items():
        # A scaled count is rounded to a whole row; the median of an even
        # selection sits half a rank from both middle values.
        slack = bound + 0.5 / rows
        assert count <= slack, f"count error beyond the bound at {rate:.0%}"
        assert median <= slack, f"median rank error beyond the bound at {rate:.0%}"
    assert observed[1.00][2] == 0.0, "a whole-table sample reports no error"
    benchmark.extra_info["bound_at_10pct"] = round(observed[0.10][2], 4)


def test_e8_interactive_latency_does_not_grow_with_table_size(benchmark):
    def cold_first_advice(rows: int):
        advisor = Charles(generate_voc(rows=rows, seed=23))
        timings = {}
        for mode in ("interactive", "exact"):
            started = time.perf_counter()
            advisor.advise(_CONTEXT, max_answers=6, mode=mode)
            timings[mode] = time.perf_counter() - started
        return timings["interactive"], timings["exact"]

    results = benchmark.pedantic(
        lambda: {rows: cold_first_advice(rows) for rows in _SIZES},
        rounds=1,
        iterations=1,
    )

    print_table(
        f"E8 / §5.2 — cold first advice: {INTERACTIVE_SAMPLE_ROWS}-row view vs exact",
        ["rows", "interactive", "exact"],
        [
            (f"{rows:,}", f"{view * 1000:.1f} ms", f"{exact * 1000:.1f} ms")
            for rows, (view, exact) in results.items()
        ],
    )
    if not is_smoke():
        # 20× the rows, the same sample: within noise of flat (exact grows ~5×).
        sampled = [
            view for rows, (view, _) in results.items() if rows > INTERACTIVE_SAMPLE_ROWS
        ]
        assert max(sampled) < 2.5 * min(sampled)
        assert results[_SIZES[-1]][0] < results[_SIZES[-1]][1]
    benchmark.extra_info["interactive_ms_at_largest"] = round(
        results[_SIZES[-1]][0] * 1000, 1
    )
