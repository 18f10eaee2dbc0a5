"""E12 — service layer: multi-user throughput, shared caching and batching.

The paper (Section 5.1) observes that Charles issues only two kinds of
back-end operations — medians and counts over predicates — making the
advisor embarrassingly cacheable and batchable across users.  This
benchmark quantifies what the service layer buys:

* a sweep over 1 / 4 / 16 simulated users replaying a skewed exploration
  workload, reporting aggregate requests/sec and the shared result-cache
  and advice-cache hit rates at each width;
* the headline comparison: 16 users on one :class:`AdvisorService`
  (shared cache + batched INDEP passes) versus 16 *independent* advisors,
  each with its own engine and cache — the acceptance bar is ≥ 2×
  aggregate throughput for the shared service.
"""

from __future__ import annotations

import time

import pytest
from conftest import is_smoke, print_table, scale

from repro.core import Charles, ExplorationSession
from repro.service import AdvisorService
from repro.storage import QueryEngine
from repro.workloads import generate_concurrent_workload, generate_voc, serve

_ROWS = scale(3000, 400)
_SEED = 5
_STEPS = 4
_DISTINCT_PATHS = 4
_USER_WIDTHS = scale((1, 4, 16), (1, 8))


@pytest.fixture(scope="module")
def service_table():
    return generate_voc(rows=_ROWS, seed=42)


def _scripts(table, users):
    return generate_concurrent_workload(
        table.column_names,
        users=users,
        steps=_STEPS,
        seed=_SEED,
        distinct_paths=min(users, _DISTINCT_PATHS),
    )


def _run_shared(table, users):
    """One AdvisorService serving every user (sequentially, deterministic)."""
    scripts = _scripts(table, users)
    service = AdvisorService(table, batch_window=0.0)
    report = serve(service, scripts, workers=1)
    assert not report.errors, report.errors
    return report


def _run_independent(table, users):
    """The baseline: every user gets a private advisor, engine and cache."""
    scripts = _scripts(table, users)
    requests = 0
    started = time.perf_counter()
    for script in scripts:
        advisor = Charles(QueryEngine(table))
        session = ExplorationSession(advisor, max_answers=10)
        for action in script.actions:
            if action.op == "advise":
                session.start(list(action.context))
            elif action.op == "drill":
                advice = session.advise()
                if not advice.answers:
                    continue
                answer_index = action.answer % len(advice.answers)
                segmentation = advice.answers[answer_index].segmentation
                session.drill(answer_index, action.segment % segmentation.depth)
            elif action.op == "back":
                if session.depth > 0:
                    session.back()
                    session.advise()
            requests += 1
    wall = time.perf_counter() - started
    return requests, wall


def test_e12_throughput_scaling(benchmark, service_table):
    results = benchmark.pedantic(
        lambda: {users: _run_shared(service_table, users) for users in _USER_WIDTHS},
        rounds=1,
        iterations=1,
    )

    rows = []
    for users, report in results.items():
        stats = report.table_stats["voc"]
        rows.append(
            (
                users,
                report.requests,
                f"{report.throughput:.1f}",
                f"{stats['result_cache']['hit_rate']:.1%}",
                f"{stats['advice_cache']['hit_rate']:.1%}",
                stats["batching"]["passes"],
            )
        )
    print_table(
        "E12 / §5.1 — advisor service throughput vs number of users",
        ["users", "requests", "req/s", "result-cache hits", "advice hits", "batch passes"],
        rows,
    )

    # Sharing pays off with scale: the cache hit rate grows with users...
    widest = max(_USER_WIDTHS)
    hit_rate = lambda users: results[users].table_stats["voc"]["result_cache"]["hit_rate"]
    if not is_smoke():
        # At smoke scale the advice cache absorbs duplicated paths before
        # they reach the result cache, so the rate comparison is moot.
        assert hit_rate(widest) > hit_rate(1)
    # ...and the *work per request* shrinks (deterministic, unlike wall
    # clock): cache misses per served request drop as users pile onto the
    # same hot paths.
    misses_per_request = lambda users: (
        results[users].table_stats["voc"]["result_cache"]["misses"]
        / results[users].requests
    )
    assert misses_per_request(widest) < misses_per_request(1)
    advice_stats = results[widest].table_stats["voc"]["advice_cache"]
    assert advice_stats["hits"] > 0
    benchmark.extra_info["hit_rate_at_max_users"] = hit_rate(widest)


def test_e12_shared_service_vs_independent_engines(benchmark, service_table):
    users = 16

    def run_both():
        report = _run_shared(service_table, users)
        independent_requests, independent_wall = _run_independent(service_table, users)
        return report, independent_requests, independent_wall

    report, independent_requests, independent_wall = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    independent_throughput = independent_requests / independent_wall
    speedup = report.throughput / independent_throughput

    print_table(
        f"E12 / §5.1 — shared service vs {users} independent engines",
        ["strategy", "requests", "wall time", "req/s"],
        [
            ("shared service", report.requests, f"{report.wall_seconds:.3f}s",
             f"{report.throughput:.1f}"),
            ("independent engines", independent_requests, f"{independent_wall:.3f}s",
             f"{independent_throughput:.1f}"),
            ("speed-up", "", "", f"{speedup:.2f}x"),
        ],
    )

    # Both strategies replay the same scripts request for request.
    assert report.requests == independent_requests
    # Acceptance bar: ≥ 2× aggregate throughput from sharing + batching.
    assert speedup >= 2.0, f"expected ≥2x throughput, measured {speedup:.2f}x"
    benchmark.extra_info["speedup_at_16_users"] = speedup
