"""Per-layer metrics: counts the program publishes, times the trace gives.

*Counts* are deltas over an untraced phase, read from what the program
already publishes (``AdvisorService.stats()`` per node, the router's
counters, the ``engine_operations`` a closing session reports, the
``error_bound`` of interactive advice).  *Times* are self-times folded
from the traced phase (:mod:`bench.spans`), as a mean per step.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, Mapping, Optional, Sequence

from bench.metrics import PER_LAYER
from bench.runner import ENGINE_TALLIES, Run
from bench.spans import TARGETS, Span, Tracer, fold

__all__ = ["count_metrics", "published", "time_metrics"]

# Metrics reported as totals (set-up included) rather than per step.
_TOTALS = {"backends.open_ms": 1e3, "workloads.generate_s": 1.0}
# Metrics reported per ingest rather than per step.
_PER_INGEST = ("live.versioned.append_ms", "cluster.router.broadcast_ms")


def published(run: Run) -> Dict[str, float]:
    """Flatten everything the system publishes right now into one tally."""
    tally: Dict[str, float] = dict.fromkeys(
        ["requests", "versions", "cache.approx_bytes"], 0.0
    )

    def add(key: str, value: Any) -> None:
        tally[key] = tally.get(key, 0.0) + float(value or 0)

    for node in run.system.stats():
        add("requests", node.get("requests"))
        for table in (node.get("tables") or {}).values():
            for key in ("hits", "misses", "evictions", "invalidations", "approx_bytes"):
                add(f"cache.{key}", table["result_cache"].get(key))
            for key in ("hits", "misses"):
                add(f"advice.{key}", table["advice_cache"].get(key))
            for key in ("passes", "queries", "unique_queries"):
                add(f"batching.{key}", table["batching"].get(key))
            for key in ENGINE_TALLIES:
                add(f"engine.{key}", table["primary_engine"].get(key))
            # Every node applies every ingest, so versions are not summed.
            tally["versions"] = max(tally["versions"], float(table.get("data_version") or 0))
        for session in (node.get("sessions") or {}).values():
            for key in ENGINE_TALLIES:
                add(f"engine.{key}", (session.get("engine_operations") or {}).get(key))
    for key, value in run.system.router_counters().items():
        add(f"router.{key}", value)
    return tally


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def count_metrics(
    run: Run, before: Mapping[str, float], after: Mapping[str, float]
) -> Dict[str, float]:
    """The count-kind metrics of one untraced measured phase."""

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    # Sessions closed during the phase took their counters with them; the
    # clients summed what each close reported.
    closed = {
        key: sum(client.engine_ops[key] for client in run.clients) for key in ENGINE_TALLIES
    }

    def engine(key: str) -> float:
        return delta(f"engine.{key}") + closed[key]

    bounds = [bound for client in run.clients for bound in client.error_bounds]
    return {
        "storage.engine.evaluations": engine("evaluations"),
        "storage.engine.count_calls": engine("count_calls"),
        "storage.engine.median_calls": engine("median_calls"),
        "storage.engine.batch_calls": engine("batch_calls"),
        "storage.engine.ops_per_step": _ratio(
            engine("total_database_operations"), run.steps
        ),
        "storage.engine.skipped_partitions": engine("skipped_partitions"),
        "storage.cache.hit_rate": _ratio(
            delta("cache.hits"), delta("cache.hits") + delta("cache.misses")
        ),
        "storage.cache.evictions": delta("cache.evictions"),
        "storage.cache.approx_mb": after.get("cache.approx_bytes", 0.0) / 1e6,
        "storage.cache.invalidations": delta("cache.invalidations"),
        "live.versions": delta("versions"),
        "backends.approx.error_bound_max": max(bounds, default=0.0),
        "service.requests": delta("requests"),
        "service.advice_cache.hit_rate": _ratio(
            delta("advice.hits"), delta("advice.hits") + delta("advice.misses")
        ),
        "service.batching.passes": delta("batching.passes"),
        "service.batching.queries_per_pass": _ratio(
            delta("batching.queries"), delta("batching.passes")
        ),
        "service.batching.dedup_ratio": _ratio(
            delta("batching.queries") - delta("batching.unique_queries"),
            delta("batching.queries"),
        ),
        "cluster.router.forwards": delta("router.forwards"),
        "cluster.router.replications": delta("router.replications"),
        "cluster.router.failovers": delta("router.failovers"),
        "cluster.router.degraded_requests": delta("router.degraded_requests"),
    }


def time_metrics(
    tracer: Tracer, spans: Sequence[Span], run: Run, ingests: int
) -> Dict[str, Optional[float]]:
    """The time-kind metrics of the traced phase, in each metric's unit.

    A metric one of whose wrap targets no longer exists reads ``None``.
    """
    inside = fold(spans, window=run.window)
    overall = fold(spans)
    # The broadcast metric is carved out of the router targets' spans.
    carved = {"cluster.router.broadcast_ms": "cluster.router.self_ms"}
    timed = {target.metric for target in TARGETS} | set(carved) | {"bench.unattributed_ms"}
    broken = {target.metric for target in TARGETS if target.path in tracer.missing}
    values: Dict[str, Optional[float]] = {}
    for name in (metric.name for metric in PER_LAYER if metric.name in timed):
        if carved.get(name, name) in broken:
            values[name] = None
        elif name in _TOTALS:
            values[name] = overall.get(name, 0.0) * _TOTALS[name]
        else:
            per = ingests if name in _PER_INGEST else run.steps
            values[name] = _ratio(inside.get(name, 0.0) * 1e3, per)
    sizes = tracer.reply_sizes
    values["api.codec.response_kb_p50"] = (
        statistics.median(sizes) / 1e3 if sizes else 0.0
    )
    return values


def write_trace(path: str, spans: Sequence[Span], limit: int = 250_000) -> None:
    """Write the span list (``bench_trace.json``), capped to keep it loadable."""
    rows = [
        [s.id, s.name, s.metric, s.thread, s.start, s.end, s.parent, s.request_id, s.op]
        for s in spans[:limit]
    ]
    document = {
        "columns": ["id", "name", "metric", "thread", "start_s", "end_s", "parent",
                    "request_id", "op"],
        "truncated": len(spans) > limit,
        "spans": rows,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
