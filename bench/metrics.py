"""Metric declarations and how raw samples become reported values.

``BENCHMARK.json`` is the contract the driver reads; this module is the
same list in code (``bench/tests`` keeps the two in step) plus what the
contract's fixed keys cannot hold: which client-observed metric each
layer metric should move, and on which workload.

Only what repeats within a tenth is an end-to-end metric with a bound;
the client-observed timings (``client.*``) do not on the machine this
was written on, so they are per-layer metrics without one (README).  The
percentile rule follows the guide: a percentile is reported only when at
least ten samples lie beyond it — ``p50`` needs 20 samples, ``p95`` 200.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Metric",
    "percentile",
    "required_samples",
]


@dataclass(frozen=True)
class Metric:
    """One declared metric.

    ``moves`` (per-layer metrics only) names the client-observed or
    end-to-end metrics the layer metric should move and ``where`` the
    workload that makes the layer do the work — stated before measuring,
    as the guide asks.
    """

    name: str
    unit: str
    better: str
    meaning: str
    bound: Optional[float] = None
    moves: str = ""
    where: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "imports + median of three set-ups: table generation, server/cluster "
           "healthy, sessions opened, warm-up", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "summed peak RSS of every process of the system under test, read at a "
           "pinned amount of ingested data", bound=0.10),
)

_EXPLORE = "client.steps_per_s client.drill_p50_ms client.drill_p95_ms"
_WIRE = "explore_shared_http, cluster_routed"
_CLIENT = "client-observed, tracing off, on the real deployment"

PER_LAYER: Tuple[Metric, ...] = (
    Metric("storage.engine.count_ms", "ms", "lower", "self-time per step in "
           "QueryEngine.count", moves=_EXPLORE, where="explore_cold"),
    Metric("storage.engine.count_batch_ms", "ms", "lower", "self-time per step in "
           "QueryEngine.count_batch", moves=_EXPLORE, where="explore_cold"),
    Metric("storage.engine.median_ms", "ms", "lower", "self-time per step in "
           "QueryEngine.median", moves=_EXPLORE, where="explore_cold"),
    Metric("storage.engine.frequencies_ms", "ms", "lower", "self-time per step in "
           "QueryEngine.value_frequencies", moves=_EXPLORE, where="explore_cold"),
    Metric("storage.engine.minmax_ms", "ms", "lower", "self-time per step in "
           "QueryEngine.minmax", moves=_EXPLORE, where="explore_cold"),
    Metric("storage.engine.evaluations", "count", "lower", "queries that scanned "
           "columns", moves="client.drill_p95_ms client.steps_per_s", where="explore_cold"),
    Metric("storage.engine.count_calls", "count", "lower", "cardinality requests",
           moves="client.drill_p95_ms client.steps_per_s", where="explore_cold"),
    Metric("storage.engine.median_calls", "count", "lower", "median computations",
           moves="client.drill_p95_ms client.steps_per_s", where="explore_cold"),
    Metric("storage.engine.batch_calls", "count", "lower", "multi-query passes",
           moves="client.drill_p95_ms client.steps_per_s", where="explore_cold"),
    Metric("storage.engine.ops_per_step", "count", "lower", "logical database "
           "operations per step", moves="client.drill_p95_ms client.steps_per_s",
           where="explore_cold"),
    Metric("storage.engine.skipped_partitions", "count", "higher", "shards zone maps "
           "proved empty", moves="client.refresh_p50_ms", where="live_ingest"),
    Metric("storage.zonemap.self_ms", "ms", "lower", "self-time per step in "
           "SkippingIndexes", moves="client.refresh_p50_ms", where="live_ingest"),
    Metric("storage.cache.self_ms", "ms", "lower", "self-time per step in ResultCache",
           moves="client.drill_p50_ms peak_rss_mb", where="explore_cold"),
    Metric("storage.cache.hit_rate", "ratio", "higher", "result-cache hits / lookups",
           moves="client.drill_p50_ms", where="explore_cold"),
    Metric("storage.cache.evictions", "count", "lower", "result-cache capacity "
           "evictions", moves="client.drill_p50_ms peak_rss_mb", where="explore_cold"),
    Metric("storage.cache.approx_mb", "MB", "lower", "result-cache footprint at the "
           "end", moves="peak_rss_mb", where="explore_cold"),
    Metric("storage.cache.invalidations", "count", "lower", "entries dropped as "
           "superseded", moves="client.ingest_rows_per_s client.refresh_p50_ms",
           where="live_ingest"),
    Metric("live.versions", "count", "lower", "data versions created",
           moves="client.ingest_rows_per_s client.refresh_p50_ms", where="live_ingest"),
    Metric("live.versioned.append_ms", "ms", "lower", "self-time per ingest in "
           "VersionedTable.append_batch", moves="client.ingest_rows_per_s",
           where="live_ingest"),
    Metric("live.versioned.repartition_ms", "ms", "lower", "self-time per step in "
           "VersionedTable.partitioned", moves="client.refresh_p50_ms",
           where="live_ingest"),
    Metric("storage.sketches.build_ms", "ms", "lower", "self-time per step building "
           "sketches", moves="client.first_advice_p50_ms", where="live_ingest"),
    Metric("backends.approx.self_ms", "ms", "lower", "self-time per step in "
           "ApproxEngine", moves="client.first_advice_p50_ms", where="live_ingest"),
    Metric("backends.approx.error_bound_max", "ratio", "lower", "worst error bound "
           "of any interactive advice (must not grow)", moves="client.first_advice_p50_ms",
           where="live_ingest"),
    Metric("backends.open_ms", "ms", "lower", "total time in open_backend, set-up "
           "included", moves="setup_s", where="all"),
    Metric("workloads.generate_s", "s", "lower", "total time in generate_voc, set-up "
           "included", moves="setup_s", where="all"),
    Metric("core.hbcuts.self_ms", "ms", "lower", "self-time per step in HBCuts.run",
           moves="client.advise_p50_ms client.drill_p50_ms", where="explore_cold"),
    Metric("core.advisor.self_ms", "ms", "lower", "self-time per step in "
           "Charles.advise", moves="client.advise_p50_ms client.drill_p50_ms",
           where="explore_cold"),
    Metric("core.session.self_ms", "ms", "lower", "self-time per step in "
           "ExplorationSession", moves="client.advise_p50_ms client.drill_p50_ms",
           where="explore_cold"),
    Metric("sdl.parse_ms", "ms", "lower", "self-time per step parsing contexts",
           moves="client.count_p50_ms", where="explore_shared_http"),
    Metric("service.self_ms", "ms", "lower", "self-time per step in "
           "AdvisorService.submit/ingest", moves="client.steps_per_s client.advise_p50_ms",
           where="explore_shared_http"),
    Metric("service.requests", "count", "higher", "requests the service accepted",
           moves="client.steps_per_s", where="explore_shared_http"),
    Metric("service.advice_cache.hit_rate", "ratio", "higher", "advice-cache hits / "
           "lookups", moves="client.steps_per_s client.advise_p50_ms",
           where="explore_shared_http"),
    Metric("service.batching.wait_ms", "ms", "lower", "self-time per step in "
           "BatchCoordinator.counts (the leader's wait)",
           moves="client.steps_per_s client.drill_p95_ms", where=_WIRE),
    Metric("service.batching.passes", "count", "lower", "merged engine passes",
           moves="client.steps_per_s client.drill_p95_ms", where=_WIRE),
    Metric("service.batching.queries_per_pass", "count", "higher", "queries per "
           "merged pass", moves="client.steps_per_s client.drill_p95_ms", where=_WIRE),
    Metric("service.batching.dedup_ratio", "ratio", "higher", "queries removed by "
           "deduplication / queries submitted", moves="client.steps_per_s client.drill_p95_ms",
           where=_WIRE),
    Metric("api.codec.encode_ms", "ms", "lower", "self-time per step in "
           "to_wire/dumps", moves="client.advise_p50_ms client.steps_per_s", where=_WIRE),
    Metric("api.codec.decode_ms", "ms", "lower", "self-time per step in "
           "from_wire/loads", moves="client.advise_p50_ms client.steps_per_s", where=_WIRE),
    Metric("api.codec.response_kb_p50", "kB", "lower", "median encoded response "
           "size", moves="client.advise_p50_ms client.steps_per_s", where=_WIRE),
    Metric("api.client.self_ms", "ms", "lower", "self-time per step in "
           "RemoteAdvisor.rpc (sockets and the HTTP stack outside do_POST included)",
           moves="client.count_p50_ms client.steps_per_s", where=_WIRE),
    Metric("api.http.self_ms", "ms", "lower", "self-time per step in the HTTP "
           "handler", moves="client.count_p50_ms client.steps_per_s", where=_WIRE),
    Metric("api.dispatcher.self_ms", "ms", "lower", "self-time per step in "
           "Dispatcher.handle_wire", moves="client.count_p50_ms client.steps_per_s", where=_WIRE),
    Metric("cluster.router.self_ms", "ms", "lower", "self-time per step routing and "
           "forwarding (second hop included)",
           moves="client.steps_per_s client.advise_p50_ms client.count_p50_ms",
           where="cluster_routed"),
    Metric("cluster.router.broadcast_ms", "ms", "lower", "self-time per ingest on "
           "the replicated path", moves="client.ingest_rows_per_s", where="cluster_routed"),
    Metric("cluster.router.forwards", "count", "lower", "requests forwarded",
           moves="client.steps_per_s", where="cluster_routed"),
    Metric("cluster.router.replications", "count", "lower", "ingests applied on a "
           "non-owner node", moves="client.ingest_rows_per_s", where="cluster_routed"),
    Metric("cluster.router.failovers", "count", "lower", "must stay 0, else requests "
           "fail", moves="failed_share", where="cluster_routed"),
    Metric("cluster.router.degraded_requests", "count", "lower", "must stay 0, else "
           "requests fail", moves="failed_share", where="cluster_routed"),
    Metric("client.steps_per_s", "1/s", "higher", "correct requests of any op per "
           "second of the measured phase; " + _CLIENT, moves="-", where="all"),
    Metric("client.advise_p50_ms", "ms", "lower", "advise on a new context (time to "
           "ranked advice); " + _CLIENT, moves="-", where="explore_*, cluster_routed"),
    Metric("client.advise_p95_ms", "ms", "lower", "advise on a new context; " + _CLIENT,
           moves="-", where="explore_*, cluster_routed"),
    Metric("client.drill_p50_ms", "ms", "lower", "drill into a segment, the "
           "interactive loop step; " + _CLIENT, moves="-",
           where="explore_*, cluster_routed"),
    Metric("client.drill_p95_ms", "ms", "lower", "drill into a segment; " + _CLIENT,
           moves="-", where="explore_*, cluster_routed"),
    Metric("client.count_p50_ms", "ms", "lower", "ad-hoc count, the smallest request "
           "through the wire; " + _CLIENT, moves="-", where="explore_*, cluster_routed"),
    Metric("client.first_advice_p50_ms", "ms", "lower", "interactive advise until "
           "approximate advice is returned; " + _CLIENT, moves="-", where="live_ingest"),
    Metric("client.refined_p50_ms", "ms", "lower", "the same request until refine() "
           "has returned exact advice; " + _CLIENT, moves="-", where="live_ingest"),
    Metric("client.refresh_p50_ms", "ms", "lower", "advise(refresh=True) on a session "
           "an ingest made stale; " + _CLIENT, moves="-",
           where="live_ingest, cluster_routed"),
    Metric("client.ingest_rows_per_s", "rows/s", "higher", "rows acknowledged by ingest "
           "per second spent in ingest; " + _CLIENT, moves="-",
           where="live_ingest, cluster_routed"),
    Metric("bench.trace_overhead_share", "ratio", "lower", "1 - traced steps/s / "
           "untraced steps/s on the same deployment", moves="none", where="all"),
    Metric("bench.unattributed_ms", "ms", "lower", "time per step no wrapped layer "
           "claims", moves="none", where="all"),
)


def required_samples(quantile: float) -> int:
    """Samples needed so that at least ten lie beyond the percentile."""
    tail = min(quantile, 1.0 - quantile)
    return math.ceil(10.0 / tail)


def percentile(
    samples: Sequence[float], quantile: float, enforce: bool = True
) -> Optional[float]:
    """The percentile of ``samples``, or ``None`` when there are too few.

    ``enforce=False`` (smoke runs only, which check the plumbing) reports
    whatever the samples give.
    """
    if not len(samples) or (enforce and len(samples) < required_samples(quantile)):
        return None
    return float(np.quantile(np.asarray(samples, dtype=float), quantile))
