"""Observability: request tracing, a metrics registry, and a slow-op log.

The production-scale half of the roadmap needs a window into a running
deployment; this package is that window, in three stdlib-only pieces:

* :mod:`repro.obs.trace` — :class:`~repro.obs.trace.Span` trees with
  monotonic timings and attributes, an ambient context-var span, and a
  zero-overhead-by-default activation model.  Spans ride the wire in the
  optional ``trace`` field of the request/response envelopes, so one
  trace id follows a request from the cluster router through the owning
  node down to individual engine operations.
* :mod:`repro.obs.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  of named counters, gauge views and latency histograms backed by the
  pure-Python :class:`~repro.obs.metrics.MergeableQuantileSketch`,
  rendered in Prometheus text format (``GET /v1/metrics``) and mergeable
  across nodes (the router fans out and merges without loading NumPy).
* :mod:`repro.obs.slowlog` — a :class:`~repro.obs.slowlog.SlowOpLog`
  ring of the N worst requests per operation, with their span trees when
  tracing was on (the ``slow_ops`` wire operation).

See ``docs/observability.md`` for the span model, the metric name
catalogue and scrape examples.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.metrics": ("MetricsRegistry",),
    "repro.obs.slowlog": ("SlowOpLog",),
    "repro.obs.trace": (
        "Span", "current_span", "format_span_tree", "span", "start_trace", "tracing_active",
    ),
})

__all__ = list(_EXPORTS)
