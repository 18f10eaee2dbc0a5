"""Non-finite values never break a scrape or poison a histogram."""

from __future__ import annotations

import json
import math

from repro.obs.metrics import MetricsRegistry


def test_infinite_gauges_and_counters_render_as_prometheus_inf():
    registry = MetricsRegistry()
    registry.gauge("up", "h", fn=lambda: float("inf"))
    registry.gauge("down", "h", fn=lambda: float("-inf"))
    registry.counter("total", "h", fn=lambda: float("inf"))
    text = registry.render_prometheus()
    assert "charles_up +Inf" in text
    assert "charles_down -Inf" in text
    assert "charles_total +Inf" in text


def test_a_non_finite_observation_is_dropped():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency_seconds", "h")
    for value in (0.5, float("nan"), 1.5, float("inf"), float("-inf")):
        histogram.observe(value)
    count, total, sketch = histogram.snapshot()
    assert (count, total, sketch.total_weight) == (2, 2.0, 2)
    document = registry.to_document()
    # Strict JSON: the router merges these documents from every node.
    json.loads(json.dumps(document, allow_nan=False))
    merged = MetricsRegistry.merge_documents([document, document])
    (row,) = merged["histograms"]
    assert row["count"] == 4 and math.isfinite(row["sum"])
    text = registry.render_prometheus()
    assert 'charles_latency_seconds{quantile="0.99"} 1.5' in text
    assert "NaN" not in text
