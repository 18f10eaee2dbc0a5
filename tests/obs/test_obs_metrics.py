"""Unit tests for the metrics registry, instruments and merging."""

import pytest

from repro.obs.metrics import (
    DEFAULT_HISTOGRAM_BUDGET,
    Histogram,
    MetricsRegistry,
    render_document,
)


class TestCountersAndGauges:
    def test_counters_and_gauges_need_a_source(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.counter("requests_total", "Requests.")
        with pytest.raises(TypeError):
            registry.gauge("cache_entries", "Entries.")

    def test_view_counter_reads_its_source(self):
        registry = MetricsRegistry()
        tally = {"hits": 7}
        counter = registry.counter("hits_total", fn=lambda: tally["hits"])
        assert counter.value() == 7.0
        tally["hits"] = 9
        assert counter.value() == 9.0

    def test_view_gauge_tracks_its_source(self):
        registry = MetricsRegistry()
        state = {"entries": 4}
        gauge = registry.gauge("cache_entries", fn=lambda: state["entries"])
        assert gauge.value() == 4.0
        state["entries"] = 1
        assert gauge.value() == 1.0

    def test_registration_is_idempotent_by_name_and_labels(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", labels={"op": "count"}, fn=lambda: 1)
        again = registry.counter("x_total", labels={"op": "count"}, fn=lambda: 2)
        other = registry.counter("x_total", labels={"op": "median"}, fn=lambda: 3)
        assert first is again
        assert first is not other
        # Re-registering rebinds the view to its newest source.
        assert first.value() == 2.0


class TestHistograms:
    def test_quantiles_come_from_the_sketch(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds")
        for value in range(1, 101):
            histogram.observe(value / 100.0)
        count, total, sketch = histogram.snapshot()
        assert count == 100
        assert total == pytest.approx(50.5)
        assert sketch.quantile(0.5) == pytest.approx(0.5, abs=0.1)

    def test_pending_folds_at_the_threshold(self):
        histogram = Histogram("x", (), "")
        for _ in range(Histogram.FOLD_THRESHOLD):
            histogram.observe(1.0)
        assert len(histogram._pending) == 0
        assert histogram._sketch.total_weight == Histogram.FOLD_THRESHOLD


class TestDocumentAndRendering:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests.", fn=lambda: 5)
        registry.gauge("cache_entries", "Entries.", labels={"table": "voc"}, fn=lambda: 3)
        histogram = registry.histogram(
            "request_seconds", "Latency.", labels={"op": "advise"}
        )
        for value in (0.1, 0.2, 0.3):
            histogram.observe(value)
        return registry

    def test_document_round_trips_through_the_renderer(self):
        registry = self._registry()
        text = render_document(registry.to_document())
        assert "# TYPE charles_requests_total counter" in text
        assert "charles_requests_total 5" in text
        assert 'charles_cache_entries{table="voc"} 3' in text
        assert "# TYPE charles_request_seconds summary" in text
        assert 'charles_request_seconds{op="advise",quantile="0.5"}' in text
        assert 'charles_request_seconds{op="advise",quantile="0.95"}' in text
        assert 'charles_request_seconds{op="advise",quantile="0.99"}' in text
        assert 'charles_request_seconds_count{op="advise"} 3' in text
        assert text == registry.render_prometheus()

    def test_empty_histogram_renders_nan_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("idle_seconds")
        text = registry.render_prometheus()
        assert 'charles_idle_seconds{quantile="0.5"} NaN' in text
        assert "charles_idle_seconds_count 0" in text

    def test_every_name_is_prefixed(self):
        registry = MetricsRegistry()
        registry.counter("x_total", fn=lambda: 1)
        assert "charles_x_total 1" in registry.render_prometheus()


class TestMerging:
    def test_merge_sums_scalars_and_merges_sketches(self):
        def node():
            registry = MetricsRegistry()
            registry.counter("requests_total", fn=lambda: 10)
            registry.gauge("cache_entries", fn=lambda: 4)
            histogram = registry.histogram("request_seconds", labels={"op": "advise"})
            for value in (0.1, 0.2):
                histogram.observe(value)
            return registry.to_document()

        merged = MetricsRegistry.merge_documents([node(), node()])
        (counter,) = merged["counters"]
        assert counter["value"] == 20.0
        (gauge,) = merged["gauges"]
        assert gauge["value"] == 8.0
        (histogram,) = merged["histograms"]
        assert histogram["count"] == 4
        assert histogram["sum"] == pytest.approx(0.6)
        assert histogram["total_weight"] == 4

    def test_merged_document_still_renders(self):
        registry = MetricsRegistry()
        registry.histogram("request_seconds").observe(1.0)
        merged = MetricsRegistry.merge_documents(
            [registry.to_document(), registry.to_document()]
        )
        text = render_document(merged)
        assert "charles_request_seconds_count 2" in text

    def test_disjoint_rows_union(self):
        left = MetricsRegistry()
        left.counter("a_total", fn=lambda: 1)
        right = MetricsRegistry()
        right.counter("b_total", fn=lambda: 1)
        merged = MetricsRegistry.merge_documents(
            [left.to_document(), right.to_document()]
        )
        assert [row["name"] for row in merged["counters"]] == ["a_total", "b_total"]

    def test_default_budget_is_sane(self):
        assert DEFAULT_HISTOGRAM_BUDGET >= 2
