"""The timing wrappers and the self-time fold, on synthetic input."""

import warnings

import pytest

from bench.spans import STEP, Span, Target, Tracer, fold, link_threads, self_times
from bench.tests import toy_layers


def _span(id, name, metric, start, end, parent=None, thread=1, request_id=None,
          remote=False):
    return Span(id, name, metric, thread, start, end, parent, request_id, remote)


class TestSelfTimeFold:
    def test_self_time_is_duration_minus_what_children_cover(self):
        spans = [
            _span(0, STEP, "bench.unattributed_ms", 0.0, 10.0),
            _span(1, "service", "service.self_ms", 1.0, 9.0, parent=0),
            _span(2, "engine", "storage.engine.count_ms", 2.0, 4.0, parent=1),
            _span(3, "engine", "storage.engine.count_ms", 5.0, 8.0, parent=1),
        ]
        own = self_times(spans)
        assert own == {0: 2.0, 1: 3.0, 2: 2.0, 3: 3.0}
        assert fold(spans) == {
            "bench.unattributed_ms": 2.0,
            "service.self_ms": 3.0,
            "storage.engine.count_ms": 5.0,
        }

    def test_overlapping_children_are_subtracted_once(self):
        # Two children on other threads overlap between 4 and 5: the parent
        # loses the union of their intervals (2..7), not the sum.
        spans = [
            _span(0, "parent", "a", 0.0, 10.0),
            _span(1, "child", "b", 2.0, 5.0, parent=0, thread=2),
            _span(2, "child", "b", 4.0, 7.0, parent=0, thread=3),
        ]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_a_child_outliving_its_parent_is_clipped(self):
        spans = [
            _span(0, "parent", "a", 0.0, 10.0),
            _span(1, "child", "b", 8.0, 12.0, parent=0, thread=2),
        ]
        assert self_times(spans)[0] == pytest.approx(8.0)

    def test_self_times_sum_to_the_root_duration(self):
        spans = [
            _span(0, STEP, "bench.unattributed_ms", 0.0, 6.0),
            _span(1, "a", "a", 0.5, 5.5, parent=0),
            _span(2, "b", "b", 1.0, 2.0, parent=1),
            _span(3, "c", "c", 2.0, 5.0, parent=1),
            _span(4, "d", "d", 2.5, 3.5, parent=3),
        ]
        assert sum(fold(spans).values()) == pytest.approx(6.0)

    def test_server_thread_root_is_attached_by_request_id(self):
        spans = [
            _span(0, STEP, "bench.unattributed_ms", 0.0, 10.0, request_id="r1"),
            _span(1, "rpc", "api.client.self_ms", 0.5, 9.5, parent=0,
                  request_id="r1", remote=True),
            # Another request's call that also contains the interval.
            _span(2, "rpc", "api.client.self_ms", 0.0, 20.0, thread=7,
                  request_id="r2", remote=True),
            # The HTTP handler learns the request id only from its child.
            _span(3, "do_POST", "api.http.self_ms", 2.0, 8.0, thread=2),
            _span(4, "handle_rpc", "api.http.self_ms", 3.0, 7.0, parent=3, thread=2,
                  request_id="r1"),
        ]
        link_threads(spans)
        assert spans[3].parent == 1
        totals = fold(spans)
        assert totals["api.client.self_ms"] == pytest.approx(3.0 + 20.0)
        assert totals["api.http.self_ms"] == pytest.approx(6.0)

    def test_innermost_containing_call_wins(self):
        # Router hop: the node's handler belongs under the forward, not the rpc.
        spans = [
            _span(0, "rpc", "api.client.self_ms", 0.0, 10.0, request_id="r",
                  remote=True),
            _span(1, "router", "cluster.router.self_ms", 1.0, 9.0, thread=2,
                  request_id="r"),
            _span(2, "forward", "cluster.router.self_ms", 2.0, 8.0, parent=1, thread=2,
                  request_id="r", remote=True),
            _span(3, "node", "api.http.self_ms", 3.0, 7.0, thread=3, request_id="r"),
        ]
        link_threads(spans)
        assert spans[1].parent == 0
        assert spans[3].parent == 2

    def test_window_keeps_only_spans_started_inside(self):
        spans = [
            _span(0, "generate", "workloads.generate_s", 0.0, 1.0),
            _span(1, "count", "storage.engine.count_ms", 5.0, 6.0),
        ]
        assert fold(spans, window=(4.0, 10.0)) == {"storage.engine.count_ms": 1.0}
        assert fold(spans)["workloads.generate_s"] == 1.0


class TestTracer:
    TARGETS = (
        Target("bench.tests.toy_layers:Service.handle", "service.self_ms",
               request_arg=True, reply_size=True),
        Target("bench.tests.toy_layers:leaf", "storage.engine.count_ms"),
        Target("bench.tests.toy_layers:walk", "api.codec.encode_ms"),
        Target("bench.tests.toy_layers:Service.inherited", "core.session.self_ms"),
    )

    def test_wrappers_record_nesting_and_request_ids_then_come_off(self):
        original_handle = toy_layers.Service.__dict__["handle"]
        original_leaf = toy_layers.leaf
        tracer = Tracer(self.TARGETS)
        with tracer:
            with tracer.step("req-1", "drill"):
                reply = toy_layers.Service().handle({"request_id": "req-1", "op": "drill"})
            toy_layers.walk(5)
            toy_layers.Service().inherited()
        assert reply == {"echo": "req-1", "leaf": "leaf"}
        assert toy_layers.Service.__dict__["handle"] is original_handle
        assert toy_layers.leaf is original_leaf
        assert "inherited" not in vars(toy_layers.Service)

        spans = tracer.spans()
        names = [span.name for span in spans]
        # walk() recursed five levels but is one span; inherited() nests leaf().
        assert names == [STEP, "Service.handle", "leaf", "walk", "Service.inherited", "leaf"]
        step, handle, leaf = spans[0], spans[1], spans[2]
        assert handle.parent == step.id and leaf.parent == handle.id
        assert handle.request_id == leaf.request_id == "req-1"
        assert spans[5].parent == spans[4].id
        assert tracer.reply_sizes and tracer.reply_sizes[0] > 10
        assert sum(fold(spans).values()) == pytest.approx(
            step.duration + spans[3].duration + spans[4].duration
        )

    def test_a_vanished_target_warns_and_never_raises(self):
        targets = self.TARGETS + (
            Target("bench.tests.toy_layers:Service.gone", "service.self_ms"),
            Target("bench.tests.no_such_module:thing", "sdl.parse_ms"),
        )
        tracer = Tracer(targets)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tracer.install()
        tracer.uninstall()
        assert tracer.missing == [
            "bench.tests.toy_layers:Service.gone",
            "bench.tests.no_such_module:thing",
        ]
        assert len(caught) == 2 and "no longer exists" in str(caught[0].message)
