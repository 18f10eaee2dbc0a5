"""E15 — the wire API: HTTP request throughput vs in-process submit.

The wire-level advisor API (``repro.api``) puts a versioned JSON
protocol and an HTTP transport in front of the service layer.  This
benchmark quantifies what the network hop costs — and checks that it
costs *only* transport, never answers:

* requests/s for a count-heavy workload through three paths: direct
  in-process ``submit`` envelopes, wire-encoded envelopes through the
  :class:`~repro.api.dispatcher.Dispatcher` (codec cost, no sockets),
  and full HTTP against a live :class:`~repro.api.server.AdvisorHTTPServer`;
* advise latency over HTTP vs in-process for a cold and a cached
  context;
* the correctness guard: the advice answered over HTTP is byte-identical
  (canonical wire text) to the in-process answer.
"""

from __future__ import annotations

import time

import pytest
from conftest import print_table, scale

from repro.api.client import RemoteAdvisor
from repro.api.codec import dumps
from repro.api.dispatcher import Dispatcher
from repro.api.protocol import Request
from repro.api.server import AdvisorHTTPServer
from repro.service import AdvisorService
from repro.workloads import generate_voc

_ROWS = scale(3000, 400)
_COUNT_REQUESTS = scale(300, 20)
_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]


@pytest.fixture(scope="module")
def service_table():
    return generate_voc(rows=_ROWS, seed=42)


@pytest.fixture(scope="module")
def server(service_table):
    service = AdvisorService(service_table, batch_window=0.0)
    with AdvisorHTTPServer(service, port=0) as running:
        yield running


def _count_contexts(n):
    # Distinct predicates so the result cache does not flatten the sweep.
    return [f"tonnage: [{100 + i}, {40_000 + i}]" for i in range(n)]


def test_e15_count_throughput_by_path(benchmark, service_table, server):
    contexts = _count_contexts(_COUNT_REQUESTS)

    def run_all():
        timings = {}

        in_process = AdvisorService(service_table, batch_window=0.0)
        started = time.perf_counter()
        for context in contexts:
            response = in_process.submit(
                Request(op="count", params={"context": context})
            )
            assert response.ok
        timings["in-process submit"] = time.perf_counter() - started

        dispatcher = Dispatcher(AdvisorService(service_table, batch_window=0.0))
        started = time.perf_counter()
        for context in contexts:
            envelope = dispatcher.handle_wire(
                Request(op="count", params={"context": context}).to_wire()
            )
            assert envelope["ok"]
        timings["dispatcher (codec)"] = time.perf_counter() - started

        client = RemoteAdvisor(server.url)
        started = time.perf_counter()
        for context in contexts:
            client.count(context)
        timings["HTTP"] = time.perf_counter() - started
        return timings

    timings = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        (path, f"{seconds:.3f}s", f"{len(contexts) / seconds:.0f}")
        for path, seconds in timings.items()
    ]
    print_table(
        "E15 — count requests/s by path "
        f"({len(contexts)} requests, {_ROWS} rows)",
        ["path", "wall time", "req/s"],
        rows,
    )
    for path, seconds in timings.items():
        benchmark.extra_info[f"req_per_s[{path}]"] = len(contexts) / seconds
    # The transport may cost time but never throughput collapse into
    # errors: every path answered every request (asserted inline above).


def test_e15_http_advice_is_byte_identical_and_cached(benchmark, service_table, server):
    def run_both():
        local_service = AdvisorService(service_table, batch_window=0.0)
        local = local_service.open_session("bench")
        client = RemoteAdvisor(server.url)
        remote = client.open_session("bench")

        started = time.perf_counter()
        local_advice = local.advise(_CONTEXT)
        local_cold = time.perf_counter() - started

        started = time.perf_counter()
        remote_advice = remote.advise(_CONTEXT)
        remote_cold = time.perf_counter() - started

        started = time.perf_counter()
        remote.advise(_CONTEXT)
        remote_warm = time.perf_counter() - started
        remote.close()
        return local_advice, remote_advice, local_cold, remote_cold, remote_warm

    local_advice, remote_advice, local_cold, remote_cold, remote_warm = (
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    )

    payload = lambda advice: dumps(
        {"context": advice.context, "answers": advice.answers}
    )
    assert payload(local_advice) == payload(remote_advice)

    print_table(
        "E15 — advise latency: in-process vs HTTP",
        ["path", "latency"],
        [
            ("in-process, cold", f"{local_cold * 1e3:.1f}ms"),
            ("HTTP, cold", f"{remote_cold * 1e3:.1f}ms"),
            ("HTTP, advice cache warm", f"{remote_warm * 1e3:.1f}ms"),
        ],
    )
    benchmark.extra_info["http_cold_ms"] = remote_cold * 1e3
    benchmark.extra_info["http_warm_ms"] = remote_warm * 1e3
