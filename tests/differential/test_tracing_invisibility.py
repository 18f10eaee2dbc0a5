"""Differential gate: tracing must be invisible to the answers.

The observability layer's contract is *read-only*: a request served with
span tracing active returns byte-identical advice to the same request
served untraced — across the backend grid (plain / indexed /
partitioned) and the approximate tier.  A divergence means the
instrumentation leaked into the computation (reordered work, consumed a
cache differently, perturbed a seed), which this suite exists to catch.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.codec import dumps
from repro.api.protocol import Request
from repro.service import AdvisorService
from repro.workloads import generate_voc

_CONTEXT = ["type_of_boat", "tonnage", "departure_harbour"]
_ROWS, _SEED = 300, 7

#: Backend specs spanning the execution grid: plain, skipping indexes,
#: forced shards, and the approximate (sketch) tier over each.
_GRID = (
    "memory",
    "memory?index=all",
    "memory?index=all&partitions=3",
    "memory?sample=0.5&seed=3",
    "memory?sample=0.5&seed=3&index=all&partitions=3",
)


def _service(spec: str) -> AdvisorService:
    return AdvisorService(
        generate_voc(rows=_ROWS, seed=_SEED), batch_window=0.0, backend=spec
    )


def _wire_bytes(advice) -> str:
    """Canonical advice bytes with the one wall-clock field zeroed.

    ``advice.trace`` here is the HB-cuts evaluation trace (a ranking
    artefact predating span tracing) — its ``runtime_seconds`` is the
    only advice field that is not a pure function of data and
    configuration.
    """
    trace = dataclasses.replace(advice.trace, runtime_seconds=0.0)
    return dumps(dataclasses.replace(advice, trace=trace))


def _advise(service: AdvisorService, session: str, traced: bool):
    service.submit(Request(op="open_session", session=session, params={"table": "voc"}))
    response = service.submit(
        Request(
            op="advise",
            session=session,
            params={"context": _CONTEXT},
            trace={} if traced else None,
        )
    )
    assert response.ok, response.error
    return response


class TestTracingInvisibility:
    @pytest.mark.parametrize("spec", _GRID)
    def test_traced_advice_is_byte_identical_to_untraced(self, spec):
        traced = _advise(_service(spec), "traced", traced=True)
        plain = _advise(_service(spec), "plain", traced=False)
        assert traced.trace is not None and plain.trace is None
        assert _wire_bytes(traced.result) == _wire_bytes(plain.result), (
            f"tracing changed the advice on backend {spec!r}"
        )

    @pytest.mark.parametrize("spec", _GRID[:2])
    def test_tracing_is_invisible_to_drilldowns(self, spec):
        runs = {}
        for label, traced in (("traced", True), ("plain", False)):
            service = _service(spec)
            trace = {} if traced else None
            service.submit(
                Request(op="open_session", session="s", params={"table": "voc"})
            )
            service.submit(
                Request(
                    op="advise",
                    session="s",
                    params={"context": _CONTEXT},
                    trace=trace,
                )
            )
            drilled = service.submit(
                Request(
                    op="drill",
                    session="s",
                    params={"answer_index": 0, "segment_index": 0},
                    trace=trace,
                )
            )
            assert drilled.ok, drilled.error
            runs[label] = _wire_bytes(drilled.result)
        assert runs["traced"] == runs["plain"]

    def test_traced_and_untraced_interleave_on_one_service(self):
        # The stronger property: on a *single* service instance, a traced
        # request between two untraced ones changes nothing (shared
        # caches included).
        service = _service("memory?index=all")
        service.submit(Request(op="open_session", session="a", params={"table": "voc"}))
        first = service.submit(
            Request(op="advise", session="a", params={"context": _CONTEXT})
        )
        service.submit(Request(op="open_session", session="b", params={"table": "voc"}))
        traced = service.submit(
            Request(op="advise", session="b", params={"context": _CONTEXT}, trace={})
        )
        service.submit(Request(op="open_session", session="c", params={"table": "voc"}))
        second = service.submit(
            Request(op="advise", session="c", params={"context": _CONTEXT})
        )
        assert (
            _wire_bytes(first.result)
            == _wire_bytes(traced.result)
            == _wire_bytes(second.result)
        )
