"""Property-based tests: lossless wire-codec round-trips.

The acceptance bar of the wire API: ``from_wire(to_wire(x)) == x`` — and
the same through the JSON *text* form ``loads(dumps(x))`` — for SDL
queries over the full value domain (unicode, dates, booleans, floats),
for advice payloads, and for request/response envelopes.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from sdl_strategies import WIRE_SET_VALUES, queries, wire_queries

from repro.api.codec import dumps, from_wire, loads, to_wire
from repro.api.protocol import Request, Response
from repro.core.advisor import Advice, RankedAnswer
from repro.core.hbcuts import HBCutsTrace
from repro.core.metrics import score_segmentation
from repro.sdl.segmentation import Segment, Segmentation

_SETTINGS = settings(max_examples=120, deadline=None)

#: Parameter values an envelope may carry: scalars of the full wire
#: domain plus nested lists and string-keyed mappings of them.
_PARAM_VALUES = st.recursive(
    st.one_of(st.none(), WIRE_SET_VALUES),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=8), children, max_size=4),
    ),
    max_leaves=8,
)


def _round_trip(obj):
    structural = from_wire(to_wire(obj))
    textual = loads(dumps(obj))
    assert structural == obj
    assert textual == obj
    return structural


class TestQueryRoundTrip:
    @_SETTINGS
    @given(query=queries())
    def test_sdl_text_domain_round_trips(self, query):
        _round_trip(query)

    @_SETTINGS
    @given(query=wire_queries())
    def test_full_wire_domain_round_trips(self, query):
        # Wider than SDL text: dates, booleans, arbitrary unicode and
        # exclusion predicates all survive the JSON codec losslessly.
        _round_trip(query)

    @_SETTINGS
    @given(query=wire_queries())
    def test_wire_text_is_deterministic(self, query):
        assert dumps(query) == dumps(loads(dumps(query)))


@st.composite
def segmentations(draw):
    context = draw(wire_queries())
    counts = draw(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=6))
    segments = [
        Segment(draw(wire_queries()), count) for count in counts
    ]
    return Segmentation(
        context,
        segments,
        context_count=sum(counts),
        cut_attributes=tuple(draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3))),
    )


@st.composite
def advice_payloads(draw):
    context = draw(wire_queries())
    answers = []
    for rank in range(draw(st.integers(min_value=0, max_value=3)) + 1):
        segmentation = draw(segmentations())
        answers.append(
            RankedAnswer(
                rank=rank + 1,
                segmentation=segmentation,
                scores=score_segmentation(segmentation),
                score=draw(st.floats(allow_nan=False)),
            )
        )
    trace = HBCutsTrace(
        initial_candidates=draw(st.lists(st.text(min_size=1, max_size=8), max_size=4)),
        uncuttable_attributes=draw(st.lists(st.text(min_size=1, max_size=8), max_size=3)),
        iterations=draw(st.integers(min_value=0, max_value=50)),
        pair_evaluations=draw(st.integers(min_value=0, max_value=500)),
        pair_cache_hits=draw(st.integers(min_value=0, max_value=500)),
        batched_passes=draw(st.integers(min_value=0, max_value=50)),
        compositions=[
            tuple(composition)
            for composition in draw(
                st.lists(
                    st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3),
                    max_size=3,
                )
            )
        ],
        indep_values=draw(
            st.lists(st.floats(min_value=0.0, max_value=1.5, allow_nan=False), max_size=4)
        ),
        stop_reason=draw(st.sampled_from(["indep", "depth", "exhausted", "no_candidates"])),
        runtime_seconds=draw(st.floats(min_value=0.0, max_value=1e3, allow_nan=False)),
    )
    return Advice(
        context=context,
        answers=answers,
        trace=trace,
        ranker_name=draw(st.text(min_size=1, max_size=12)),
        engine_operations=draw(
            st.dictionaries(
                st.text(min_size=1, max_size=10),
                st.integers(min_value=0, max_value=10**6),
                max_size=5,
            )
        ),
    )


class TestAdvicePayloadRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(advice=advice_payloads())
    def test_advice_round_trips(self, advice):
        restored = _round_trip(advice)
        # Spot-check deep structure beyond __eq__: scores and cut
        # attributes are reconstructed field-for-field.
        for original, decoded in zip(advice.answers, restored.answers):
            assert decoded.scores == original.scores
            assert decoded.segmentation.cut_attributes == original.segmentation.cut_attributes
            assert decoded.segmentation.counts == original.segmentation.counts


class TestEnvelopeRoundTrip:
    @_SETTINGS
    @given(
        op=st.sampled_from(["advise", "drill", "count", "stats", "describe"]),
        session=st.text(max_size=12),
        params=st.dictionaries(st.text(min_size=1, max_size=10), _PARAM_VALUES, max_size=5),
        request_id=st.text(min_size=1, max_size=16),
    )
    def test_request_envelopes_round_trip(self, op, session, params, request_id):
        request = Request(op=op, session=session, params=params, request_id=request_id)
        assert Request.from_wire(request.to_wire()) == request

    @_SETTINGS
    @given(
        ok=st.booleans(),
        result=_PARAM_VALUES,
        error_code=st.one_of(st.none(), st.sampled_from(["core_session", "protocol"])),
        elapsed=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    )
    def test_response_envelopes_round_trip(self, ok, result, error_code, elapsed):
        response = Response(
            ok=ok,
            op="advise",
            session="s",
            result=result,
            error=None if error_code is None else "boom",
            error_code=error_code,
            request_id="r-1",
            elapsed_seconds=elapsed,
        )
        assert Response.from_wire(response.to_wire()) == response

    @settings(max_examples=60, deadline=None)
    @given(query=wire_queries(), date_param=st.dates(), flag=st.booleans())
    def test_envelope_params_carry_domain_values(self, query, date_param, flag):
        # Unicode/date/bool parameter values survive the full envelope
        # encode→decode cycle together with a structured SDL context.
        request = Request(
            op="advise",
            session="sesión-✓",
            params={"context": query, "since": date_param, "exact": flag},
        )
        decoded = Request.from_wire(request.to_wire())
        assert decoded.params["context"] == query
        assert decoded.params["since"] == date_param
        assert decoded.params["exact"] is flag
