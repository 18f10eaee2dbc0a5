"""Unit tests for the versioned JSON wire codec."""

from __future__ import annotations

import datetime
import json
import math

import pytest

from repro.api.codec import SCHEMA_VERSION, dumps, from_wire, loads, to_wire
from repro.errors import WireFormatError
from repro.sdl import (
    ExclusionPredicate,
    NoConstraint,
    RangePredicate,
    SDLQuery,
    Segment,
    Segmentation,
    SetPredicate,
)


class TestScalars:
    def test_plain_json_scalars_pass_through(self):
        for value in (None, True, False, 0, -17, 3.25, "text", "ünïcode ✓"):
            assert to_wire(value) == value
            assert from_wire(to_wire(value)) == value

    def test_dates_are_tagged(self):
        day = datetime.date(1650, 3, 21)
        assert to_wire(day) == {"$date": "1650-03-21"}
        assert from_wire(to_wire(day)) == day

    def test_datetimes_are_rejected(self):
        with pytest.raises(WireFormatError):
            to_wire(datetime.datetime(2020, 1, 1, 12, 0))

    def test_non_finite_floats_are_tagged(self):
        assert to_wire(math.inf) == {"$float": "inf"}
        assert to_wire(-math.inf) == {"$float": "-inf"}
        assert from_wire(to_wire(math.inf)) == math.inf
        assert math.isnan(from_wire(to_wire(math.nan)))

    def test_frozensets_round_trip_deterministically(self):
        values = frozenset({"b", "a", 3, True, datetime.date(2020, 1, 1)})
        encoded = to_wire(values)
        assert encoded == to_wire(values)  # deterministic ordering
        assert from_wire(encoded) == values

    def test_non_string_dict_keys_are_tagged(self):
        mapping = {1: "one", datetime.date(2020, 1, 2): "day"}
        assert from_wire(to_wire(mapping)) == mapping

    def test_tagged_dict_pairs_are_order_deterministic(self):
        # Equal mappings must produce byte-identical wire text regardless
        # of insertion order.
        assert dumps({1: "a", 2: "b"}) == dumps({2: "b", 1: "a"})

    def test_tuple_dict_keys_are_rejected_at_encode_time(self):
        # A tuple key would decode to an unhashable list; reject it up
        # front instead of crashing the decoder.
        with pytest.raises(WireFormatError) as excinfo:
            to_wire({(1, 2): "x"})
        assert "tuple" in str(excinfo.value)

    def test_dollar_keys_do_not_collide_with_tags(self):
        mapping = {"$type": "not-a-tag", "$date": "still-not"}
        assert from_wire(to_wire(mapping)) == mapping

    def test_unencodable_objects_are_rejected(self):
        with pytest.raises(WireFormatError) as excinfo:
            to_wire(object())
        assert "object" in str(excinfo.value)


class TestPredicatesAndQueries:
    def test_each_predicate_kind_round_trips(self):
        predicates = [
            NoConstraint("tonnage"),
            RangePredicate("year", 1600, 1650, include_high=False),
            RangePredicate("date", datetime.date(1600, 1, 1), datetime.date(1650, 1, 1)),
            SetPredicate("type", frozenset({"fluit", "jacht"})),
            ExclusionPredicate("type", frozenset({"pinas"})),
        ]
        for predicate in predicates:
            assert from_wire(to_wire(predicate)) == predicate

    def test_query_preserves_predicate_order(self):
        query = SDLQuery(
            [NoConstraint("b"), RangePredicate("a", 1, 2), SetPredicate("c", frozenset({"x"}))]
        )
        decoded = from_wire(to_wire(query))
        assert decoded == query
        assert decoded.attributes == query.attributes  # display order kept

    def test_segmentation_round_trips_with_metadata(self):
        context = SDLQuery([NoConstraint("x")])
        segmentation = Segmentation(
            context,
            [
                Segment(SDLQuery([RangePredicate("x", 0, 5, include_high=False)]), 10),
                Segment(SDLQuery([RangePredicate("x", 5, 9)]), 7),
            ],
            context_count=17,
            cut_attributes=("x",),
        )
        decoded = from_wire(to_wire(segmentation))
        assert decoded == segmentation
        assert decoded.cut_attributes == ("x",)
        assert decoded.counts == (10, 7)


class TestAdviceApproxFields:
    """The ``approximate``/``error_bound`` advice fields ride the wire."""

    @pytest.fixture(scope="class")
    def advisor(self):
        from repro.core.advisor import Charles
        from repro.workloads import generate_voc

        return Charles(generate_voc(rows=200, seed=5))

    def test_exact_advice_round_trips_with_default_fields(self, advisor):
        advice = advisor.advise(["type_of_boat", "tonnage"], max_answers=3)
        assert advice.approximate is False and advice.error_bound is None
        decoded = loads(dumps(advice))
        assert decoded.approximate is False
        assert decoded.error_bound is None
        assert dumps(decoded) == dumps(advice)

    def test_interactive_advice_round_trips_losslessly(self, advisor):
        advice = advisor.advise(
            ["type_of_boat", "tonnage"], max_answers=3, mode="interactive"
        )
        assert advice.approximate is True
        assert advice.error_bound is not None
        decoded = loads(dumps(advice))
        assert decoded.approximate is True
        assert decoded.error_bound == advice.error_bound
        assert dumps(decoded) == dumps(advice)

    def test_non_finite_error_bound_round_trips_via_float_tags(self, advisor):
        import dataclasses

        advice = advisor.advise(["type_of_boat"], max_answers=2)
        for bound in (math.inf, -math.inf):
            stamped = dataclasses.replace(
                advice, approximate=True, error_bound=bound
            )
            assert to_wire(stamped)["error_bound"] == to_wire(bound)
            decoded = loads(dumps(stamped))
            assert decoded.error_bound == bound
        stamped = dataclasses.replace(
            advice, approximate=True, error_bound=math.nan
        )
        decoded = loads(dumps(stamped))
        assert decoded.error_bound is not None
        assert math.isnan(decoded.error_bound)

    def test_payloads_without_the_fields_decode_as_exact(self, advisor):
        # Version-1 advice written before the sketch tier existed carries
        # neither field; it must still decode (backward compatibility
        # within SCHEMA_VERSION).
        advice = advisor.advise(["type_of_boat"], max_answers=2)
        payload = to_wire(advice)
        del payload["approximate"]
        del payload["error_bound"]
        legacy = from_wire(payload)
        assert legacy.approximate is False
        assert legacy.error_bound is None
        assert legacy.answers == advice.answers

    def test_older_trace_payloads_with_parallel_rounds_still_decode(self, advisor):
        # Peers before the single INDEP pass sent one more trace counter;
        # the encoder dropped it, the decoder must keep ignoring it.
        advice = advisor.advise(["type_of_boat", "tonnage"], max_answers=2)
        payload = to_wire(advice)
        assert "parallel_rounds" not in payload["trace"]
        payload["trace"]["parallel_rounds"] = 3
        assert from_wire(payload).trace == advice.trace

    def test_schema_envelope_still_version_one(self, advisor):
        advice = advisor.advise(["type_of_boat"], max_answers=2)
        envelope = json.loads(dumps(advice))
        assert envelope["schema"] == SCHEMA_VERSION
        assert envelope["data"]["approximate"] is False


class TestTextEnvelope:
    def test_dumps_wraps_schema_version(self):
        envelope = json.loads(dumps({"a": 1}))
        assert envelope["schema"] == SCHEMA_VERSION
        assert envelope["data"] == {"a": 1}

    def test_loads_rejects_newer_schema(self):
        text = json.dumps({"schema": SCHEMA_VERSION + 1, "data": None})
        with pytest.raises(WireFormatError) as excinfo:
            loads(text)
        assert "schema version" in str(excinfo.value)

    def test_loads_rejects_missing_envelope(self):
        with pytest.raises(WireFormatError):
            loads(json.dumps({"data": None}))
        with pytest.raises(WireFormatError):
            loads("not json at all {")

    def test_unknown_type_tag_is_rejected(self):
        with pytest.raises(WireFormatError) as excinfo:
            from_wire({"$type": "flux_capacitor"})
        assert "flux_capacitor" in str(excinfo.value)

    def test_missing_field_names_the_type(self):
        with pytest.raises(WireFormatError) as excinfo:
            from_wire({"$type": "range", "attribute": "x"})
        assert "range" in str(excinfo.value)
        assert "low" in str(excinfo.value)

    def test_malformed_date_and_float_tags_are_rejected(self):
        with pytest.raises(WireFormatError):
            from_wire({"$date": "yesterday"})
        with pytest.raises(WireFormatError):
            from_wire({"$float": "tiny"})

    def test_malformed_tagged_fields_raise_wire_errors_not_bare_exceptions(self):
        # Decoders must never let TypeError/ValueError escape: a remote
        # client would otherwise crash a server thread with crafted JSON.
        malformed = [
            {"$type": "segment",
             "query": {"$type": "query", "predicates": []}, "count": "x"},
            {"$set": [[1, 2]]},  # unhashable member
            {"$dict": [["lonely-key"]]},  # pair with no value
            {"$type": "scores", "entropy": 0.0, "max_entropy": 0.0,
             "balance": 0.0, "simplicity": "high", "breadth": 1,
             "depth": 1, "covered_fraction": 1.0},
        ]
        for payload in malformed:
            with pytest.raises(WireFormatError):
                from_wire(payload)

    def test_wire_text_is_byte_deterministic(self):
        query = SDLQuery(
            [SetPredicate("t", frozenset({"b", "a", "c"})), RangePredicate("x", 0, 1)]
        )
        assert dumps(query) == dumps(from_wire(to_wire(query)))
