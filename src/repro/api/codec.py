"""Versioned JSON codec for the advisor wire protocol.

Every domain object a remote client sees — predicates, SDL queries,
segmentations, scores, ranked answers, HB-cuts traces, whole
:class:`~repro.core.advisor.Advice` payloads — encodes to a JSON-safe
structure via :func:`to_wire` and decodes back, **losslessly**, via
:func:`from_wire`::

    from_wire(to_wire(x)) == x

JSON alone cannot carry the substrate's value domain, so the codec tags
what JSON lacks:

* objects carry a ``"$type"`` discriminator (``"range"``, ``"query"``,
  ``"advice"``, ...);
* :class:`datetime.date` values become ``{"$date": "YYYY-MM-DD"}``;
* frozensets become ``{"$set": [...]}`` with deterministic ordering;
* non-finite floats become ``{"$float": "nan" | "inf" | "-inf"}``;
* plain dicts whose keys are not strings (or would collide with a tag)
  become ``{"$dict": [[key, value], ...]}``.

:func:`dumps` / :func:`loads` wrap the tagged structure in a top-level
``{"schema": N, "data": ...}`` envelope.  ``SCHEMA_VERSION`` only moves
when an existing encoding changes shape; *adding* a tag is backward
compatible.  Decoders reject payloads from a newer schema rather than
guessing.

The codec is transport-agnostic: the HTTP server, the CLI ``call``
command and the in-process tests all speak exactly these bytes.

Two layers, one module: the *value* layer (JSON natives and the tags
above) needs only the standard library, so the cluster router — which
moves envelopes and never builds a domain object — loads no NumPy and no
engine through it.  The *domain* layer is keyed by dotted class name on
the encoding side (an object's class is loaded already) and binds the
domain classes it constructs on the first ``$type`` tag it decodes.
"""

from __future__ import annotations

import datetime
import importlib
import json
import math
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable

from repro.errors import WireFormatError

if TYPE_CHECKING:  # bound at run time by _load_domain(), not imported
    from repro.core.advisor import Advice, RankedAnswer
    from repro.core.hbcuts import HBCutsTrace
    from repro.core.metrics import SegmentationScores
    from repro.sdl.predicates import (
        ExclusionPredicate,
        NoConstraint,
        Predicate,
        RangePredicate,
        SetPredicate,
    )
    from repro.sdl.query import SDLQuery
    from repro.sdl.segmentation import Segment, Segmentation

__all__ = ["SCHEMA_VERSION", "to_wire", "from_wire", "dumps", "loads"]

#: Version of the value encodings below.  Bumped when an existing shape
#: changes; decoders accept payloads at or below their own version.
SCHEMA_VERSION = 1

#: Deterministic ordering key for set members of mixed types (the one
#: ``SetPredicate.sorted_values`` uses, so SDL text and wire bytes agree).
_SET_ORDER = lambda v: (str(type(v)), str(v))  # noqa: E731


def _encode_set(values: Iterable[Any]) -> Dict[str, Any]:
    return {"$set": [to_wire(value) for value in sorted(values, key=_SET_ORDER)]}


def _encode_dict(mapping: Dict[Any, Any]) -> Dict[str, Any]:
    plain = all(isinstance(key, str) and not key.startswith("$") for key in mapping)
    if plain:
        return {key: to_wire(value) for key, value in mapping.items()}
    for key in mapping:
        # Tuples encode as JSON arrays, which decode to (unhashable)
        # lists — such a key could never be rebuilt, so reject it here
        # rather than crash the decoder.
        if isinstance(key, tuple):
            raise WireFormatError(
                f"cannot encode a mapping key of type 'tuple' losslessly: {key!r}"
            )
    # Deterministic pair order: equal mappings must produce byte-identical
    # wire text regardless of insertion order.
    ordered = sorted(mapping.items(), key=lambda item: _SET_ORDER(item[0]))
    return {"$dict": [[to_wire(key), to_wire(value)] for key, value in ordered]}


def to_wire(obj: Any) -> Any:
    """Encode a domain object (or plain value) as a JSON-safe structure.

    Tuples and lists both encode as JSON arrays; typed decoders restore
    the tuple-ness their fields require.  Raises
    :class:`~repro.errors.WireFormatError` for values with no encoding.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return {"$float": "nan"}
        if math.isinf(obj):
            return {"$float": "inf" if obj > 0 else "-inf"}
        return obj
    if isinstance(obj, datetime.datetime):  # before date: datetime is a date
        raise WireFormatError(
            f"cannot encode datetime {obj!r}; the substrate's DATE type is day-granular"
        )
    if isinstance(obj, datetime.date):
        return {"$date": obj.isoformat()}
    if isinstance(obj, (list, tuple)):
        return [to_wire(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return _encode_set(obj)
    if isinstance(obj, dict):
        return _encode_dict(obj)
    encoder = _ENCODERS_BY_TYPE.get(type(obj))
    if encoder is None:
        cls = type(obj)
        # Subclasses (e.g. a custom Ranker's scores) are not encodable:
        # the wire format enumerates its types explicitly.
        encoder = _OBJECT_ENCODERS.get(f"{cls.__module__}.{cls.__qualname__}")
        if encoder is None:
            raise WireFormatError(
                f"cannot encode {cls.__name__!r} for the wire; "
                f"supported types: {sorted(tag for tag in _OBJECT_DECODERS)}"
            )
        _ENCODERS_BY_TYPE[cls] = encoder
    return encoder(obj)


# -- object encodings --------------------------------------------------------


def _encode_no_constraint(predicate: NoConstraint) -> Dict[str, Any]:
    return {"$type": "no_constraint", "attribute": predicate.attribute}


def _encode_range(predicate: RangePredicate) -> Dict[str, Any]:
    return {
        "$type": "range",
        "attribute": predicate.attribute,
        "low": to_wire(predicate.low),
        "high": to_wire(predicate.high),
        "include_low": predicate.include_low,
        "include_high": predicate.include_high,
    }


def _encode_set_predicate(predicate: SetPredicate) -> Dict[str, Any]:
    return {
        "$type": "set",
        "attribute": predicate.attribute,
        "values": [to_wire(value) for value in predicate.sorted_values],
    }


def _encode_exclusion(predicate: ExclusionPredicate) -> Dict[str, Any]:
    return {
        "$type": "exclusion",
        "attribute": predicate.attribute,
        "values": [to_wire(value) for value in predicate.sorted_values],
    }


def _encode_query(query: SDLQuery) -> Dict[str, Any]:
    return {
        "$type": "query",
        "predicates": [to_wire(predicate) for predicate in query.predicates],
    }


def _encode_segment(segment: Segment) -> Dict[str, Any]:
    return {
        "$type": "segment",
        "query": _encode_query(segment.query),
        "count": segment.count,
    }


def _encode_segmentation(segmentation: Segmentation) -> Dict[str, Any]:
    return {
        "$type": "segmentation",
        "context": _encode_query(segmentation.context),
        "segments": [_encode_segment(segment) for segment in segmentation.segments],
        "context_count": segmentation.context_count,
        "cut_attributes": list(segmentation.cut_attributes),
    }


def _encode_scores(scores: SegmentationScores) -> Dict[str, Any]:
    return {
        "$type": "scores",
        "entropy": to_wire(scores.entropy),
        "max_entropy": to_wire(scores.max_entropy),
        "balance": to_wire(scores.balance),
        "simplicity": scores.simplicity,
        "breadth": scores.breadth,
        "depth": scores.depth,
        "covered_fraction": to_wire(scores.covered_fraction),
    }


def _encode_ranked_answer(answer: RankedAnswer) -> Dict[str, Any]:
    return {
        "$type": "ranked_answer",
        "rank": answer.rank,
        "segmentation": _encode_segmentation(answer.segmentation),
        "scores": _encode_scores(answer.scores),
        "score": to_wire(answer.score),
    }


def _encode_trace(trace: HBCutsTrace) -> Dict[str, Any]:
    return {
        "$type": "trace",
        "initial_candidates": list(trace.initial_candidates),
        "uncuttable_attributes": list(trace.uncuttable_attributes),
        "iterations": trace.iterations,
        "pair_evaluations": trace.pair_evaluations,
        "pair_cache_hits": trace.pair_cache_hits,
        "batched_passes": trace.batched_passes,
        "compositions": [list(composition) for composition in trace.compositions],
        "indep_values": [to_wire(value) for value in trace.indep_values],
        "stop_reason": trace.stop_reason,
        "runtime_seconds": to_wire(trace.runtime_seconds),
    }


def _encode_advice(advice: Advice) -> Dict[str, Any]:
    return {
        "$type": "advice",
        "context": _encode_query(advice.context),
        "answers": [_encode_ranked_answer(answer) for answer in advice.answers],
        "trace": _encode_trace(advice.trace),
        "ranker_name": advice.ranker_name,
        "engine_operations": _encode_dict(advice.engine_operations),
        "approximate": advice.approximate,
        "error_bound": to_wire(advice.error_bound),
        "degraded": advice.degraded,
    }


#: Encoder per domain class, keyed by the class's dotted name so that no
#: domain module is imported to build the table.
_OBJECT_ENCODERS: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "repro.sdl.predicates.NoConstraint": _encode_no_constraint,
    "repro.sdl.predicates.RangePredicate": _encode_range,
    "repro.sdl.predicates.SetPredicate": _encode_set_predicate,
    "repro.sdl.predicates.ExclusionPredicate": _encode_exclusion,
    "repro.sdl.query.SDLQuery": _encode_query,
    "repro.sdl.segmentation.Segment": _encode_segment,
    "repro.sdl.segmentation.Segmentation": _encode_segmentation,
    "repro.core.metrics.SegmentationScores": _encode_scores,
    "repro.core.advisor.RankedAnswer": _encode_ranked_answer,
    "repro.core.hbcuts.HBCutsTrace": _encode_trace,
    "repro.core.advisor.Advice": _encode_advice,
}

#: The same encoders keyed by class, filled in as classes are first seen.
_ENCODERS_BY_TYPE: Dict[type, Callable[[Any], Dict[str, Any]]] = {}


# -- decoding ----------------------------------------------------------------

_domain_loaded = False


def _load_domain() -> None:
    """Bind the domain classes the decoders build (on the first ``$type``)."""
    global _domain_loaded
    namespace = globals()
    for dotted in (*_OBJECT_ENCODERS, "repro.sdl.predicates.Predicate"):
        module, _, name = dotted.rpartition(".")
        namespace[name] = getattr(importlib.import_module(module), name)
    _domain_loaded = True


def _field(payload: Dict[str, Any], name: str) -> Any:
    try:
        return payload[name]
    except KeyError:
        tag = payload.get("$type", "?")
        raise WireFormatError(
            f"wire object {tag!r} is missing required field {name!r}"
        ) from None


def _decode_no_constraint(payload: Dict[str, Any]) -> NoConstraint:
    return NoConstraint(_field(payload, "attribute"))


def _decode_range(payload: Dict[str, Any]) -> RangePredicate:
    return RangePredicate(
        _field(payload, "attribute"),
        low=from_wire(_field(payload, "low")),
        high=from_wire(_field(payload, "high")),
        include_low=bool(_field(payload, "include_low")),
        include_high=bool(_field(payload, "include_high")),
    )


def _decode_set_predicate(payload: Dict[str, Any]) -> SetPredicate:
    values = frozenset(from_wire(value) for value in _field(payload, "values"))
    return SetPredicate(_field(payload, "attribute"), values)


def _decode_exclusion(payload: Dict[str, Any]) -> ExclusionPredicate:
    values = frozenset(from_wire(value) for value in _field(payload, "values"))
    return ExclusionPredicate(_field(payload, "attribute"), values)


def _decode_query(payload: Dict[str, Any]) -> SDLQuery:
    predicates = [from_wire(predicate) for predicate in _field(payload, "predicates")]
    for predicate in predicates:
        if not isinstance(predicate, Predicate):
            raise WireFormatError(
                f"wire query contains a non-predicate entry: {predicate!r}"
            )
    return SDLQuery(predicates)


def _decode_segment(payload: Dict[str, Any]) -> Segment:
    return Segment(
        query=from_wire(_field(payload, "query")),
        count=int(_field(payload, "count")),
    )


def _decode_segmentation(payload: Dict[str, Any]) -> Segmentation:
    return Segmentation(
        context=from_wire(_field(payload, "context")),
        segments=[from_wire(segment) for segment in _field(payload, "segments")],
        context_count=int(_field(payload, "context_count")),
        cut_attributes=tuple(_field(payload, "cut_attributes")),
    )


def _decode_scores(payload: Dict[str, Any]) -> SegmentationScores:
    return SegmentationScores(
        entropy=from_wire(_field(payload, "entropy")),
        max_entropy=from_wire(_field(payload, "max_entropy")),
        balance=from_wire(_field(payload, "balance")),
        simplicity=int(_field(payload, "simplicity")),
        breadth=int(_field(payload, "breadth")),
        depth=int(_field(payload, "depth")),
        covered_fraction=from_wire(_field(payload, "covered_fraction")),
    )


def _decode_ranked_answer(payload: Dict[str, Any]) -> RankedAnswer:
    return RankedAnswer(
        rank=int(_field(payload, "rank")),
        segmentation=from_wire(_field(payload, "segmentation")),
        scores=from_wire(_field(payload, "scores")),
        score=from_wire(_field(payload, "score")),
    )


def _decode_trace(payload: Dict[str, Any]) -> HBCutsTrace:
    return HBCutsTrace(
        initial_candidates=list(_field(payload, "initial_candidates")),
        uncuttable_attributes=list(_field(payload, "uncuttable_attributes")),
        iterations=int(_field(payload, "iterations")),
        pair_evaluations=int(_field(payload, "pair_evaluations")),
        pair_cache_hits=int(_field(payload, "pair_cache_hits")),
        batched_passes=int(_field(payload, "batched_passes")),
        compositions=[
            tuple(composition) for composition in _field(payload, "compositions")
        ],
        indep_values=[from_wire(value) for value in _field(payload, "indep_values")],
        stop_reason=_field(payload, "stop_reason"),
        runtime_seconds=from_wire(_field(payload, "runtime_seconds")),
    )


def _decode_advice(payload: Dict[str, Any]) -> Advice:
    # ``approximate``/``error_bound`` arrived with the sketch tier; they
    # default rather than require so version-1 payloads written before
    # the fields existed still decode (as exact advice).
    return Advice(
        context=from_wire(_field(payload, "context")),
        answers=[from_wire(answer) for answer in _field(payload, "answers")],
        trace=from_wire(_field(payload, "trace")),
        ranker_name=_field(payload, "ranker_name"),
        engine_operations=from_wire(_field(payload, "engine_operations")),
        approximate=bool(payload.get("approximate", False)),
        error_bound=from_wire(payload.get("error_bound")),
        degraded=bool(payload.get("degraded", False)),
    )


_OBJECT_DECODERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "no_constraint": _decode_no_constraint,
    "range": _decode_range,
    "set": _decode_set_predicate,
    "exclusion": _decode_exclusion,
    "query": _decode_query,
    "segment": _decode_segment,
    "segmentation": _decode_segmentation,
    "scores": _decode_scores,
    "ranked_answer": _decode_ranked_answer,
    "trace": _decode_trace,
    "advice": _decode_advice,
}

_FLOAT_TAGS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def from_wire(payload: Any) -> Any:
    """Decode a JSON-safe structure produced by :func:`to_wire`.

    Raises
    ------
    WireFormatError
        For unknown ``$type`` tags or malformed tagged values.
    """
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, list):
        return [from_wire(item) for item in payload]
    if isinstance(payload, dict):
        try:
            return _decode_mapping(payload)
        except WireFormatError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            # A malformed tagged payload (wrong field types, unhashable
            # set members, ...) must surface as a typed wire error, never
            # crash a server thread with a bare TypeError/ValueError.
            raise WireFormatError(f"malformed wire payload: {exc}") from exc
    raise WireFormatError(f"cannot decode wire payload of type {type(payload).__name__!r}")


def _decode_mapping(payload: Dict[str, Any]) -> Any:
    if "$type" in payload:
        tag = payload["$type"]
        decoder = _OBJECT_DECODERS.get(tag)
        if decoder is None:
            raise WireFormatError(
                f"unknown wire type tag {tag!r}; "
                f"known: {sorted(_OBJECT_DECODERS)}"
            )
        if not _domain_loaded:
            _load_domain()
        return decoder(payload)
    if "$date" in payload:
        try:
            return datetime.date.fromisoformat(payload["$date"])
        except (TypeError, ValueError) as exc:
            raise WireFormatError(f"malformed $date value: {payload['$date']!r}") from exc
    if "$set" in payload:
        return frozenset(from_wire(item) for item in payload["$set"])
    if "$float" in payload:
        try:
            return _FLOAT_TAGS[payload["$float"]]
        except KeyError:
            raise WireFormatError(
                f"malformed $float value: {payload['$float']!r}"
            ) from None
    if "$dict" in payload:
        return {from_wire(key): from_wire(value) for key, value in payload["$dict"]}
    return {key: from_wire(value) for key, value in payload.items()}


# -- text form ---------------------------------------------------------------


def dumps(obj: Any, indent: int | None = None) -> str:
    """Serialise an object to the canonical wire text (schema envelope included).

    The output is deterministic: keys are emitted in a fixed order and set
    members in the codec's canonical ordering, so equal objects produce
    byte-identical text (the end-to-end parity test relies on this).
    """
    envelope = {"schema": SCHEMA_VERSION, "data": to_wire(obj)}
    return json.dumps(envelope, ensure_ascii=False, indent=indent, sort_keys=True)


def loads(text: str | bytes) -> Any:
    """Parse canonical wire text back into domain objects.

    Raises
    ------
    WireFormatError
        When the text is not valid JSON, lacks the schema envelope, or
        declares a schema version newer than this codec.
    """
    try:
        envelope = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"wire payload is not valid JSON: {exc}") from exc
    if not isinstance(envelope, dict) or "schema" not in envelope or "data" not in envelope:
        raise WireFormatError(
            "wire payload lacks the {'schema': N, 'data': ...} envelope"
        )
    schema = envelope["schema"]
    if not isinstance(schema, int) or schema < 1:
        raise WireFormatError(f"malformed schema version: {schema!r}")
    if schema > SCHEMA_VERSION:
        raise WireFormatError(
            f"payload uses schema version {schema}, "
            f"but this codec only understands up to {SCHEMA_VERSION}"
        )
    return from_wire(envelope["data"])
