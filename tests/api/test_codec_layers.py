"""The codec's domain layer is keyed by dotted class name, not by import."""

from __future__ import annotations

import importlib

import pytest

from repro.api.codec import _OBJECT_ENCODERS, from_wire, to_wire
from repro.errors import WireFormatError
from repro.sdl.predicates import RangePredicate


@pytest.mark.parametrize("dotted", sorted(_OBJECT_ENCODERS))
def test_every_encoder_key_names_the_class_it_encodes(dotted):
    module, _, name = dotted.rpartition(".")
    cls = getattr(importlib.import_module(module), name)
    assert f"{cls.__module__}.{cls.__qualname__}" == dotted


def test_a_subclass_is_still_not_encodable():
    class Wider(RangePredicate):
        pass

    predicate = RangePredicate("tonnage", low=1, high=2)
    assert from_wire(to_wire(predicate)) == predicate
    with pytest.raises(WireFormatError):
        to_wire(Wider("tonnage", low=1, high=2))
