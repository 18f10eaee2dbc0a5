"""The packed result cache against the dict-of-arrays cache it replaced.

:class:`~repro.storage.cache.ResultCache` stores selection masks
``np.packbits``-ed.  That must be invisible: a random script of
``put/get/peek/get_or_compute/evict_superseded`` calls is replayed against
the cache and against :class:`_DictOfArrays` — the previous implementation's
semantics, kept here as the reference — and every returned value and every
statistic must agree.  ``approx_bytes`` is checked against the byte rule
recomputed from the reference's entries: each entry's key, its value as
stored (a mask at one bit a row, beside its length) and the fixed
per-entry overhead.
"""

from __future__ import annotations

import sys
from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.cache import _ENTRY_OVERHEAD, CacheStats, ResultCache

_MASK_LENGTHS = (0, 1, 7, 8, 9, 10_001)


class _DictOfArrays:
    """The unpacked LRU: values kept as given (arrays copied, so the test
    may scribble on what a lookup returned)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.versions = {}
        self.hits = self.misses = self.evictions = self.puts = self.invalidations = 0

    def _drop(self, key):
        del self.entries[key]
        del self.versions[key]

    def get(self, key, version):
        value = self.entries.get(key)
        if value is None or self.versions[key] > version:
            self.misses += 1
            return None
        if self.versions[key] < version:
            self._drop(key)
            self.invalidations += 1
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key, version):
        value = self.entries.get(key)
        if value is None or self.versions[key] != version:
            return None
        return value

    def put(self, key, value, version):
        if key in self.entries and self.versions[key] > version:
            return  # older than the entry held: ignored
        self.entries[key] = value.copy() if isinstance(value, np.ndarray) else value
        self.entries.move_to_end(key)
        self.versions[key] = version
        self.puts += 1
        while len(self.entries) > self.capacity:
            evicted, _ = self.entries.popitem(last=False)
            del self.versions[evicted]
            self.evictions += 1

    def get_or_compute(self, key, compute, version):
        value = self.get(key, version)
        if value is None:
            value = compute()
            self.put(key, value, version)
        return value

    def evict_superseded(self, version):
        stale = [key for key, tag in self.versions.items() if tag < version]
        for key in stale:
            self._drop(key)
        self.invalidations += len(stale)
        return len(stale)

    def entry_bytes(self):
        """What the entries hold with every mask at one bit per row."""
        return sum(
            sys.getsizeof(key) + _stored_bytes(value) + _ENTRY_OVERHEAD
            for key, value in self.entries.items()
        )


def _stored_bytes(value):
    if isinstance(value, np.ndarray):  # packed bits, beside the row count
        value = (np.packbits(value), len(value))
    if isinstance(value, tuple):
        return sys.getsizeof(value) + sum(map(sys.getsizeof, value))
    return sys.getsizeof(value)


@st.composite
def _masks(draw):
    length = draw(st.sampled_from(_MASK_LENGTHS))
    fill = draw(st.sampled_from(("random", "true", "false")))
    if fill == "random":
        seed = draw(st.integers(0, 2**16))
        return np.random.default_rng(seed).random(length) < 0.5
    return np.full(length, fill == "true", dtype=bool)


_values = st.one_of(
    _masks(),
    st.integers(-10, 10**12),
    st.tuples(st.integers(0, 99), st.floats(allow_nan=False)),
)
_keys = st.sampled_from([f"k{index}" for index in range(6)])
_versions = st.integers(1, 3)
_operations = st.one_of(
    st.tuples(st.just("put"), _keys, _values, _versions),
    st.tuples(st.just("get"), _keys, _versions),
    st.tuples(st.just("peek"), _keys, _versions),
    # A producer may come back empty-handed: ``None`` is stored and reads
    # as a miss ever after.
    st.tuples(st.just("get_or_compute"), _keys, st.one_of(st.none(), _values), _versions),
    st.tuples(st.just("evict_superseded"), st.integers(1, 4)),
)


def _assert_same(actual, expected):
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray) and actual.dtype == np.bool_
        assert np.array_equal(actual, expected)
        # Scribbling on what a lookup returned must not reach the next one.
        actual[...] = ~actual
    else:
        assert type(actual) is type(expected) and actual == expected


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 4), script=st.lists(_operations, max_size=40))
def test_packing_is_invisible(capacity, script):
    cache, reference = ResultCache(capacity=capacity), _DictOfArrays(capacity)
    for name, *arguments in script:
        if name == "get_or_compute":
            key, value, version = arguments
            actual = cache.get_or_compute(key, lambda: value, version=version)
            expected = reference.get_or_compute(key, lambda: value, version)
        elif name == "evict_superseded":
            actual = cache.evict_superseded(*arguments)
            expected = reference.evict_superseded(*arguments)
        else:
            *positional, version = arguments
            actual = getattr(cache, name)(*positional, version=version)
            expected = getattr(reference, name)(*arguments)
        _assert_same(actual, expected)

        assert cache.stats() == CacheStats(
            capacity=capacity,
            entries=len(reference.entries),
            hits=reference.hits,
            misses=reference.misses,
            evictions=reference.evictions,
            puts=reference.puts,
            approx_bytes=reference.entry_bytes(),
            invalidations=reference.invalidations,
        )
