"""Unit tests for the shared result cache (LRU bounds, stats, thread safety)."""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.storage import ResultCache
from repro.storage.cache import _ENTRY_OVERHEAD


def _mask_entry_bytes(key: str, mask: np.ndarray) -> int:
    """What a mask entry holds: its key, its packed bits with their array
    header, the (bits, length) pair, and the fixed per-entry overhead."""
    bits = np.packbits(mask)
    assert bits.nbytes == -(-mask.size // 8)  # one bit a row
    return (
        sys.getsizeof(key)
        + sys.getsizeof(bits)
        + sys.getsizeof((bits, mask.size))
        + sys.getsizeof(mask.size)
        + _ENTRY_OVERHEAD
    )


class TestBasics:
    def test_get_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get("k", version=1) is None
        cache.put("k", 42, version=1)
        assert cache.get("k", version=1) == 42
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_get_or_compute(self):
        cache = ResultCache(capacity=4)
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or "value", version=1) == "value"
        assert cache.get_or_compute("k", lambda: calls.append(1) or "other", version=1) == "value"
        assert len(calls) == 1

    def test_disabled_cache_never_retains(self):
        cache = ResultCache(capacity=0)
        cache.put("k", 1, version=1)
        assert cache.get("k", version=1) is None
        assert not cache.enabled
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda cache: cache.get("k"),
            lambda cache: cache.peek("k"),
            lambda cache: cache.put("k", 1),
            lambda cache: cache.get_or_compute("k", lambda: 1),
            lambda cache: cache.put("k", 1, 3),  # version is keyword-only
        ],
    )
    def test_an_unversioned_call_is_a_type_error(self, call):
        with pytest.raises(TypeError):
            call(ResultCache(capacity=4))


class TestLRUBounds:
    def test_eviction_bounds_entries(self):
        cache = ResultCache(capacity=3)
        for index in range(10):
            cache.put(f"k{index}", index, version=1)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.evictions == 7
        # The most recently inserted keys survive.
        assert cache.get("k9", version=1) == 9
        assert cache.get("k0", version=1) is None

    def test_eviction_bounds_memory(self):
        """Mask-sized values: the byte accounting shrinks on eviction."""
        cache = ResultCache(capacity=2)
        mask = np.ones(10_000, dtype=bool)
        for index in range(5):
            cache.put(f"mask{index}", mask.copy(), version=1)
        stats = cache.stats()
        assert stats.entries == 2
        # Bounded by the capacity's masks (one bit a row), not by the 5
        # masks inserted.
        assert stats.approx_bytes == sum(
            _mask_entry_bytes(f"mask{index}", mask) for index in (3, 4)
        )

    def test_recently_used_entry_survives(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1, version=1)
        cache.put("b", 2, version=1)
        cache.get("a", version=1)  # refresh a; b is now least recently used
        cache.put("c", 3, version=1)
        assert cache.get("a", version=1) == 1
        assert cache.get("b", version=1) is None

    def test_overwrite_does_not_grow(self):
        cache = ResultCache(capacity=2)
        for _ in range(5):
            cache.put("k", np.ones(100, dtype=bool), version=1)
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.approx_bytes == _mask_entry_bytes("k", np.ones(100, dtype=bool))


#: Characters engine keys are cut from: a fresh key is a slice of it.
_KEY_TEXT = "".join(random.Random(5).choices("abcdefgh_:=<>[], 0123456789.", k=4096))


def _engine_key(rng: random.Random, prefix: str) -> str:
    """A fresh key as long as the engine's over VOC (160–310 characters)."""
    start = rng.randrange(len(_KEY_TEXT) - 310)
    return prefix + _KEY_TEXT[start:start + rng.randint(160, 310) - len(prefix)]


class TestApproxBytes:
    @pytest.mark.parametrize("kind, entries", [
        ("count", 20_000), ("median", 20_000), ("minmax", 20_000), ("mask", 2_000),
    ])
    def test_approx_bytes_tracks_tracemalloc(self, kind, entries):
        """The cache's own byte count is within 25 % of what it really holds:
        keys it formed and owns, values, records and slots."""
        rng = random.Random(7)
        mask = np.random.default_rng(3).random(10_000) < 0.5
        values = {
            # Above 256: smaller ints are shared singletons no entry owns.
            "count": lambda: rng.randint(257, 10**6),
            "median": lambda: rng.random() * 1000,
            "minmax": lambda: (rng.random(), rng.random() * 1000),
            "mask": lambda: mask,
        }[kind]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = ResultCache(capacity=entries)
            for index in range(entries):
                cache.put(_engine_key(rng, f"{kind}:tonnage:{index}:"), values(), version=1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == entries
        assert 0.75 * held <= cache.stats().approx_bytes <= 1.25 * held


class TestThreadSafety:
    def test_concurrent_traffic_keeps_consistent_stats(self):
        cache = ResultCache(capacity=64)
        lookups_per_thread = 200
        threads = 8

        def hammer(thread_index: int) -> None:
            for i in range(lookups_per_thread):
                key = f"k{(thread_index * 7 + i) % 32}"
                if cache.get(key, version=1) is None:
                    cache.put(key, i, version=1)

        workers = [
            threading.Thread(target=hammer, args=(index,)) for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        stats = cache.stats()
        assert stats.hits + stats.misses == threads * lookups_per_thread
        assert stats.entries <= 64
        assert stats.evictions == 0  # 32 distinct keys fit into 64 slots

    def test_readers_behind_the_data_never_replace_newer_entries(self):
        """Readers at version 1 race readers at version 2 on the same keys and
        outlast them: once a version-2 entry is in, no version-1 put or
        lookup removes it."""
        cache = ResultCache(capacity=64)
        keys = 16
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def hammer(version: int, rounds: int) -> None:
                for i in range(rounds):
                    key = f"k{i % keys}"
                    cache.get_or_compute(key, lambda: (version, key), version=version)

            # The version-2 readers start first, so the version-1 ones outlast them.
            workers = [
                threading.Thread(target=hammer, args=(2, 2 * keys) if index < 4 else (1, 300))
                for index in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        for index in range(keys):
            assert cache.peek(f"k{index}", version=2) == (2, f"k{index}")
        stats = cache.stats()
        assert stats.hits + stats.misses == 4 * 300 + 4 * 2 * keys
