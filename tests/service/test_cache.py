"""Unit tests for the shared result cache (LRU bounds, stats, thread safety)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.storage import ResultCache


class TestBasics:
    def test_get_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get("k", version=None) is None
        cache.put("k", 42, version=None)
        assert cache.get("k", version=None) == 42
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_get_or_compute(self):
        cache = ResultCache(capacity=4)
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or "value", version=None) == "value"
        assert cache.get_or_compute("k", lambda: calls.append(1) or "other", version=None) == "value"
        assert len(calls) == 1

    def test_disabled_cache_never_retains(self):
        cache = ResultCache(capacity=0)
        cache.put("k", 1, version=None)
        assert cache.get("k", version=None) is None
        assert not cache.enabled
        assert len(cache) == 0

    def test_clear_keeps_statistics(self):
        cache = ResultCache(capacity=4)
        cache.put("k", 1, version=None)
        cache.get("k", version=None)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1
        assert cache.stats().approx_bytes == 0

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
            cache.put(f"k{index}", index, version=None)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.evictions == 7
        # The most recently inserted keys survive.
        assert cache.get("k9", version=None) == 9
        assert cache.get("k0", version=None) is None

    def test_eviction_bounds_memory(self):
        """Mask-sized values: the byte accounting shrinks on eviction."""
        cache = ResultCache(capacity=2)
        mask = np.ones(10_000, dtype=bool)
        for index in range(5):
            cache.put(f"mask{index}", mask.copy(), version=None)
        stats = cache.stats()
        assert stats.entries == 2
        # Bounded by capacity × mask size (one bit a row), not by the 5
        # masks inserted.
        assert stats.approx_bytes == 2 * (mask.size // 8)

    def test_recently_used_entry_survives(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1, version=None)
        cache.put("b", 2, version=None)
        cache.get("a", version=None)  # refresh a; b is now least recently used
        cache.put("c", 3, version=None)
        assert cache.get("a", version=None) == 1
        assert cache.get("b", version=None) is None

    def test_overwrite_does_not_grow(self):
        cache = ResultCache(capacity=2)
        for _ in range(5):
            cache.put("k", np.ones(100, dtype=bool), version=None)
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.approx_bytes == 13  # ceil(100 / 8)


class TestThreadSafety:
    def test_concurrent_traffic_keeps_consistent_stats(self):
        cache = ResultCache(capacity=64)
        lookups_per_thread = 200
        threads = 8

        def hammer(thread_index: int) -> None:
            for i in range(lookups_per_thread):
                key = f"k{(thread_index * 7 + i) % 32}"
                if cache.get(key, version=None) is None:
                    cache.put(key, i, version=None)

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
