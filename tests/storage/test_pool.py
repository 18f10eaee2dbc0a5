"""Tests for the shard pool: the process's one pool and injected ones."""

from __future__ import annotations

import os
import threading

import pytest

from repro.storage.partition import MAX_WORKERS, ShardPool, available_cpus, shared_pool


class TestAvailableCpus:
    @pytest.fixture(autouse=True)
    def _unread(self):
        available_cpus.cache_clear()
        yield
        available_cpus.cache_clear()

    def test_counts_the_cores_this_process_may_use(self, monkeypatch):
        # A CPU-pinned container sees every host core in os.cpu_count().
        monkeypatch.setattr(os, "cpu_count", lambda: 96)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert available_cpus() == 2

    def test_is_capped(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(200)), raising=False)
        assert available_cpus() == MAX_WORKERS

    def test_falls_back_to_the_host_count_without_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 96)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert available_cpus() == min(96, MAX_WORKERS)

    def test_is_read_once(self, monkeypatch):
        first = available_cpus()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(7)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert available_cpus() == first


class TestShardPool:
    def test_threads_are_bounded(self):
        assert ShardPool(10_000).workers == MAX_WORKERS
        assert ShardPool(0).workers == 1

    def test_map_preserves_input_order(self):
        pool = ShardPool(4)
        try:
            assert pool.map(lambda x: x * x, range(10)) == [x * x for x in range(10)]
        finally:
            pool.shutdown()

    def test_single_thread_maps_inline(self):
        pool = ShardPool(1)
        thread_ids = pool.map(lambda _: threading.get_ident(), range(5))
        assert set(thread_ids) == {threading.get_ident()}
        assert pool._executor is None

    def test_single_item_maps_inline_even_with_many_threads(self):
        pool = ShardPool(4)
        assert pool.map(lambda x: x + 1, [41]) == [42]
        assert pool._executor is None

    def test_larger_batches_use_pool_threads(self):
        pool = ShardPool(2)
        try:
            thread_ids = pool.map(lambda _: threading.get_ident(), range(8))
            assert threading.get_ident() not in thread_ids
            assert pool._executor is not None
        finally:
            pool.shutdown()

    def test_exceptions_propagate(self):
        def explode(x):
            raise ValueError(f"boom {x}")

        for workers in (1, 2):
            pool = ShardPool(workers)
            with pytest.raises(ValueError):
                pool.map(explode, range(4))
            pool.shutdown()

    def test_shared_across_threads(self):
        pool = ShardPool(2)
        results = []

        def worker(offset):
            results.append(pool.map(lambda x: x + offset, range(4)))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pool.shutdown()
        assert sorted(r[0] for r in results) == list(range(6))

    def test_usable_after_shutdown(self):
        pool = ShardPool(2)
        assert pool.map(lambda x: x, range(4)) == list(range(4))
        pool.shutdown()
        assert pool.map(lambda x: x, range(4)) == list(range(4))
        pool.shutdown()


def test_a_process_has_one_pool_one_thread_per_cpu():
    assert shared_pool() is shared_pool()
    assert shared_pool().workers == available_cpus()
