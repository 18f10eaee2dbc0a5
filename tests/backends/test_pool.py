"""Tests for the shared executor pool."""

from __future__ import annotations

import os
import threading

import pytest

from repro.backends.pool import (
    MAX_WORKERS,
    ExecutorPool,
    resolve_workers,
)
from repro.errors import BackendError


class TestResolveWorkers:
    def test_explicit_value_passes_through(self):
        assert resolve_workers(3) == 3

    def test_none_and_zero_mean_one_per_core(self):
        assert 1 <= resolve_workers(None) == resolve_workers(0) <= MAX_WORKERS

    def test_one_per_core_counts_the_cores_this_process_may_use(self, monkeypatch):
        # A CPU-pinned container sees every host core in os.cpu_count().
        monkeypatch.setattr(os, "cpu_count", lambda: 96)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert resolve_workers(0) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(200)))
        assert resolve_workers(0) == MAX_WORKERS
        # Where the platform has no affinity call, the host count is used.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_workers(0) == min(96, MAX_WORKERS)

    def test_values_are_bounded(self):
        assert resolve_workers(10_000) == MAX_WORKERS

    def test_negative_is_an_error(self):
        with pytest.raises(BackendError):
            resolve_workers(-2)

    def test_only_a_worker_count_other_than_one_requests_a_pool(self):
        assert ExecutorPool.requested(None, name="x") is None
        assert ExecutorPool.requested(1, name="x") is None
        pool = ExecutorPool.requested(3, name="x")
        assert pool.workers == 3 and pool.name == "x"
        assert ExecutorPool.requested(0, name="x").workers == resolve_workers(0)


class TestExecutorPool:
    def test_map_preserves_input_order(self):
        with ExecutorPool(4) as pool:
            assert pool.map(lambda x: x * x, range(10)) == [x * x for x in range(10)]

    def test_single_worker_maps_inline(self):
        pool = ExecutorPool(1)
        thread_ids = pool.map(lambda _: threading.get_ident(), range(5))
        assert set(thread_ids) == {threading.get_ident()}
        stats = pool.stats()
        assert stats["inline_batches"] == 1
        assert stats["parallel_batches"] == 0
        assert stats["started"] is False

    def test_single_item_maps_inline_even_with_many_workers(self):
        pool = ExecutorPool(4)
        assert pool.map(lambda x: x + 1, [41]) == [42]
        assert pool.stats()["started"] is False

    def test_parallel_batches_use_worker_threads(self):
        with ExecutorPool(2) as pool:
            thread_ids = pool.map(lambda _: threading.get_ident(), range(8))
            assert threading.get_ident() not in thread_ids
            stats = pool.stats()
            assert stats["parallel_batches"] == 1
            assert stats["tasks"] == 8
            assert stats["started"] is True

    def test_worker_detection_requires_the_name_separator(self):
        # A worker of a *different* pool whose id shares this pool's id as
        # a string prefix (pool 1 vs pool 10) must not be mistaken for one
        # of ours — that would silently degrade its maps to inline.
        pool = ExecutorPool(2)
        current = threading.current_thread()
        original = current.name
        try:
            current.name = f"{pool._thread_prefix}0_0"
            assert not pool._in_worker()
            current.name = f"{pool._thread_prefix}_0"
            assert pool._in_worker()
        finally:
            current.name = original

    def test_exceptions_propagate(self):
        def explode(x):
            raise ValueError(f"boom {x}")

        with ExecutorPool(2) as pool:
            with pytest.raises(ValueError):
                pool.map(explode, range(4))
        pool_inline = ExecutorPool(1)
        with pytest.raises(ValueError):
            pool_inline.map(explode, range(4))

    def test_shared_across_threads(self):
        pool = ExecutorPool(2)
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
        pool = ExecutorPool(2)
        assert pool.map(lambda x: x, range(4)) == list(range(4))
        pool.shutdown()
        assert pool.map(lambda x: x, range(4)) == list(range(4))
        pool.shutdown()

    def test_repr_is_deterministic(self):
        assert repr(ExecutorPool(3, name="svc")) == repr(ExecutorPool(3, name="svc"))
