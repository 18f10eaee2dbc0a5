"""Unit tests for the mergeable sketch tier (:mod:`repro.storage.sketches`).

The bound proofs: every estimate a sketch reports must sit within the
error it advertises — exactly, since construction is deterministic —
across builds, merges and compactions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.partition import PartitionedTable
from repro.storage.sketches import (
    MergeableQuantileSketch,
    NominalCountSketch,
    TableSketches,
)
from repro.workloads import generate_voc

_floats = st.floats(-1e9, 1e9, allow_nan=False)


def _rank_tolerance(sketch) -> int:
    """The ranks a quantile answer may be off by: the tracked compaction
    error plus the heaviest retained item (an answer lands on a whole item)."""
    return sketch.rank_error + max(sketch.weights, default=0)


class TestQuantileSketchBuild:
    def test_small_input_is_held_exactly(self):
        sketch = MergeableQuantileSketch.from_values(np.array([3.0, 1.0, 2.0]), 8)
        assert sketch.rank_error == 0
        assert sketch.total_weight == 3
        assert list(sketch.values) == [1.0, 2.0, 3.0]
        assert sketch.quantile(0.5) == 2.0

    def test_large_input_compacts_under_budget(self):
        sketch = MergeableQuantileSketch.from_values(np.arange(10_000.0), 64)
        assert len(sketch.values) <= 64
        assert sketch.total_weight == 10_000
        assert sketch.rank_error > 0
        assert _rank_tolerance(sketch) < 0.05 * sketch.total_weight

    def test_identical_inputs_build_identical_sketches(self):
        data = np.random.default_rng(3).normal(size=5000)
        a = MergeableQuantileSketch.from_values(data, 128)
        b = MergeableQuantileSketch.from_values(data.copy(), 128)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.weights, b.weights)
        assert a.rank_error == b.rank_error

    def test_empty_sketch_raises_on_quantile(self):
        sketch = MergeableQuantileSketch.empty(16)
        assert sketch.total_weight == 0
        assert _rank_tolerance(sketch) == 0
        with pytest.raises(ValueError):
            sketch.quantile(0.5)


class TestQuantileSketchBounds:
    @given(
        st.lists(
            st.lists(_floats, min_size=0, max_size=500),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_merged_quantiles_within_advertised_rank_error(self, shards, budget):
        data = np.sort(np.concatenate([np.asarray(s, dtype=float) for s in shards]))
        merged = MergeableQuantileSketch.empty(budget)
        for shard in shards:
            merged = merged.merge(
                MergeableQuantileSketch.from_values(np.asarray(shard), budget)
            )
        assert merged.total_weight == data.size
        if data.size == 0:
            return
        tolerance = _rank_tolerance(merged)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            estimate = merged.quantile(q)
            target = round(q * (data.size - 1))
            low = np.searchsorted(data, estimate, side="left")
            high = np.searchsorted(data, estimate, side="right") - 1
            distance = max(0, int(low - target), int(target - high))
            assert distance <= tolerance

    def test_merge_accumulates_error_honestly(self):
        rng = np.random.default_rng(11)
        parts = [rng.normal(size=3000) for _ in range(4)]
        merged = MergeableQuantileSketch.empty(32)
        for part in parts:
            merged = merged.merge(MergeableQuantileSketch.from_values(part, 32))
        data = np.sort(np.concatenate(parts))
        assert merged.rank_error >= 4 * (3000 // 32)  # the parts' errors add
        rank = np.searchsorted(data, merged.quantile(0.5))
        assert abs(rank - data.size / 2) <= _rank_tolerance(merged)
        assert _rank_tolerance(merged) < data.size / 2  # the bound stays informative


class TestNominalCountSketch:
    def test_under_cap_is_exact(self):
        sketch = NominalCountSketch.from_counts({"a": 5, "b": 3}, cap=8)
        assert sketch.estimate("a") == (5, 0)
        assert sketch.estimate("missing") == (0, 0)
        assert sketch.spilled_weight == 0

    def test_over_cap_spill_accounting(self):
        counts = {f"v{i}": i + 1 for i in range(10)}  # v9 -> 10 ... v0 -> 1
        sketch = NominalCountSketch.from_counts(counts, cap=4)
        assert len(sketch.counts) == 4
        # The four largest survive; the spilled mass is the rest, exactly.
        assert set(sketch.counts) == {"v9", "v8", "v7", "v6"}
        assert sketch.spilled_weight == sum(range(1, 7))
        assert sketch.max_dropped == 6
        count, undercount = sketch.estimate("v5")
        assert count == 0 and undercount == 6

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from([f"k{i}" for i in range(12)]),
                st.integers(min_value=1, max_value=50),
                max_size=12,
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_merged_estimates_within_undercount_bound(self, shard_counts, cap):
        merged = None
        exact: dict = {}
        for counts in shard_counts:
            for key, count in counts.items():
                exact[key] = exact.get(key, 0) + count
            sketch = NominalCountSketch.from_counts(counts, cap=cap)
            merged = sketch if merged is None else merged.merge(sketch)
        assert merged is not None
        assert merged.total_weight == sum(exact.values())
        for key in list(exact) + ["absent"]:
            estimate, undercount = merged.estimate(key)
            true = exact.get(key, 0)
            assert estimate <= true  # never overcounts
            assert true - estimate <= undercount

    def test_deterministic_retention_order(self):
        counts = {"b": 2, "a": 2, "c": 2}
        first = NominalCountSketch.from_counts(counts, cap=2)
        second = NominalCountSketch.from_counts(dict(reversed(counts.items())), cap=2)
        assert first.counts == second.counts


class TestTableSketchesTier:
    @pytest.fixture(scope="class")
    def sharded(self):
        return PartitionedTable(generate_voc(rows=600, seed=9), partitions=4)

    def test_quantile_sketches_only_for_numeric_columns(self, sharded):
        tier = TableSketches(sharded, 64)
        assert tier.quantile_sketch(0, "tonnage") is not None
        assert tier.quantile_sketch(0, "type_of_boat") is None
        assert tier.merged_quantile("type_of_boat") is None
        assert tier.is_nominal("type_of_boat")
        assert not tier.is_nominal("tonnage")

    def test_merged_stats_match_exact_extrema(self, sharded):
        tier = TableSketches(sharded, 64)
        column = sharded.table.column("tonnage")
        rows, valid, minimum, maximum = tier.merged_stats("tonnage")
        assert rows == sharded.num_rows
        assert minimum == column.minimum()
        assert maximum == column.maximum()

    def test_merged_nominal_matches_exact_value_counts_under_cap(self, sharded):
        tier = TableSketches(sharded, 64)
        merged = tier.merged_nominal("type_of_boat")
        assert merged.counts == sharded.table.column("type_of_boat").value_counts()
        assert merged.spilled_weight == 0
