"""The pure-Python quantile sketch is the NumPy sketch it replaced.

:class:`repro.obs.metrics.MergeableQuantileSketch` used to live in
``storage/sketches.py`` as NumPy code; it moved so that the cluster router
can merge node histograms without loading NumPy.  ``_NumpySketch`` below
is that implementation verbatim (constants inlined, docstrings trimmed),
kept as the reference: over random finite batches, budgets and merge
orders, both must hold the same items and answer the same quantiles,
exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MergeableQuantileSketch


class _NumpySketch:
    __slots__ = ("budget", "values", "weights", "total_weight", "rank_error")

    def __init__(self, budget, values, weights, total_weight, rank_error):
        self.budget = int(budget)
        self.values = values
        self.weights = weights
        self.total_weight = int(total_weight)
        self.rank_error = int(rank_error)

    @classmethod
    def from_values(cls, values, budget=512):
        budget = max(2, int(budget))
        data = np.sort(np.asarray(values, dtype=np.float64))
        n = int(data.size)
        if n <= budget:
            return cls(budget, data, np.ones(n, dtype=np.int64), n, 0)
        stride = -(-n // budget)  # ceil
        starts = np.arange(0, n, stride, dtype=np.int64)
        stops = np.minimum(starts + stride, n)
        centres = starts + (stops - starts - 1) // 2
        return cls(
            budget,
            data[centres],
            (stops - starts).astype(np.int64),
            n,
            stride,
        )

    @classmethod
    def empty(cls, budget=512):
        return cls(
            max(2, int(budget)),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            0,
            0,
        )

    def merge(self, other):
        budget = max(self.budget, other.budget)
        if other.total_weight == 0:
            return _NumpySketch(
                budget, self.values, self.weights, self.total_weight, self.rank_error
            )
        if self.total_weight == 0:
            return _NumpySketch(
                budget, other.values, other.weights, other.total_weight, other.rank_error
            )
        values = np.concatenate([self.values, other.values])
        weights = np.concatenate([self.weights, other.weights])
        order = np.argsort(values, kind="stable")
        values, weights = values[order], weights[order]
        total = self.total_weight + other.total_weight
        error = self.rank_error + other.rank_error
        merged = _NumpySketch(budget, values, weights, total, error)
        if values.size > budget:
            merged = merged._compacted()
        return merged

    def _compacted(self):
        cumulative = np.cumsum(self.weights)
        total = int(cumulative[-1])
        stride = -(-total // self.budget)  # ceil
        edges = np.minimum(
            np.arange(1, self.budget + 1, dtype=np.int64) * stride, total
        )
        edges = np.unique(edges)
        starts = np.concatenate([np.zeros(1, dtype=np.int64), edges[:-1]])
        new_weights = edges - starts
        midpoints = starts + (new_weights + 1) // 2
        indices = np.searchsorted(cumulative, midpoints, side="left")
        return _NumpySketch(
            self.budget,
            self.values[indices],
            new_weights,
            total,
            self.rank_error + stride,
        )

    def quantile(self, fraction):
        if self.total_weight == 0:
            raise ValueError("quantile of an empty sketch")
        fraction = min(1.0, max(0.0, float(fraction)))
        target = int(round(fraction * (self.total_weight - 1))) + 1
        cumulative = np.cumsum(self.weights)
        index = int(np.searchsorted(cumulative, target, side="left"))
        return float(self.values[min(index, self.values.size - 1)])


_batches = st.lists(
    st.tuples(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=300),
        st.integers(min_value=2, max_value=48),
    ),
    min_size=1,
    max_size=6,
)
_fractions = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5)


def _assert_same(new, reference, fractions):
    assert new.budget == reference.budget
    assert new.values == [float(value) for value in reference.values]
    assert new.weights == [int(weight) for weight in reference.weights]
    assert new.total_weight == reference.total_weight
    assert new.rank_error == reference.rank_error
    if reference.total_weight:
        for fraction in fractions:
            assert new.quantile(fraction) == reference.quantile(fraction)


def _fold(sketches, balanced):
    """Merge left to right, or as a balanced pairwise tree."""
    if not balanced:
        merged = sketches[0]
        for sketch in sketches[1:]:
            merged = merged.merge(sketch)
        return merged
    while len(sketches) > 1:
        pairs = [sketches[i : i + 2] for i in range(0, len(sketches), 2)]
        sketches = [pair[0].merge(pair[1]) if len(pair) == 2 else pair[0] for pair in pairs]
    return sketches[0]


@given(_batches, st.randoms(use_true_random=False), st.booleans(), _fractions)
@settings(max_examples=200, deadline=None)
def test_builds_and_merges_match_the_numpy_sketch(batches, random, balanced, fractions):
    random.shuffle(batches)
    new = [MergeableQuantileSketch.from_values(data, budget) for data, budget in batches]
    old = [_NumpySketch.from_values(np.asarray(data), budget) for data, budget in batches]
    for mine, theirs in zip(new, old):
        _assert_same(mine, theirs, fractions)
    _assert_same(_fold(new, balanced), _fold(old, balanced), fractions)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
       st.integers(min_value=2, max_value=16))
@settings(max_examples=50, deadline=None)
def test_merging_into_an_empty_sketch_matches(data, budget):
    new = MergeableQuantileSketch.empty(budget).merge(
        MergeableQuantileSketch.from_values(data, budget)
    )
    old = _NumpySketch.empty(budget).merge(_NumpySketch.from_values(np.asarray(data), budget))
    _assert_same(new, old, [0.0, 0.5, 1.0])
