"""Property-based tests: entropy, balance and INDEP invariants (Section 3, Prop. 1)."""

from __future__ import annotations

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import (
    balance,
    cut_query,
    entropy,
    indep,
    max_entropy,
    mutual_information,
    score_segmentation,
)
from repro.core.dependence import indep_from_table
from repro.errors import CannotCutError
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, Segment, Segmentation
from repro.storage import QueryEngine, Table

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _segmentation_from_counts(counts) -> Segmentation:
    context = SDLQuery([NoConstraint("x")])
    segments = []
    low = 0
    for count in counts:
        segments.append(Segment(context.refine(RangePredicate("x", low, low + 9)), count))
        low += 10
    return Segmentation(context, segments, cut_attributes=("x",))


counts_strategy = st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12)


class TestEntropyBounds:
    @_SETTINGS
    @given(counts=counts_strategy)
    def test_entropy_within_zero_and_log_m(self, counts):
        if sum(counts) == 0:
            return
        segmentation = _segmentation_from_counts(counts)
        value = entropy(segmentation)
        assert 0.0 <= value <= max_entropy(segmentation) + 1e-9

    @_SETTINGS
    @given(counts=counts_strategy)
    def test_balance_within_unit_interval(self, counts):
        if sum(counts) == 0:
            return
        segmentation = _segmentation_from_counts(counts)
        assert 0.0 <= balance(segmentation) <= 1.0 + 1e-9

    @_SETTINGS
    @given(pieces=st.integers(min_value=1, max_value=12),
           size=st.integers(min_value=1, max_value=500))
    def test_perfectly_balanced_segmentation_reaches_log_m(self, pieces, size):
        segmentation = _segmentation_from_counts([size] * pieces)
        assert entropy(segmentation) == pytest.approx(math.log(pieces), abs=1e-9)

    @_SETTINGS
    @given(counts=counts_strategy, extra=st.integers(min_value=1, max_value=1000))
    def test_adding_an_empty_piece_never_changes_entropy(self, counts, extra):
        if sum(counts) == 0:
            return
        base = _segmentation_from_counts(counts)
        padded = _segmentation_from_counts(counts + [0])
        assert entropy(padded) == pytest.approx(entropy(base))

    @_SETTINGS
    @given(counts=counts_strategy)
    def test_scores_are_internally_consistent(self, counts):
        if sum(counts) == 0:
            return
        segmentation = _segmentation_from_counts(counts)
        scores = score_segmentation(segmentation)
        assert scores.entropy == pytest.approx(entropy(segmentation))
        assert scores.depth == len(counts)
        assert scores.covered_fraction == pytest.approx(1.0)


class TestIndepTableProperties:
    tables_strategy = st.lists(
        st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=5),
        min_size=2,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)

    @_SETTINGS
    @given(rows=tables_strategy)
    def test_indep_between_zero_and_one(self, rows):
        table = np.array(rows, dtype=float)
        value = indep_from_table(table)
        assert 0.0 <= value <= 1.0 + 1e-9

    @_SETTINGS
    @given(rows=tables_strategy)
    def test_mutual_information_non_negative(self, rows):
        assert mutual_information(np.array(rows, dtype=float)) >= -1e-12

    @_SETTINGS
    @given(
        row_weights=st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=4),
        column_weights=st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=4),
        scale=st.integers(min_value=1, max_value=20),
    )
    def test_outer_product_tables_are_independent(self, row_weights, column_weights, scale):
        # A contingency table that factors into its marginals describes
        # independent variables: INDEP must be exactly 1.
        table = np.outer(row_weights, column_weights).astype(float) * scale
        assert indep_from_table(table) == pytest.approx(1.0, abs=1e-9)
        assert mutual_information(table) == pytest.approx(0.0, abs=1e-9)


class TestProposition1OnData:
    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=200, max_value=1500),
    )
    def test_independent_columns_have_indep_close_to_one(self, seed, rows):
        rng = np.random.default_rng(seed)
        table = Table.from_dict(
            {
                "x": rng.integers(0, 4, size=rows).tolist(),
                "y": rng.integers(0, 4, size=rows).tolist(),
            }
        )
        engine = QueryEngine(table)
        context = SDLQuery.over(["x", "y"])
        try:
            first = cut_query(engine, context, "x")
            second = cut_query(engine, context, "y")
        except CannotCutError:
            return
        value = indep(engine, first, second)
        # Finite-sample noise keeps it slightly below 1, never above.
        assert 0.9 <= value <= 1.0 + 1e-9

    @_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_copied_column_has_indep_one_half(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2, size=400).tolist()
        table = Table.from_dict({"x": values, "y": list(values)})
        engine = QueryEngine(table)
        context = SDLQuery.over(["x", "y"])
        try:
            first = cut_query(engine, context, "x")
            second = cut_query(engine, context, "y")
        except CannotCutError:
            return
        assert indep(engine, first, second) == pytest.approx(0.5, abs=0.01)
