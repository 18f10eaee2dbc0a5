"""Property-based tests: median splits, quantile cuts and the HB-cuts output."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.core import (
    HBCuts,
    HBCutsConfig,
    cut_query,
    entropy,
    median_split,
    quantile_cut_query,
)
from repro.errors import CannotCutError
from repro.sdl import SDLQuery, check_partition
from repro.storage import QueryEngine, Table

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMedianSplitProperties:
    @_SETTINGS
    @given(
        values=st.lists(st.integers(min_value=-10_000, max_value=10_000),
                        min_size=2, max_size=200)
    )
    def test_numeric_split_covers_every_value_exactly_once(self, values):
        table = Table.from_dict({"x": values})
        engine = QueryEngine(table)
        try:
            spec = median_split(engine, SDLQuery.over(["x"]), "x")
        except CannotCutError:
            assert len(set(values)) < 2
            return
        for value in values:
            matches = int(spec.lower.matches_value(value)) + int(spec.upper.matches_value(value))
            assert matches == 1

    @_SETTINGS
    @given(
        values=st.lists(st.sampled_from(list("abcdefgh")), min_size=2, max_size=200)
    )
    def test_nominal_split_partitions_the_value_set(self, values):
        table = Table.from_dict({"t": values})
        engine = QueryEngine(table)
        try:
            spec = median_split(engine, SDLQuery.over(["t"]), "t")
        except CannotCutError:
            assert len(set(values)) < 2
            return
        assert spec.lower.values | spec.upper.values == set(values)
        assert not spec.lower.values & spec.upper.values

    @_SETTINGS
    @given(
        values=st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=300)
    )
    def test_binary_cut_is_never_worse_than_three_to_one_on_distinct_data(self, values):
        # With at least four distinct values, the median split keeps both
        # pieces non-empty; on continuous-ish data it is roughly balanced.
        if len(set(values)) < 4:
            return
        table = Table.from_dict({"x": values})
        engine = QueryEngine(table)
        segmentation = cut_query(engine, SDLQuery.over(["x"]), "x")
        assert min(segmentation.counts) >= 1
        assert sum(segmentation.counts) == len(values)


class TestQuantileCutProperties:
    @_SETTINGS
    @given(
        values=st.lists(st.integers(min_value=0, max_value=10_000), min_size=8, max_size=300),
        pieces=st.integers(min_value=2, max_value=6),
    )
    def test_equal_frequency_cut_partitions(self, values, pieces):
        table = Table.from_dict({"x": values})
        engine = QueryEngine(table)
        try:
            segmentation = quantile_cut_query(
                engine,
                SDLQuery.over(["x"]),
                "x",
                quantiles=[index / pieces for index in range(1, pieces)],
            )
        except CannotCutError:
            return
        assert 2 <= segmentation.depth <= pieces
        assert sum(segmentation.counts) == len(values)
        assert check_partition(engine, segmentation).is_partition


class TestHBCutsProperties:
    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        rows=st.integers(min_value=50, max_value=400),
        cardinality=st.integers(min_value=2, max_value=6),
    )
    def test_every_answer_is_a_valid_partition_sorted_by_entropy(self, seed, rows, cardinality):
        rng = np.random.default_rng(seed)
        table = Table.from_dict(
            {
                "a": rng.integers(0, cardinality, size=rows).tolist(),
                "b": rng.integers(0, 100, size=rows).tolist(),
                "c": [f"v{int(v)}" for v in rng.integers(0, cardinality, size=rows)],
            }
        )
        engine = QueryEngine(table)
        result = HBCuts(HBCutsConfig(max_depth=8)).run(engine, SDLQuery.over(["a", "b", "c"]))
        entropies = [entropy(segmentation) for segmentation in result]
        assert entropies == sorted(entropies, reverse=True)
        for segmentation in result:
            assert segmentation.depth <= 8
            assert check_partition(engine, segmentation).is_partition
            assert sum(segmentation.counts) == rows
