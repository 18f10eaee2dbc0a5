"""Unit tests for the workload generator building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    dependent_categorical_series,
    make_rng,
    numeric_from_category,
    year_series,
    zipf_categorical_series,
)
from repro.workloads.generators import categorical_series


class TestCategoricalSeries:
    def test_respects_requested_length(self):
        values = categorical_series(make_rng(1), 100, ["a", "b"])
        assert len(values) == 100
        assert set(values) <= {"a", "b"}

    def test_probabilities_bias_the_draw(self):
        values = categorical_series(make_rng(1), 2000, ["a", "b"], [0.9, 0.1])
        assert values.count("a") > values.count("b") * 3

    def test_deterministic_given_seed(self):
        assert categorical_series(make_rng(7), 50, ["a", "b"]) == categorical_series(
            make_rng(7), 50, ["a", "b"]
        )

    def test_invalid_arguments(self):
        with pytest.raises(WorkloadError):
            categorical_series(make_rng(1), 0, ["a"])
        with pytest.raises(WorkloadError):
            categorical_series(make_rng(1), 10, [])
        with pytest.raises(WorkloadError):
            categorical_series(make_rng(1), 10, ["a", "b"], [0.5])
        with pytest.raises(WorkloadError):
            categorical_series(make_rng(1), 10, ["a", "b"], [-1.0, 2.0])
        with pytest.raises(WorkloadError):
            categorical_series(make_rng(1), 10, ["a", "b"], [0.0, 0.0])


class TestZipfSeries:
    def test_first_category_is_most_popular(self):
        values = zipf_categorical_series(make_rng(2), 5000, [f"c{i}" for i in range(8)])
        counts = [values.count(f"c{i}") for i in range(8)]
        assert counts[0] == max(counts)
        assert counts[0] > counts[-1]

    def test_invalid_exponent(self):
        with pytest.raises(WorkloadError):
            zipf_categorical_series(make_rng(1), 10, ["a", "b"], exponent=0.0)


class TestDependentCategoricalSeries:
    def test_children_mostly_follow_the_mapping(self):
        parents = ["p"] * 1000 + ["q"] * 1000
        mapping = {"p": ["x"], "q": ["y"]}
        children = dependent_categorical_series(make_rng(3), parents, mapping, noise=0.1)
        agreement = sum(
            1 for parent, child in zip(parents, children)
            if (parent == "p" and child == "x") or (parent == "q" and child == "y")
        )
        assert agreement > 1600

    def test_noise_one_is_uniform(self):
        parents = ["p"] * 2000
        mapping = {"p": ["x"]}
        children = dependent_categorical_series(
            make_rng(3), parents, mapping, noise=1.0, all_categories=["x", "y"]
        )
        assert 700 < children.count("y") < 1300

    def test_unknown_parent_falls_back_to_full_set(self):
        children = dependent_categorical_series(
            make_rng(3), ["unknown"], {"p": ["x"]}, noise=0.0, all_categories=["x", "y"]
        )
        assert children[0] in {"x", "y"}

    def test_invalid_noise(self):
        with pytest.raises(WorkloadError):
            dependent_categorical_series(make_rng(1), ["p"], {"p": ["x"]}, noise=2.0)

    def test_empty_category_set_rejected(self):
        with pytest.raises(WorkloadError):
            dependent_categorical_series(make_rng(1), ["p"], {}, all_categories=[])


class TestNumericFromCategory:
    def test_category_means_are_recovered(self):
        parents = ["low"] * 500 + ["high"] * 500
        values = numeric_from_category(
            make_rng(4), parents, means={"low": 10.0, "high": 100.0},
            spreads={"low": 1.0, "high": 1.0},
        )
        low_mean = np.mean(values[:500])
        high_mean = np.mean(values[500:])
        assert low_mean == pytest.approx(10.0, abs=1.0)
        assert high_mean == pytest.approx(100.0, abs=1.0)

    def test_bounds_are_enforced(self):
        values = numeric_from_category(
            make_rng(4), ["a"] * 200, means={"a": 0.0}, spreads={"a": 10.0},
            minimum=-5.0, maximum=5.0,
        )
        assert min(values) >= -5.0
        assert max(values) <= 5.0

    def test_integer_rounding(self):
        values = numeric_from_category(
            make_rng(4), ["a"] * 10, means={"a": 3.0}, spreads={"a": 0.5}, integer=True
        )
        assert all(float(v).is_integer() for v in values)

    def test_unknown_category_uses_default(self):
        values = numeric_from_category(
            make_rng(4), ["mystery"], means={"a": 5.0}, spreads={"a": 1.0}
        )
        assert len(values) == 1


class TestYearSeries:
    def test_years_within_range(self):
        years = year_series(make_rng(7), 500, 1600, 1700)
        assert min(years) >= 1600
        assert max(years) <= 1700

    def test_skew_towards_end(self):
        flat = year_series(make_rng(8), 5000, 1600, 1700, skew_towards_end=0.0)
        skewed = year_series(make_rng(8), 5000, 1600, 1700, skew_towards_end=1.0)
        assert np.mean(skewed) > np.mean(flat)

    def test_invalid_arguments(self):
        with pytest.raises(WorkloadError):
            year_series(make_rng(1), 10, 1700, 1600)
        with pytest.raises(WorkloadError):
            year_series(make_rng(1), 10, 1600, 1700, skew_towards_end=2.0)
