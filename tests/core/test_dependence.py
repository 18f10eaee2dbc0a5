"""Unit tests for dependence estimation (contingency tables, chi-square, INDEP)."""

from __future__ import annotations

import numpy as np
import pytest

from builders import make_independent_table
from repro.core import (
    analyse_dependence,
    chi_square_test,
    contingency_table,
    cramers_v,
    cut_query,
    mutual_information,
)
from repro.core.dependence import _chi2_sf, indep_from_table
from repro.sdl import SDLQuery
from repro.storage import QueryEngine
from repro.workloads import make_dependent_pair_table


@pytest.fixture(scope="module")
def independent_engine() -> QueryEngine:
    return QueryEngine(make_independent_table(rows=3000, cardinalities=(4, 4, 4), seed=1))


@pytest.fixture(scope="module")
def dependent_engine() -> QueryEngine:
    # Cardinality 2 keeps the binary median cut aligned with the planted
    # dependence regardless of the frequency ordering of the categories.
    return QueryEngine(
        make_dependent_pair_table(rows=3000, strength=0.9, cardinality=2, seed=1)
    )


def _cuts(engine: QueryEngine, attributes):
    context = SDLQuery.over(list(attributes))
    return [cut_query(engine, context, attribute) for attribute in attributes]


class TestContingencyTable:
    def test_shape_and_total(self, independent_engine):
        first, second = _cuts(independent_engine, ["a0", "a1"])
        table = contingency_table(independent_engine, first, second)
        assert table.shape == (2, 2)
        assert table.sum() == 3000


class TestIndepFromTable:
    def test_independent_table_close_to_one(self):
        table = np.array([[250, 250], [250, 250]], dtype=float)
        assert indep_from_table(table) == pytest.approx(1.0)

    def test_diagonal_table_is_half(self):
        table = np.array([[500, 0], [0, 500]], dtype=float)
        assert indep_from_table(table) == pytest.approx(0.5)

    def test_empty_table_defaults_to_one(self):
        assert indep_from_table(np.zeros((2, 2))) == 1.0


class TestMutualInformation:
    def test_zero_for_independent(self):
        table = np.array([[100, 100], [100, 100]], dtype=float)
        assert mutual_information(table) == pytest.approx(0.0, abs=1e-12)

    def test_log2_nats_for_perfect_dependence(self):
        table = np.array([[500, 0], [0, 500]], dtype=float)
        assert mutual_information(table) == pytest.approx(np.log(2))

    def test_relates_to_indep(self):
        table = np.array([[300, 100], [100, 300]], dtype=float)
        joint = indep_from_table(table)
        information = mutual_information(table)
        marginal_sum = 2 * np.log(2)
        assert joint == pytest.approx(1 - information / marginal_sum, rel=1e-6)


class TestStatisticalTests:
    def test_chi_square_detects_dependence(self):
        table = np.array([[400, 100], [100, 400]], dtype=float)
        statistic, p_value, dof = chi_square_test(table)
        assert statistic > 100
        assert p_value < 1e-6
        assert dof == 1

    def test_chi_square_accepts_independence(self):
        table = np.array([[250, 250], [250, 250]], dtype=float)
        statistic, p_value, _ = chi_square_test(table)
        assert statistic == pytest.approx(0.0)
        assert p_value == pytest.approx(1.0)

    # The production code calls scipy.special.chdtrc so that no process
    # imports scipy.stats; these two tests are the one place that does, to
    # show the p-values are exactly the ones chi2.sf gives.

    def test_upper_tail_equals_scipy_stats_bit_for_bit(self):
        from scipy.stats import chi2

        statistics = [-1.0, -4e-24, -0.0, 0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 3.841, 10.0, 100.0,
                      745.0, 1e3, 1e4, 1e6, 1e308, float("inf")]
        dofs = [1, 2, 3, 4, 7, 20, 100, 1000, 10**6]
        tails = set()
        for statistic in statistics:
            for dof in dofs:
                p_value = _chi2_sf(statistic, dof)
                assert p_value == float(chi2.sf(statistic, dof)), (statistic, dof)
                tails.add(p_value if p_value in (0.0, 1.0) else 0.5)
        assert tails == {0.0, 0.5, 1.0}  # exact 1, interior, and underflow to 0
        assert np.isnan(_chi2_sf(float("nan"), 3))

    def test_p_values_equal_scipy_stats_on_tables(self):
        from scipy.stats import chi2

        for rows, columns in [(2, 2), (2, 3), (3, 3), (2, 8), (5, 6), (12, 12)]:
            independent = np.outer(np.arange(1, rows + 1), np.arange(1, columns + 1))
            diagonal = np.zeros((rows, columns))
            diagonal[np.arange(rows), np.arange(rows) % columns] = independent.sum() / rows
            for scale in [1e-9, 1e-3, 1.0, 40.0, 1e4, 1e9]:
                for mix in [0.0, 1e-12, 1e-6, 0.01, 0.3, 1.0]:
                    table = scale * ((1 - mix) * independent + mix * diagonal)
                    statistic, p_value, dof = chi_square_test(table)
                    assert p_value == float(chi2.sf(statistic, dof)), (table, statistic, dof)

    def test_cramers_v_range(self):
        perfect = np.array([[500, 0], [0, 500]], dtype=float)
        none = np.array([[250, 250], [250, 250]], dtype=float)
        assert cramers_v(perfect) == pytest.approx(1.0)
        assert cramers_v(none) == pytest.approx(0.0)
        assert cramers_v(np.zeros((2, 2))) == 0.0


class TestAnalyseDependence:
    def test_dependent_pair_flagged(self, dependent_engine):
        first, second = _cuts(dependent_engine, ["x", "y"])
        report = analyse_dependence(dependent_engine, first, second)
        assert report.indep < 0.95
        assert report.is_dependent(alpha=0.01)
        assert report.cramers_v > 0.3
        assert report.mutual_information > 0.05

    def test_independent_pair_not_flagged(self, independent_engine):
        first, second = _cuts(independent_engine, ["a0", "a1"])
        report = analyse_dependence(independent_engine, first, second)
        assert report.indep > 0.98
        assert not report.is_dependent(alpha=0.001)
