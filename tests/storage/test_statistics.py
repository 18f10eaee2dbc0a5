"""Unit tests for table profiling through backend aggregates."""

from __future__ import annotations

import math

import pytest

from repro.backends import open_backend
from repro.errors import UnknownColumnError
from repro.sdl import RangePredicate, SDLQuery
from repro.storage import DataType, QueryEngine, Table, profile_backend
from repro.storage.statistics import column_entropy
from repro.workloads import generate_astronomy, generate_voc


@pytest.fixture()
def table() -> Table:
    return Table.from_dict(
        {
            "tonnage": [1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700],
            "type": ["fluit"] * 6 + ["jacht"] * 2,
            "constant": ["same"] * 8,
            "with_missing": [1, None, 3, None, 5, 6, 7, 8],
        },
        name="boats",
    )


def _column(table: Table, name: str):
    return profile_backend(QueryEngine(table)).column(name)


class TestColumnEntropy:
    def test_uniform_distribution(self):
        assert column_entropy({"a": 5, "b": 5}) == pytest.approx(math.log(2))

    def test_single_value_is_zero(self):
        assert column_entropy({"a": 10}) == 0.0

    def test_empty_histogram_is_zero(self):
        assert column_entropy({}) == 0.0

    def test_skewed_lower_than_uniform(self):
        skewed = column_entropy({"a": 9, "b": 1})
        assert 0.0 < skewed < math.log(2)


class TestColumnProfile:
    def test_numeric_profile(self, table):
        profile = _column(table, "tonnage")
        assert profile.dtype is DataType.INT
        assert profile.minimum == 1000
        assert profile.maximum == 1700
        assert profile.median == pytest.approx(1350)
        assert profile.distinct_count == 8
        assert profile.quantiles[0.5] in (1300, 1400)

    def test_nominal_profile(self, table):
        profile = _column(table, "type")
        assert profile.top_values[0] == ("fluit", 6)
        assert profile.median is None
        assert not profile.quantiles

    def test_missing_counted(self, table):
        profile = _column(table, "with_missing")
        assert profile.missing_count == 2
        assert profile.valid_count == 6

    def test_constant_column_has_one_value(self, table):
        assert _column(table, "constant").distinct_count == 1

    def test_describe_runs(self, table):
        for name in table.column_names:
            assert name in _column(table, name).describe()


class TestTableProfile:
    def test_profiles_every_column(self, table):
        profile = profile_backend(QueryEngine(table))
        assert set(profile.columns) == set(table.column_names)
        assert profile.row_count == 8

    def test_context_restricts_rows(self, table):
        context = SDLQuery([RangePredicate("tonnage", 1000, 1200)])
        profile = profile_backend(QueryEngine(table), context=context)
        assert profile.row_count == 3
        assert profile.column("type").top_values[0] == ("fluit", 3)

    def test_describe_runs(self, table):
        text = profile_backend(QueryEngine(table)).describe()
        assert "boats" in text
        assert "tonnage" in text


@pytest.fixture(scope="module", params=["voc", "astronomy"])
def dataset(request) -> Table:
    if request.param == "voc":
        return generate_voc(rows=300, seed=2)
    return generate_astronomy(rows=300, seed=2)


@pytest.mark.parametrize("scheme", ["memory", "sqlite"])
class TestDtypes:
    def test_dtype_of_matches_the_table_schema(self, scheme, dataset):
        backend = open_backend(scheme, dataset)
        for name in dataset.column_names:
            dtype = dataset.column(name).dtype
            assert backend.dtype_of(name) is dtype
            assert backend.is_numeric(name) == dtype.is_numeric

    def test_dtype_of_unknown_column_raises(self, scheme, table):
        with pytest.raises(UnknownColumnError):
            open_backend(scheme, table).dtype_of("no_such_column")

    def test_profile_dtypes_match_the_table_schema(self, scheme, dataset):
        profile = profile_backend(open_backend(scheme, dataset))
        for name in dataset.column_names:
            assert profile.column(name).dtype is dataset.column(name).dtype


class TestBackendsAgree:
    def test_sqlite_profile_equals_memory_profile(self, table):
        context = SDLQuery([RangePredicate("tonnage", 1000, 1500)])
        memory = profile_backend(open_backend("memory", table), context=context)
        sqlite = profile_backend(open_backend("sqlite", table), context=context)
        assert sqlite == memory
        assert memory.column("tonnage").dtype is DataType.INT
