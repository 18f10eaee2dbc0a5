"""Unit tests for data types, inference and coercion."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from repro.errors import TypeMismatchError
from repro.storage.types import (
    DataType,
    coerce_value,
    date_to_ordinal,
    infer_collection_type,
    infer_value_type,
    is_missing,
    ordinal_to_date,
    parse_date,
)


class TestDataType:
    def test_numeric_types(self):
        assert DataType.INT.is_numeric
        assert DataType.FLOAT.is_numeric
        assert DataType.DATE.is_numeric
        assert not DataType.STRING.is_numeric


class TestMissing:
    @pytest.mark.parametrize("value", [None, float("nan"), "", "   "])
    def test_missing_values(self, value):
        assert is_missing(value)

    @pytest.mark.parametrize("value", [0, 0.0, False, "x", dt.date(2020, 1, 1)])
    def test_present_values(self, value):
        assert not is_missing(value)


class TestDates:
    def test_parse_iso_date(self):
        assert parse_date("2020-03-01") == dt.date(2020, 3, 1)

    def test_parse_day_first_date(self):
        assert parse_date("01/03/2020") == dt.date(2020, 3, 1)

    def test_parse_datetime(self):
        assert parse_date(dt.datetime(2020, 3, 1, 12, 30)) == dt.date(2020, 3, 1)

    def test_parse_invalid_date(self):
        with pytest.raises(TypeMismatchError):
            parse_date("not a date")
        with pytest.raises(TypeMismatchError):
            parse_date(3.14)

    def test_ordinal_round_trip(self):
        date = dt.date(1650, 6, 15)
        assert ordinal_to_date(date_to_ordinal(date)) == date


class TestValueInference:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (5, DataType.INT),
            (5.5, DataType.FLOAT),
            (True, DataType.BOOL),
            (dt.date(2020, 1, 1), DataType.DATE),
            ("hello", DataType.STRING),
            ("42", DataType.INT),
            ("4.2", DataType.FLOAT),
            ("true", DataType.BOOL),
            ("2020-01-01", DataType.DATE),
        ],
    )
    def test_infer_value_type(self, value, expected):
        assert infer_value_type(value) is expected

    def test_missing_value_is_none(self):
        assert infer_value_type(None) is None

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeMismatchError):
            infer_value_type(object())


class TestCollectionInference:
    def test_pure_int(self):
        assert infer_collection_type([1, 2, 3]) is DataType.INT

    def test_int_widens_to_float(self):
        assert infer_collection_type([1, 2.5]) is DataType.FLOAT

    def test_bool_only(self):
        assert infer_collection_type([True, False]) is DataType.BOOL

    def test_mixed_text_falls_back_to_string(self):
        assert infer_collection_type([1, "abc"]) is DataType.STRING

    def test_missing_values_ignored(self):
        assert infer_collection_type([None, 3, None]) is DataType.INT

    def test_all_missing_defaults_to_string(self):
        assert infer_collection_type([None, ""]) is DataType.STRING

    def test_dates(self):
        assert infer_collection_type(["2020-01-01", "2021-05-05"]) is DataType.DATE

    def test_equal_numbers_of_different_types_are_not_deduplicated(self):
        # True == 1 == 1.0 hash alike; only strings may be deduplicated.
        assert infer_collection_type([True, 1]) is DataType.INT
        assert infer_collection_type([1, True, 1.0]) is DataType.FLOAT
        assert infer_collection_type([1.0, True]) is DataType.FLOAT

    def test_one_shot_iterable(self):
        assert infer_collection_type(iter(["1", "2", "2"])) is DataType.INT

    def test_numpy_scalars(self):
        assert infer_collection_type([np.int64(1), np.int32(2)]) is DataType.INT
        assert infer_collection_type([np.float32(1.5), np.int8(2)]) is DataType.FLOAT
        assert infer_collection_type([np.bool_(True)]) is DataType.BOOL
        assert infer_collection_type([np.float32("nan"), None]) is DataType.STRING

    def test_unsupported_value_rejected_even_after_text(self):
        with pytest.raises(TypeMismatchError, match="unsupported value type: list"):
            infer_collection_type(["abc", [1], object()])


class TestCoercion:
    def test_int_coercion(self):
        assert coerce_value("42", DataType.INT) == 42
        assert coerce_value(7.0, DataType.INT) == 7

    def test_int_coercion_rejects_fraction(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(7.5, DataType.INT)

    def test_float_coercion(self):
        assert coerce_value("3.25", DataType.FLOAT) == pytest.approx(3.25)

    @pytest.mark.parametrize("value", ["nan", " NaN ", float("nan"), np.float32("nan")])
    def test_nan_is_missing_whether_textual_or_float(self, value):
        # A CSV cell "nan" and a Python nan must agree (regression: the
        # textual one used to be stored as a valid NaN).
        assert coerce_value(value, DataType.FLOAT) is None

    def test_numpy_scalars_coerce_to_python_scalars(self):
        assert coerce_value(np.int64(7), DataType.INT) == 7
        assert type(coerce_value(np.int64(7), DataType.INT)) is int
        assert coerce_value(np.float32(7.0), DataType.INT) == 7
        assert type(coerce_value(np.int16(2), DataType.FLOAT)) is float
        assert coerce_value(np.bool_(True), DataType.BOOL) is True
        assert coerce_value(np.int64(0), DataType.BOOL) is False
        with pytest.raises(TypeMismatchError):
            coerce_value(np.float64(7.5), DataType.INT)

    def test_bool_coercion(self):
        assert coerce_value("yes", DataType.BOOL) is True
        assert coerce_value(0, DataType.BOOL) is False
        with pytest.raises(TypeMismatchError):
            coerce_value("maybe", DataType.BOOL)

    def test_date_coercion_stores_ordinal(self):
        assert coerce_value("2020-01-01", DataType.DATE) == dt.date(2020, 1, 1).toordinal()

    def test_string_coercion(self):
        assert coerce_value(42, DataType.STRING) == "42"

    def test_missing_values_stay_none(self):
        for dtype in DataType:
            assert coerce_value(None, dtype) is None

    def test_invalid_numeric_text(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("abc", DataType.INT)
        with pytest.raises(TypeMismatchError):
            coerce_value("abc", DataType.FLOAT)
