"""Property-based tests: load-time type inference equals the per-value reference.

``infer_collection_type`` parses each *distinct string* once and skips
``strptime`` for strings that cannot be dates.  The reference below is a
verbatim copy of the implementation it replaced (one full parse per value
of every row); the two must agree on every collection, including the
exception raised for an unsupported value.
"""

from __future__ import annotations

import datetime as _dt
import math
from typing import Any, Iterable, Optional

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.errors import TypeMismatchError
from repro.storage.types import DataType, infer_collection_type

_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- the reference: the implementation at commit 0d4fc05, copied verbatim ------

_DATE_FORMATS = ("%Y-%m-%d", "%Y/%m/%d", "%d-%m-%Y", "%d/%m/%Y")


def is_missing(value: Any) -> bool:
    """Whether a raw value represents a missing entry (None, NaN, empty string)."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, str) and value.strip() == "":
        return True
    return False


def infer_value_type(value: Any) -> Optional[DataType]:
    if is_missing(value):
        return None
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, (_dt.date, _dt.datetime)):
        return DataType.DATE
    if isinstance(value, str):
        return _infer_string_type(value)
    raise TypeMismatchError(f"unsupported value type: {type(value).__name__}")


def _infer_string_type(text: str) -> DataType:
    """Infer the type a textual value (e.g. a CSV field) encodes."""
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered in ("true", "false"):
        return DataType.BOOL
    try:
        int(stripped)
        return DataType.INT
    except ValueError:
        pass
    try:
        float(stripped)
        return DataType.FLOAT
    except ValueError:
        pass
    for fmt in _DATE_FORMATS:
        try:
            _dt.datetime.strptime(stripped, fmt)
            return DataType.DATE
        except ValueError:
            continue
    return DataType.STRING


def reference_infer_collection_type(values: Iterable[Any]) -> DataType:
    seen: set[DataType] = set()
    for value in values:
        inferred = infer_value_type(value)
        if inferred is not None:
            seen.add(inferred)
    if not seen:
        return DataType.STRING
    if seen == {DataType.BOOL}:
        return DataType.BOOL
    if seen <= {DataType.INT}:
        return DataType.INT
    if seen <= {DataType.INT, DataType.FLOAT, DataType.BOOL}:
        return DataType.FLOAT if DataType.FLOAT in seen else DataType.INT
    if seen <= {DataType.DATE}:
        return DataType.DATE
    return DataType.STRING


# -- strategies ----------------------------------------------------------------

_AWKWARD_TEXT = [
    "", "   ", "true", " False ", "TRUE", "yes",
    "12", " 12 ", "-5", "+7", "1_000", "1__0", "٣٤", "0x10",
    "1.5", "1e5", "inf", "-Infinity", "nan", " NaN", "1_0.5", ".",
    "2020-01-05", "2020-1-5", " 2020/01/05\t", "2020/1/5", "05-01-2020", "5-1-2020",
    "5/1/2020", "31/12/1999", "2020-13-01", "31-02-2020", "30/02/2020", "2020-01-05x",
    "2020-01-05 00:00", "1-2", "1/2", "12-", "/", "-", "a-1-2020", "x/1/2020",
    "٢٠٢٠-01-05", "²-1-2020", "+5-1-2020", "- 5-1-2020", "5 -1-2020", "1-1-1", "0-0-0",
    "0000-01-01", "9999-12-31", "29-02-2020", "29-02-2021", "2020/01-05", "5.1.2020",
    "trip-00001", "Jan de Vries", "fluit", "a/b", "3 - 4", "N/A", "n-a",
]


def _formatted_dates() -> st.SearchStrategy[str]:
    """Dates in each accepted format, zero-padded or not, with optional whitespace."""
    layouts = [
        "{y:04d}-{m:02d}-{d:02d}", "{y}-{m}-{d}", "{y:04d}/{m:02d}/{d:02d}", "{y}/{m}/{d}",
        "{d:02d}-{m:02d}-{y:04d}", "{d}-{m}-{y}", "{d:02d}/{m:02d}/{y:04d}", "{d}/{m}/{y}",
        " {y:04d}-{m:02d}-{d:02d} ", "{d}/{m}/{y}\n", "{m}/{d}/{y}", "{y}-{d}-{m}",
    ]
    return st.builds(
        lambda date, layout: layout.format(y=date.year, m=date.month, d=date.day),
        st.dates(),
        st.sampled_from(layouts),
    )


_STRINGS = st.one_of(
    st.sampled_from(_AWKWARD_TEXT),
    _formatted_dates(),
    st.text(alphabet="0123456789-/ ._+eE", max_size=12),
    st.text(max_size=8),
)

_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -0.0, float("nan")]),
    st.dates(),
    st.datetimes(),
    _STRINGS,
)


def _homogeneous_or_mixed() -> st.SearchStrategy[list]:
    """Columns as they occur: mostly one kind of value, repeated, sometimes mixed."""
    repeated_text = st.lists(_STRINGS, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=30)
    )
    numbers = st.lists(
        st.one_of(st.booleans(), st.integers(0, 1), st.sampled_from([0.0, 1.0]), st.none()),
        max_size=12,
    )
    return st.one_of(repeated_text, numbers, st.lists(_VALUES, max_size=25))


# -- properties ----------------------------------------------------------------


class TestInferCollectionType:
    @_SETTINGS
    @given(values=_homogeneous_or_mixed())
    @example(values=[True, 1])
    @example(values=[1, True])
    @example(values=[1.0, True, 1])
    @example(values=[True, 1.0])
    @example(values=["1", 1, True])
    @example(values=["nan", None])
    @example(values=["5-1-2020", "2020-01-05"])
    @example(values=["2020-01-05", "trip-00001"])
    def test_equals_the_per_value_reference(self, values):
        assert infer_collection_type(values) is reference_infer_collection_type(values)

    @_SETTINGS
    @given(values=st.lists(_VALUES, max_size=12))
    def test_a_one_shot_iterator_infers_the_same(self, values):
        assert infer_collection_type(iter(values)) is reference_infer_collection_type(values)

    @_SETTINGS
    @given(
        values=st.lists(_VALUES, max_size=10),
        bad=st.sampled_from([[1], (1, 2), {"a": 1}, b"bytes", 1j, object]),
        position=st.integers(min_value=0, max_value=10),
    )
    def test_an_unsupported_value_raises_the_same_error(self, values, bad, position):
        values = values[:position] + [bad] + values[position:]
        with pytest.raises(TypeMismatchError) as expected:
            reference_infer_collection_type(values)
        with pytest.raises(TypeMismatchError) as actual:
            infer_collection_type(values)
        assert str(actual.value) == str(expected.value)
