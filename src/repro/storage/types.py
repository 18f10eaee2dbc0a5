"""Data types of the storage substrate.

Charles was originally implemented on top of MonetDB; the substitute
column store supports the handful of types the paper's examples use:
integers, reals, dates, strings (nominal values) and booleans.

The module provides the :class:`DataType` enumeration, per-value type
inference, whole-collection inference (with numeric widening and mixed
fallback to STRING), and coercion of raw Python values into the canonical
representation each column class stores.
"""

from __future__ import annotations

import datetime as _dt
import enum
import math
from typing import Any, Iterable, Optional

import numpy as np

from repro.errors import TypeMismatchError

__all__ = [
    "DataType",
    "infer_collection_type",
    "coerce_value",
    "is_missing",
    "date_to_ordinal",
    "ordinal_to_date",
]

_DATE_FORMATS = ("%Y-%m-%d", "%Y/%m/%d", "%d-%m-%Y", "%d/%m/%Y")

# NumPy scalars are accepted wherever the Python scalar of the same kind is.
_BOOLS = (bool, np.bool_)
_INTS = (int, np.integer)
_FLOATS = (float, np.floating)
_NUMBERS = _BOOLS + _INTS + _FLOATS


class DataType(enum.Enum):
    """Logical column types supported by the substrate."""

    INT = "int"
    FLOAT = "float"
    DATE = "date"
    STRING = "string"
    BOOL = "bool"

    @property
    def is_numeric(self) -> bool:
        """Whether arithmetic medians are defined for the type (paper §4.1)."""
        return self in (DataType.INT, DataType.FLOAT, DataType.DATE)

    @property
    def is_nominal(self) -> bool:
        """Whether the type requires the nominal median rule of Definition 5."""
        return self in (DataType.STRING, DataType.BOOL)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def is_missing(value: Any) -> bool:
    """Whether a raw value represents a missing entry (None, NaN, empty string)."""
    if value is None:
        return True
    if isinstance(value, _FLOATS) and math.isnan(value):
        return True
    if isinstance(value, str) and value.strip() == "":
        return True
    return False


def parse_date(value: Any) -> _dt.date:
    """Parse a value into a :class:`datetime.date`.

    Accepts dates, datetimes, ISO-formatted strings and a few common
    day-first formats.
    """
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    if isinstance(value, str):
        text = value.strip()
        for fmt in _DATE_FORMATS:
            try:
                return _dt.datetime.strptime(text, fmt).date()
            except ValueError:
                continue
        raise TypeMismatchError(f"cannot parse {value!r} as a date")
    raise TypeMismatchError(f"cannot parse {value!r} as a date")


def date_to_ordinal(value: Any) -> int:
    """Encode a date as its proleptic Gregorian ordinal (the storage format)."""
    return parse_date(value).toordinal()


def ordinal_to_date(ordinal: int) -> _dt.date:
    """Decode a stored ordinal back into a :class:`datetime.date`."""
    return _dt.date.fromordinal(int(ordinal))


def infer_value_type(value: Any) -> Optional[DataType]:
    """Infer the :class:`DataType` of a single raw value.

    Returns ``None`` for missing values so that collection inference can
    skip them.
    """
    if is_missing(value):
        return None
    if isinstance(value, _BOOLS):
        return DataType.BOOL
    if isinstance(value, _INTS):
        return DataType.INT
    if isinstance(value, _FLOATS):
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
    # Every format starts with a digit field and has a "-" or "/" separator;
    # anything else is text, without four ``strptime`` calls that raise.
    if stripped[:1].isdigit() and ("-" in stripped or "/" in stripped):
        for fmt in _DATE_FORMATS:
            try:
                _dt.datetime.strptime(stripped, fmt)
                return DataType.DATE
            except ValueError:
                continue
    return DataType.STRING


def infer_collection_type(values: Iterable[Any]) -> DataType:
    """Infer a single :class:`DataType` for a collection of raw values.

    Rules:

    * missing values are ignored;
    * INT widens to FLOAT when both appear;
    * BOOL mixed with numbers widens to the numeric type;
    * any other mix (for example numbers with free text) falls back to STRING;
    * an all-missing or empty collection defaults to STRING.

    A textual value is parsed once per *distinct* string, which is what
    keeps loading a CSV or a generated table cheap.  Only strings are
    deduplicated: ``True == 1 == 1.0`` hash alike, so a set of raw values
    would lose the types of a mixed bool/int/float column.
    """
    seen: set[Optional[DataType]] = set()
    texts: set[str] = set()
    for value in values:
        if isinstance(value, str):
            texts.add(value)
        else:
            seen.add(infer_value_type(value))
    seen.update(map(infer_value_type, texts))
    seen.discard(None)
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


def coerce_value(value: Any, dtype: DataType) -> Any:
    """Coerce a raw value into the canonical Python representation of ``dtype``.

    Missing values are returned as ``None``; columns decide how to encode
    them physically.
    """
    if is_missing(value):
        return None
    if dtype is DataType.INT:
        return _coerce_int(value)
    if dtype is DataType.FLOAT:
        number = _coerce_float(value)
        return None if math.isnan(number) else number  # a textual "nan" is missing too
    if dtype is DataType.DATE:
        return date_to_ordinal(value)
    if dtype is DataType.BOOL:
        return _coerce_bool(value)
    if dtype is DataType.STRING:
        return str(value)
    raise TypeMismatchError(f"unsupported data type: {dtype!r}")  # pragma: no cover


def _coerce_int(value: Any) -> int:
    if isinstance(value, _FLOATS) and not float(value).is_integer():
        raise TypeMismatchError(f"cannot store {value!r} in an INT column")
    if isinstance(value, _NUMBERS):
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError as exc:
            raise TypeMismatchError(f"cannot parse {value!r} as an integer") from exc
    raise TypeMismatchError(f"cannot store {value!r} in an INT column")


def _coerce_float(value: Any) -> float:
    if isinstance(value, _NUMBERS):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError as exc:
            raise TypeMismatchError(f"cannot parse {value!r} as a float") from exc
    raise TypeMismatchError(f"cannot store {value!r} in a FLOAT column")


def _coerce_bool(value: Any) -> bool:
    if isinstance(value, _NUMBERS) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
    raise TypeMismatchError(f"cannot parse {value!r} as a boolean")
