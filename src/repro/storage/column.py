"""Typed columns of the in-memory column store.

The substrate mirrors the two properties of MonetDB that the paper relies
on (Section 5.1): evaluation is *column-at-a-time* (predicates become
boolean selection vectors over NumPy arrays) and the only aggregates the
advisor needs — counts, minima/maxima, medians and value frequencies — are
available per column under an arbitrary selection mask.

Four physical column classes exist:

* :class:`NumericColumn` — INT and FLOAT values;
* :class:`DateColumn` — dates, stored as proleptic Gregorian ordinals;
* :class:`StringColumn` — nominal values, dictionary-encoded;
* :class:`BoolColumn` — booleans.

Missing values are tracked with a validity bitmap; they never satisfy a
constraint and are excluded from aggregates, matching SQL semantics.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EmptyColumnError, TypeMismatchError
from repro.storage.types import (
    DataType,
    coerce_value,
    is_missing,
    ordinal_to_date,
)

__all__ = ["Column", "NumericColumn", "StringColumn", "BoolColumn", "build_column"]


# Per logical type: the physical NumPy dtype, and the Python scalar types
# that are stored without conversion.
_LAYOUT: Dict[DataType, Tuple[Any, frozenset]] = {
    DataType.INT: (np.int64, frozenset({int})),
    DataType.FLOAT: (np.float64, frozenset({int, float})),
    DataType.DATE: (np.int64, frozenset()),
    DataType.BOOL: (np.bool_, frozenset({bool})),
}


def _encode(values: Sequence[Any], dtype: DataType) -> Tuple[np.ndarray, np.ndarray]:
    """Physical ``(data, valid)`` arrays of raw values for a non-string column.

    Missing rows hold the fill value 0.  Values that are all of a type
    the column stores without conversion (generated tables, NumPy input)
    are adopted in one C pass; anything else is coerced value by value.
    An integer outside int64, or a number too large for a float, is a
    :class:`TypeMismatchError`.
    """
    physical, stored_as_is = _LAYOUT[dtype]
    try:
        if set(map(type, values)) <= stored_as_is:
            data = np.array(values, dtype=physical)
            if dtype is not DataType.FLOAT:
                return data, np.ones(len(data), dtype=bool)
            valid = ~np.isnan(data)
            data[~valid] = 0.0
            return data, valid
        coerced = [coerce_value(v, dtype) for v in values]
        valid = np.array([v is not None for v in coerced], dtype=bool)
        return np.array([0 if v is None else v for v in coerced], dtype=physical), valid
    except OverflowError as exc:
        raise TypeMismatchError(
            f"a value is out of range for a {dtype.value.upper()} column"
        ) from exc


class Column:
    """Abstract base class for all column implementations."""

    def __init__(self, name: str, dtype: DataType):
        self.name = name
        self.dtype = dtype

    # -- size / access -------------------------------------------------------

    def __len__(self) -> int:
        raise NotImplementedError

    def value_at(self, index: int) -> Any:
        """Decoded value at a row position (``None`` for missing)."""
        raise NotImplementedError

    def values_list(self, mask: Optional[np.ndarray] = None) -> List[Any]:
        """Decoded values, optionally restricted to a boolean mask.

        The whole selection is decoded in one pass, to exactly the values
        :meth:`value_at` returns row by row.
        """
        if mask is None:
            return self._decoded(slice(None))
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != len(self):
            raise TypeMismatchError(
                f"mask length {mask.shape[0]} does not match column length {len(self)}"
            )
        return self._decoded(mask)

    def _decoded(self, rows: Any) -> List[Any]:
        """Decoded values of the rows a slice or boolean mask selects."""
        raise NotImplementedError

    def valid_mask(self) -> np.ndarray:
        """Boolean array marking non-missing rows."""
        raise NotImplementedError

    def _effective_mask(self, mask: Optional[np.ndarray]) -> np.ndarray:
        """Combine the validity bitmap with a caller-provided selection mask."""
        valid = self.valid_mask()
        if mask is None:
            return valid
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != len(self):
            raise TypeMismatchError(
                f"mask length {mask.shape[0]} does not match column length {len(self)}"
            )
        return valid & mask

    # -- aggregates ------------------------------------------------------------

    def count_valid(self, mask: Optional[np.ndarray] = None) -> int:
        """Number of non-missing rows under the mask."""
        return int(np.count_nonzero(self._effective_mask(mask)))

    def minimum(self, mask: Optional[np.ndarray] = None) -> Any:
        raise NotImplementedError

    def maximum(self, mask: Optional[np.ndarray] = None) -> Any:
        raise NotImplementedError

    def median(self, mask: Optional[np.ndarray] = None) -> Any:
        """The arithmetic median for numeric types (paper, Definition 5).

        Nominal columns do not define an arithmetic median; the nominal
        split rule lives in :mod:`repro.core.median` and works from
        :meth:`value_counts`.
        """
        raise NotImplementedError

    def value_counts(self, mask: Optional[np.ndarray] = None) -> Dict[Any, int]:
        """Decoded value -> number of occurrences under the mask."""
        raise NotImplementedError

    def distinct_count(self, mask: Optional[np.ndarray] = None) -> int:
        """Number of distinct non-missing values under the mask."""
        return len(self.value_counts(mask))

    # -- predicate evaluation (canonical literals: repro.storage.expression.bind)

    def mask_range(
        self,
        low: Any,
        high: Any,
        include_low: bool = True,
        include_high: bool = True,
    ) -> np.ndarray:
        raise NotImplementedError

    def mask_set(self, values: Iterable[Any]) -> np.ndarray:
        raise NotImplementedError

    # -- construction -----------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """New column containing the rows at the given positions."""
        raise NotImplementedError

    def append_values(self, values: Sequence[Any]) -> "Column":
        """New column with the given raw values appended (copy-on-write).

        The existing physical arrays are never mutated — snapshots handed
        out earlier stay valid — and only the batch is coerced/encoded;
        the old rows are concatenated at the array level.  This is the
        per-column building block of
        :meth:`repro.storage.table.Table.append_rows` and, above it, of
        :class:`repro.live.VersionedTable.append_batch`.
        """
        raise NotImplementedError

    def slice_rows(self, start: int, stop: int) -> "Column":
        """New column over the contiguous row range ``[start, stop)``.

        Backed by basic NumPy slices of the source arrays — zero-copy,
        which is safe because columns are immutable.  Row-range
        partitioning shards tables this way without duplicating them.
        """
        raise NotImplementedError

    def filter(self, mask: np.ndarray) -> "Column":
        """New column keeping the rows where ``mask`` is true."""
        return self.take(np.flatnonzero(np.asarray(mask, dtype=bool)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, {self.dtype}, n={len(self)})"


class _ArrayColumn(Column):
    """A column stored as one NumPy array plus a validity bitmap.

    Every type but STRING: the array holds the values (dates as ordinals)
    and a missing row holds the fill value 0.
    """

    def __init__(self, name: str, values: Sequence[Any], dtype: DataType):
        super().__init__(name, dtype)
        self._data, self._valid = _encode(values, dtype)

    def _with_arrays(self, data: np.ndarray, valid: np.ndarray) -> "_ArrayColumn":
        """A column of the same class, name and type over other arrays."""
        column = type(self).__new__(type(self))
        Column.__init__(column, self.name, self.dtype)
        column._data = data
        column._valid = valid
        return column

    def __len__(self) -> int:
        return int(self._data.shape[0])

    def valid_mask(self) -> np.ndarray:
        return self._valid

    def value_at(self, index: int) -> Any:
        if not self._valid[index]:
            return None
        return self._decode_scalar(self._data[index])

    def _decode_scalar(self, value: Any) -> Any:
        raise NotImplementedError

    def _decoded(self, rows: Any) -> List[Any]:
        values = self._data[rows].tolist()
        for position in np.flatnonzero(~self._valid[rows]).tolist():
            values[position] = None
        return values

    def _masked_data(self, mask: Optional[np.ndarray]) -> np.ndarray:
        return self._data[self._effective_mask(mask)]

    def minimum(self, mask: Optional[np.ndarray] = None) -> Any:
        data = self._masked_data(mask)
        if data.size == 0:
            raise EmptyColumnError(f"minimum of empty selection on {self.name!r}")
        return self._decode_scalar(data.min())

    def maximum(self, mask: Optional[np.ndarray] = None) -> Any:
        data = self._masked_data(mask)
        if data.size == 0:
            raise EmptyColumnError(f"maximum of empty selection on {self.name!r}")
        return self._decode_scalar(data.max())

    def mask_range(
        self,
        low: Any,
        high: Any,
        include_low: bool = True,
        include_high: bool = True,
    ) -> np.ndarray:
        data = self._data
        low_mask = data >= low if include_low else data > low
        high_mask = data <= high if include_high else data < high
        return low_mask & high_mask & self._valid

    def mask_set(self, values: Iterable[Any]) -> np.ndarray:
        # Not cast to the column's width: 1.5 matches nothing in an INT column.
        wanted = [value for value in values if value is not None]
        if not wanted:
            return np.zeros(len(self), dtype=bool)
        return np.isin(self._data, wanted) & self._valid

    def take(self, indices: np.ndarray) -> "_ArrayColumn":
        indices = np.asarray(indices, dtype=np.int64)
        return self._with_arrays(self._data[indices], self._valid[indices])

    def slice_rows(self, start: int, stop: int) -> "_ArrayColumn":
        return self._with_arrays(self._data[start:stop], self._valid[start:stop])

    def append_values(self, values: Sequence[Any]) -> "_ArrayColumn":
        data, valid = _encode(values, self.dtype)
        return self._with_arrays(
            np.concatenate([self._data, data]), np.concatenate([self._valid, valid])
        )


class NumericColumn(_ArrayColumn):
    """A column of INT or FLOAT values backed by a NumPy array."""

    def __init__(self, name: str, values: Sequence[Any], dtype: DataType = DataType.FLOAT):
        if dtype not in (DataType.INT, DataType.FLOAT):
            raise TypeMismatchError(f"NumericColumn does not support {dtype}")
        super().__init__(name, values, dtype)

    def gather(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Raw physical values of the non-missing rows under ``mask`` (what
        a quantile sketch is built from, :mod:`repro.storage.sketches`)."""
        return self._masked_data(mask)

    def median(self, mask: Optional[np.ndarray] = None) -> Any:
        data = self._masked_data(mask)
        if data.size == 0:
            raise EmptyColumnError(f"median of empty selection on {self.name!r}")
        return self._decode_median(float(np.median(data)))

    def _decode_scalar(self, value: Any) -> Any:
        return int(value) if self.dtype is DataType.INT else float(value)

    def _decode_median(self, value: float) -> Any:
        if self.dtype is DataType.INT and float(value).is_integer():
            return int(value)
        return float(value)

    def value_counts(self, mask: Optional[np.ndarray] = None) -> Dict[Any, int]:
        data = self._masked_data(mask)
        values, counts = np.unique(data, return_counts=True)
        return {
            self._decode_scalar(value): int(count)
            for value, count in zip(values, counts)
        }

    def to_numpy(self) -> np.ndarray:
        """The raw physical array (missing rows hold the fill value)."""
        return self._data


class DateColumn(NumericColumn):
    """A date column stored as proleptic Gregorian ordinals (int64)."""

    def __init__(self, name: str, values: Sequence[Any]):
        _ArrayColumn.__init__(self, name, values, DataType.DATE)

    def _decoded(self, rows: Any) -> List[Any]:
        return [None if o is None else _dt.date.fromordinal(o) for o in super()._decoded(rows)]

    def _decode_scalar(self, value: Any) -> Any:
        return ordinal_to_date(int(value))

    def _decode_median(self, value: float) -> Any:
        # The arithmetic median of an even number of dates is rounded down
        # to a representable date.
        return ordinal_to_date(int(value))


#: Most dictionary codes a set mask compares one by one; a larger set
#: gathers a lookup table by code.  A compare pass costs 0.06-0.11 of a
#: gather at 200 000 rows, 0.2 at 12 000 and 0.5 at 2 000 (2 vCPU,
#: NumPy 2.4), so four compares beat one gather from about 10 000 rows.
FEW_CODES = 4


class StringColumn(Column):
    """A dictionary-encoded nominal column.

    Physical layout: an ``int32`` code per row (``-1`` for missing) plus an
    ordered list of category strings.  A set predicate compares the codes
    of a few literals and gathers a lookup table by code for more (one pass
    however many literals it holds); range predicates use lexicographic order
    over the decoded strings, which is rarely useful but kept for symmetry
    with SQL semantics.
    """

    MISSING_CODE = -1

    def __init__(self, name: str, values: Sequence[Any]):
        super().__init__(name, DataType.STRING)
        self._categories: List[str] = []
        self._index_of: Dict[str, int] = {}
        self._codes = self._encode_strings(values, self._categories, self._index_of)

    @classmethod
    def _encode_strings(
        cls, values: Sequence[Any], categories: List[str], index_of: Dict[str, int]
    ) -> np.ndarray:
        """The ``int32`` codes of raw values, growing the dictionary in place.

        New texts are appended to ``categories`` (and ``index_of``) in
        first-appearance order.  An all-``str`` batch is encoded in bulk:
        ``dict.fromkeys`` lists its distinct texts in that order, each is
        checked for missing once, and one ``np.fromiter`` maps the rows.
        Other input is first turned into texts (``None`` when missing)
        value by value.
        """
        if not set(map(type, values)) <= {str}:
            values = [None if is_missing(raw) else str(raw) for raw in values]
        code_of: Dict[Optional[str], int] = {}
        for text in dict.fromkeys(values):
            if text is None or is_missing(text):
                code_of[text] = cls.MISSING_CODE
                continue
            code = index_of.get(text)
            if code is None:
                code = index_of[text] = len(categories)
                categories.append(text)
            code_of[text] = code
        return np.fromiter(map(code_of.__getitem__, values), dtype=np.int32, count=len(values))

    @classmethod
    def _from_encoding(
        cls,
        name: str,
        codes: np.ndarray,
        categories: List[str],
        index_of: Dict[str, int],
    ) -> "StringColumn":
        """A column over ``codes`` that *shares* the given dictionary.

        Neither structure is ever mutated in place (``append_values``
        copies before it grows them), so row slices and gathers reuse the
        parent's instead of paying O(distinct values) per shard.
        """
        column = cls.__new__(cls)
        Column.__init__(column, name, DataType.STRING)
        column._codes = codes
        column._categories = categories
        column._index_of = index_of
        return column

    def __len__(self) -> int:
        return int(self._codes.shape[0])

    @property
    def categories(self) -> List[str]:
        """The dictionary of distinct values, in first-appearance order."""
        return list(self._categories)

    def valid_mask(self) -> np.ndarray:
        return self._codes != self.MISSING_CODE

    def value_at(self, index: int) -> Any:
        code = int(self._codes[index])
        if code == self.MISSING_CODE:
            return None
        return self._categories[code]

    def _decoded(self, rows: Any) -> List[Any]:
        # MISSING_CODE (-1) indexes the trailing None.
        return list(map([*self._categories, None].__getitem__, self._codes[rows].tolist()))

    def minimum(self, mask: Optional[np.ndarray] = None) -> Any:
        values = [v for v in self.values_list(self._effective_mask(mask))]
        if not values:
            raise EmptyColumnError(f"minimum of empty selection on {self.name!r}")
        return min(values)

    def maximum(self, mask: Optional[np.ndarray] = None) -> Any:
        values = [v for v in self.values_list(self._effective_mask(mask))]
        if not values:
            raise EmptyColumnError(f"maximum of empty selection on {self.name!r}")
        return max(values)

    def median(self, mask: Optional[np.ndarray] = None) -> Any:
        raise TypeMismatchError(
            f"column {self.name!r} is nominal; use the nominal split rule "
            "(repro.core.median) instead of an arithmetic median"
        )

    def value_counts(self, mask: Optional[np.ndarray] = None) -> Dict[Any, int]:
        effective = self._effective_mask(mask)
        codes = self._codes[effective]
        if codes.size == 0:
            return {}
        counts = np.bincount(codes, minlength=len(self._categories))
        return {
            self._categories[code]: int(count)
            for code, count in enumerate(counts)
            if count > 0
        }

    def mask_range(
        self,
        low: Any,
        high: Any,
        include_low: bool = True,
        include_high: bool = True,
    ) -> np.ndarray:
        selected_codes = [
            code
            for code, category in enumerate(self._categories)
            if _within(category, low, high, include_low, include_high)
        ]
        return self._mask_for_codes(selected_codes)

    def mask_set(self, values: Iterable[Any]) -> np.ndarray:
        codes = map(self._index_of.get, values)
        return self._mask_for_codes([code for code in codes if code is not None])

    def _mask_for_codes(self, codes: List[int]) -> np.ndarray:
        if len(codes) <= FEW_CODES:
            mask = np.zeros(len(self), dtype=bool)
            for code in codes:
                mask |= self._codes == code
            return mask
        # One boolean slot per category, gathered by code in a single pass.
        # The trailing slot, which MISSING_CODE (-1) indexes, stays False.
        selected = np.zeros(len(self._categories) + 1, dtype=bool)
        selected[codes] = True
        return selected.take(self._codes)

    def take(self, indices: np.ndarray) -> "StringColumn":
        indices = np.asarray(indices, dtype=np.int64)
        return StringColumn._from_encoding(
            self.name, self._codes[indices], self._categories, self._index_of
        )

    def slice_rows(self, start: int, stop: int) -> "StringColumn":
        return StringColumn._from_encoding(
            self.name, self._codes[start:stop], self._categories, self._index_of
        )

    def append_values(self, values: Sequence[Any]) -> "StringColumn":
        # The dictionary only grows: existing codes stay valid, new
        # categories are appended in first-appearance order, exactly as if
        # the column had been built from the concatenated values.
        categories = list(self._categories)
        index_of = dict(self._index_of)
        codes = self._encode_strings(values, categories, index_of)
        return StringColumn._from_encoding(
            self.name, np.concatenate([self._codes, codes]), categories, index_of
        )


class BoolColumn(_ArrayColumn):
    """A boolean column with a validity bitmap."""

    def __init__(self, name: str, values: Sequence[Any]):
        super().__init__(name, values, DataType.BOOL)

    def _decode_scalar(self, value: Any) -> Any:
        return bool(value)

    def median(self, mask: Optional[np.ndarray] = None) -> Any:
        raise TypeMismatchError(
            f"column {self.name!r} is boolean; use the nominal split rule instead"
        )

    def value_counts(self, mask: Optional[np.ndarray] = None) -> Dict[Any, int]:
        effective = self._effective_mask(mask)
        data = self._data[effective]
        counts: Dict[Any, int] = {}
        true_count = int(np.count_nonzero(data))
        false_count = int(data.size - true_count)
        if false_count:
            counts[False] = false_count
        if true_count:
            counts[True] = true_count
        return counts


def build_column(name: str, values: Sequence[Any], dtype: DataType) -> Column:
    """Factory: build the concrete column class for a logical type."""
    if dtype in (DataType.INT, DataType.FLOAT):
        return NumericColumn(name, values, dtype)
    if dtype is DataType.DATE:
        return DateColumn(name, values)
    if dtype is DataType.STRING:
        return StringColumn(name, values)
    if dtype is DataType.BOOL:
        return BoolColumn(name, values)
    raise TypeMismatchError(f"unsupported data type: {dtype!r}")  # pragma: no cover


def _within(
    value: str, low: str, high: str, include_low: bool, include_high: bool
) -> bool:
    if include_low:
        if value < low:
            return False
    elif value <= low:
        return False
    if include_high:
        if value > high:
            return False
    elif value >= high:
        return False
    return True
