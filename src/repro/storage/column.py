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
from itertools import chain, count
from operator import ne
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
# and NumPy dtype kinds that are stored without conversion.
_LAYOUT: Dict[DataType, Tuple[Any, frozenset, str]] = {
    DataType.INT: (np.int64, frozenset({int}), "i"),
    DataType.FLOAT: (np.float64, frozenset({int, float}), "if"),
    DataType.DATE: (np.int64, frozenset(), ""),
    DataType.BOOL: (np.bool_, frozenset({bool}), "b"),
}


def _encode(values: Sequence[Any], dtype: DataType) -> Tuple[np.ndarray, np.ndarray]:
    """Physical ``(data, valid)`` arrays of raw values for a non-string column.

    Missing rows hold the fill value 0.  An array of a kind the column
    stores without conversion (generated tables), or values that are all
    of such a Python type, are adopted in one C pass; anything else is
    coerced value by value.  An integer outside int64, or a number too
    large for a float, is a :class:`TypeMismatchError`.
    """
    physical, stored_as_is, kinds = _LAYOUT[dtype]
    if isinstance(values, np.ndarray) and values.dtype.kind not in kinds:
        values = values.tolist()
    try:
        if isinstance(values, np.ndarray) or set(map(type, values)) <= stored_as_is:
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
        return self._decoded(slice(None) if mask is None else self._checked(mask))

    def _checked(self, mask: np.ndarray) -> np.ndarray:
        """A caller's selection mask as booleans, one per row."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != len(self):
            raise TypeMismatchError(
                f"mask length {mask.shape[0]} does not match column length {len(self)}"
            )
        return mask

    def _decoded(self, rows: Any) -> List[Any]:
        """Decoded values of the rows a slice or boolean mask selects."""
        raise NotImplementedError

    def valid_mask(self) -> np.ndarray:
        """Boolean array marking non-missing rows."""
        raise NotImplementedError

    def _effective_mask(self, mask: Optional[np.ndarray]) -> np.ndarray:
        """Combine the validity bitmap with a caller-provided selection mask."""
        valid = self.valid_mask()
        return valid if mask is None else valid & self._checked(mask)

    # -- aggregates ------------------------------------------------------------

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

    def distinct_count(self) -> int:
        """Number of distinct non-missing values."""
        return len(self.value_counts())

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

    def gather(self) -> np.ndarray:
        """Raw physical values of the non-missing rows (what a quantile
        sketch is built from, :mod:`repro.storage.sketches`)."""
        return self._masked_data(None)

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

    Physical layout: an ``int32`` code per row (``-1`` for missing) plus a
    :class:`_Dictionary`, a ``StringDType`` array of the distinct texts in
    first-appearance order — no Python object per value, and none per text
    until :meth:`value_counts` decodes a small dictionary (up to 65 536
    texts) once.  A set predicate compares the codes
    of a few literals and gathers a lookup table by code for more (one
    pass however many literals it holds); range predicates use code-point
    order over the dictionary, rarely useful but kept for SQL symmetry.
    """

    MISSING_CODE = -1

    def __init__(self, name: str, values: Sequence[Any]):
        super().__init__(name, DataType.STRING)
        self._dictionary, self._codes = _Dictionary.EMPTY.encode(values)

    @classmethod
    def from_codes(cls, name: str, indices: np.ndarray, labels: Sequence[str]) -> "StringColumn":
        """The column whose row ``i`` holds ``labels[indices[i]]`` (distinct
        texts, blank ones missing), from integer work on the rows only: the
        labels held are ranked by their first row, and an array already in
        that order is adopted as the dictionary."""
        texts = np.asarray(labels, dtype=_TEXT)
        first = np.full(texts.size, len(indices), dtype=np.intp)
        np.minimum.at(first, indices, np.arange(len(indices)))
        first[_blank(texts)] = len(indices)
        order = np.argsort(first, kind="stable")[: np.count_nonzero(first < len(indices))]
        rank = np.full(texts.size, cls.MISSING_CODE, dtype=np.int32)
        rank[order] = np.arange(order.size, dtype=np.int32)
        if order.size < texts.size or np.any(order[1:] < order[:-1]):
            texts = texts[order]
        return cls._over(name, _Dictionary(texts), rank[indices])

    @classmethod
    def _over(cls, name: str, dictionary: "_Dictionary", codes: np.ndarray) -> "StringColumn":
        """A column over ``codes`` that *shares* ``dictionary`` (row slices
        and gathers reuse it instead of paying O(distinct values) a shard)."""
        column = cls.__new__(cls)
        Column.__init__(column, name, DataType.STRING)
        column._codes = codes
        column._dictionary = dictionary
        return column

    def __len__(self) -> int:
        return int(self._codes.shape[0])

    @property
    def categories(self) -> List[str]:
        """The dictionary of distinct values, in first-appearance order."""
        return self._dictionary.texts.tolist()

    def valid_mask(self) -> np.ndarray:
        return self._codes != self.MISSING_CODE

    def value_at(self, index: int) -> Any:
        code = int(self._codes[index])
        if code == self.MISSING_CODE:
            return None
        return self._dictionary.texts[code]

    def _decoded(self, rows: Any) -> List[Any]:
        codes = self._codes[rows]
        if not self._dictionary.texts.size:
            return [None] * len(codes)
        # MISSING_CODE (-1) reads the last text; those rows are reset below.
        values = self._dictionary.texts[codes].tolist()
        for position in np.flatnonzero(codes == self.MISSING_CODE).tolist():
            values[position] = None
        return values

    def _present(self, mask: Optional[np.ndarray], what: str) -> List[str]:
        """The distinct texts under the mask, in code order."""
        counts = np.bincount(self._codes[self._effective_mask(mask)])
        if not counts.size:
            raise EmptyColumnError(f"{what} of empty selection on {self.name!r}")
        return self._dictionary.texts[np.flatnonzero(counts)].tolist()

    def minimum(self, mask: Optional[np.ndarray] = None) -> Any:
        return min(self._present(mask, "minimum"))

    def maximum(self, mask: Optional[np.ndarray] = None) -> Any:
        return max(self._present(mask, "maximum"))

    def median(self, mask: Optional[np.ndarray] = None) -> Any:
        raise TypeMismatchError(
            f"column {self.name!r} is nominal; use the nominal split rule "
            "(repro.core.median) instead of an arithmetic median"
        )

    def value_counts(self, mask: Optional[np.ndarray] = None) -> Dict[Any, int]:
        counts = np.bincount(self._codes[self._effective_mask(mask)])
        present = np.flatnonzero(counts)
        return dict(zip(self._dictionary.decoded(present), counts[present].tolist()))

    def mask_range(
        self,
        low: Any,
        high: Any,
        include_low: bool = True,
        include_high: bool = True,
    ) -> np.ndarray:
        texts = self._dictionary.texts
        # As arrays: a ``str`` operand is compared as a fixed-width text,
        # which drops trailing NULs.
        low, high = _text_array(low), _text_array(high)
        inside = (texts >= low if include_low else texts > low) & (
            texts <= high if include_high else texts < high
        )
        return self._mask_for_codes(np.flatnonzero(inside))

    def mask_set(self, values: Iterable[Any]) -> np.ndarray:
        return self._mask_for_codes(self._dictionary.codes_in(values))

    def _mask_for_codes(self, codes: np.ndarray) -> np.ndarray:
        if len(codes) <= FEW_CODES:
            mask = np.zeros(len(self), dtype=bool)
            for code in codes.tolist():
                mask |= self._codes == code
            return mask
        # One boolean slot per category, gathered by code in a single pass.
        # The trailing slot, which MISSING_CODE (-1) indexes, stays False.
        selected = np.zeros(self._dictionary.texts.size + 1, dtype=bool)
        selected[codes] = True
        return selected.take(self._codes)

    def take(self, indices: np.ndarray) -> "StringColumn":
        indices = np.asarray(indices, dtype=np.int64)
        return StringColumn._over(self.name, self._dictionary, self._codes[indices])

    def slice_rows(self, start: int, stop: int) -> "StringColumn":
        return StringColumn._over(self.name, self._dictionary, self._codes[start:stop])

    def append_values(self, values: Sequence[Any]) -> "StringColumn":
        # The dictionary only grows: existing codes stay valid, new
        # categories are appended in first-appearance order, exactly as if
        # the column had been built from the concatenated values.
        dictionary, codes = self._dictionary.encode(values)
        return StringColumn._over(self.name, dictionary, np.concatenate([self._codes, codes]))


_TEXT = np.dtypes.StringDType()

#: Texts decoded per ``tolist`` call when a dictionary is hashed, so the
#: ``str`` objects hashing needs are never all alive at once.
_HASH_CHUNK = 4096
#: Literal sets a dictionary keeps resolved, and the most literals a kept
#: set holds.  The shards and versions sharing a dictionary meet a query's
#: set again (88-96 % of the calls on ``scripts/probe.py m13``/``m14``), and
#: a small set costs more NumPy calls to resolve than a lookup.
_SETS_KEPT = 256
_SET_KEPT_SIZE = 64
#: Most texts a dictionary keeps decoded (about 4 MB of ``str``).
_DECODED_KEPT = 1 << 16


def _texts(values: Sequence[Any]) -> Sequence[str]:
    """Raw values as texts, a missing value as ``""`` (``str`` as they are,
    an array in one C pass, anything else value by value)."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if set(map(type, values)) <= {str}:
        return values
    return ["" if is_missing(raw) else str(raw) for raw in values]


def _text_array(texts: Any) -> np.ndarray:
    """``texts`` as a ``StringDType`` array, which holds UTF-8: a lone
    surrogate cannot be stored and is a :class:`TypeMismatchError`."""
    try:
        return np.array(texts, dtype=_TEXT)
    except UnicodeEncodeError as exc:
        raise TypeMismatchError(f"a STRING value is not valid Unicode text: {exc}") from exc


def _blank(texts: np.ndarray) -> np.ndarray:
    """Which texts are missing: empty or all whitespace (as ``str.strip`` sees it)."""
    return (texts == "") | np.strings.isspace(texts)


def _hashes(texts: Iterable[str], size: int) -> np.ndarray:
    return np.fromiter(map(hash, texts), dtype=np.int64, count=size)


class _Dictionary:
    """A string column's distinct texts, shared by its shards and gathers.

    ``texts`` is never mutated: an append that meets new texts builds a new
    dictionary.  Lookups go through the hash index, every text's ``hash``
    in ascending order (``hashes``) beside its code (``order``), confirmed
    on the text itself.  It is built with the dictionary, and an append
    merges its new entries into it rather than hashing and sorting the
    texts again.  The small literal sets it resolved and the texts of a
    small dictionary as ``str`` are kept, filled without a lock: threads
    that race compute equal values.
    """

    EMPTY: "_Dictionary"

    def __init__(self, texts: np.ndarray, index: Optional[Tuple[np.ndarray, np.ndarray]] = None):
        if index is None:
            chunks = (texts[at:at + _HASH_CHUNK].tolist() for at in range(0, texts.size, _HASH_CHUNK))
            hashes = _hashes(chain.from_iterable(chunks), texts.size)
            order = np.argsort(hashes, kind="stable")
            index = (hashes[order], order.astype(np.int32))
        self.texts = texts
        self.hashes, self.order = index
        self._sets: Dict[frozenset, np.ndarray] = {}
        self._decoded: Optional[List[str]] = None

    def decoded(self, codes: np.ndarray) -> List[str]:
        """The texts of ``codes`` as ``str``.  A dictionary of up to
        ``_DECODED_KEPT`` texts decodes them all once and keeps them, so
        cached frequencies and the literal sets made from them share one
        object per text; a larger one decodes ``codes`` per call."""
        if self.texts.size > _DECODED_KEPT:
            return self.texts[codes].tolist()
        if self._decoded is None:
            self._decoded = self.texts.tolist()
        return list(map(self._decoded.__getitem__, codes.tolist()))

    def codes_of(self, texts: Sequence[Any], hashes: np.ndarray) -> np.ndarray:
        """The ``int32`` code of each text (given with its hashes), ``-1``
        where the dictionary lacks it (as it lacks any value not a ``str``)."""
        if not self.texts.size:
            return np.full(len(texts), StringColumn.MISSING_CODE, dtype=np.int32)
        ordered, order = self.hashes, self.order
        # Searched in hash order, which reads ``ordered`` front to back (a
        # stable sort, as the index's: NumPy's default kind maps 0.2 MB more code).
        by_hash = np.argsort(hashes, kind="stable")
        at = np.empty_like(by_hash)
        at[by_hash] = np.minimum(np.searchsorted(ordered, hashes[by_hash]), ordered.size - 1)
        codes = np.where(ordered[at] == hashes, order[at], StringColumn.MISSING_CODE)
        # Every hit is confirmed on its text in one pass (a miss reads the
        # last text, unused); one whose text differs walks its run of equal hashes.
        differs = np.fromiter(map(ne, self.texts[codes].tolist(), texts), bool, len(texts))
        for row in np.flatnonzero(differs & (codes != StringColumn.MISSING_CODE)).tolist():
            place, codes[row] = int(at[row]), StringColumn.MISSING_CODE
            while place + 1 < ordered.size and ordered[place + 1] == ordered[place]:
                place += 1
                if self.texts[order[place]] == texts[row]:
                    codes[row] = order[place]
                    break
        return codes

    def codes_in(self, values: Iterable[Any]) -> np.ndarray:
        """The codes of those ``values`` the dictionary holds."""
        literals = frozenset(values)
        codes = self._sets.get(literals)
        if codes is None:
            texts = list(literals)
            found = self.codes_of(texts, _hashes(texts, len(texts)))
            codes = found[found != StringColumn.MISSING_CODE]
            if len(texts) <= _SET_KEPT_SIZE:
                if len(self._sets) >= _SETS_KEPT:
                    self._sets.clear()
                self._sets[literals] = codes
        return codes

    def encode(self, values: Sequence[Any]) -> Tuple["_Dictionary", np.ndarray]:
        """This dictionary grown by the texts of ``values`` first seen there,
        and the ``int32`` code of each value.

        One ``dict`` pass numbers the batch's distinct texts in first-
        appearance order (it holds them as ``str`` already); only those are
        looked up here, and the new ones are checked for missing in one
        array operation and appended in that order.
        """
        texts = _texts(values)
        position = dict(zip(dict.fromkeys(texts), count()))
        rows = np.fromiter(map(position.__getitem__, texts), dtype=np.intp, count=len(texts))
        labels = list(position)
        hashes = _hashes(labels, len(labels))
        known = self.codes_of(labels, hashes)
        unknown = np.flatnonzero(known == StringColumn.MISSING_CODE)
        if not unknown.size:
            return self, known[rows]
        fresh = _text_array([labels[at] for at in unknown.tolist()])
        keep = ~_blank(fresh)
        new = unknown[keep]
        if not new.size:
            return self, known[rows]
        known[new] = self.texts.size + np.arange(new.size, dtype=np.int32)
        by_hash = new[np.argsort(hashes[new], kind="stable")]
        at = np.searchsorted(self.hashes, hashes[by_hash])
        index = (
            np.insert(self.hashes, at, hashes[by_hash]), np.insert(self.order, at, known[by_hash])
        )
        fresh = fresh if keep.all() else fresh[keep]
        return _Dictionary(np.concatenate([self.texts, fresh]), index), known[rows]


_Dictionary.EMPTY = _Dictionary(np.array([], dtype=_TEXT))


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

