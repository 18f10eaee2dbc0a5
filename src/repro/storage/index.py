"""Bitmap indexes.

The paper notes (Section 5.1) that, because the queried columns are not
known in advance, indexes cannot be created a priori — which is why a
column store fits the workload.  This module provides the closest
equivalent the substrate can offer, built lazily on first use:
:class:`BitmapIndex` — per-distinct-value selection vectors over a
dictionary-encoded nominal column, answering the equality / IN / NOT-IN
masks HB-cuts issues for every nominal drill-down by OR-ing cached
bitmaps instead of re-scanning codes (feature ``bitmap``).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.storage.column import Column
from repro.storage.types import is_missing

__all__ = ["BitmapIndex"]


class BitmapIndex:
    """Per-value bitmaps over a dictionary-encoded nominal column.

    Each distinct predicate value maps to the boolean vector
    ``column.mask_set([value])``, cached on first use.  Set masks are the
    OR of the per-value bitmaps, exclusion masks AND the validity bitmap
    with the negated set mask — by construction bit-for-bit what
    :func:`repro.storage.expression.predicate_mask` computes without the
    index, including SQL missing-value semantics and silent skipping of
    values absent from the dictionary.

    Bitmaps are keyed by ``(type(value), value)`` rather than the value
    alone: ``True``, ``1`` and ``1.0`` are equal (and hash alike) in
    Python but may encode differently per column type, and a cache keyed
    on equality would let one answer masquerade as the other.  The cache
    is capped (default 256 entries, matching the zone-map distinct cap);
    past the cap masks are still answered, just not retained.
    """

    def __init__(self, column: Column, max_entries: int = 256):
        self.column = column
        self._max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._bitmaps: Dict[Tuple[type, Any], np.ndarray] = {}
        self._valid: Optional[np.ndarray] = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._bitmaps)

    def _bitmap_for(self, value: Any) -> np.ndarray:
        key = (value.__class__, value)
        with self._lock:
            bitmap = self._bitmaps.get(key)
        if bitmap is not None:
            return bitmap
        bitmap = self.column.mask_set([value])
        with self._lock:
            if len(self._bitmaps) < self._max_entries:
                return self._bitmaps.setdefault(key, bitmap)
        return bitmap

    def valid(self) -> np.ndarray:
        """The column's validity bitmap, cached."""
        valid = self._valid
        if valid is not None:
            return valid
        # Compute outside the lock (racing builders produce equal masks),
        # publish the first one under it.
        valid = self.column.valid_mask()
        with self._lock:
            if self._valid is None:
                self._valid = valid
            return self._valid

    def mask_set(self, values: Iterable[Any]) -> np.ndarray:
        """Equality / IN mask: OR of per-value bitmaps.

        Missing predicate values are dropped exactly like
        :meth:`Column.mask_set` drops them; an empty effective set selects
        nothing.
        """
        mask: Optional[np.ndarray] = None
        for value in values:
            if is_missing(value):
                continue
            bitmap = self._bitmap_for(value)
            # Never OR in place: the accumulator may alias a cached bitmap.
            mask = bitmap if mask is None else mask | bitmap
        if mask is None:
            return np.zeros(len(self.column), dtype=bool)
        return mask

    def mask_exclusion(self, values: Iterable[Any]) -> np.ndarray:
        """NOT-IN mask with SQL NULL semantics (missing rows never match)."""
        return self.valid() & ~self.mask_set(values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BitmapIndex({self.column.name!r}, {self.column.dtype}, "
            f"entries={len(self)})"
        )
