"""Validation of segmentations against Definition 3.

A segmentation of a context ``D`` must satisfy two structural properties:

* **disjointness** — the result sets of any two distinct queries do not
  intersect;
* **exhaustiveness** — the union of the result sets equals ``D``.

The checks here are engine-agnostic: any object exposing the small
protocol of :class:`~repro.storage.engine.QueryEngine` (``evaluate`` and
``count``) can be passed in, so this module does not import the storage
package and stays free of circular dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import InvalidPartitionError
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation

__all__ = ["PartitionReport", "check_partition", "validate_partition", "EngineProtocol"]


class EngineProtocol(Protocol):
    """The minimal engine surface the validator relies on."""

    def evaluate(self, query: SDLQuery) -> np.ndarray[Any, np.dtype[np.bool_]]:  # pragma: no cover - protocol
        ...

    def count(self, query: SDLQuery) -> int:  # pragma: no cover - protocol
        ...


@dataclass
class PartitionReport:
    """Outcome of a partition check.

    Attributes
    ----------
    is_partition:
        ``True`` when both disjointness and exhaustiveness hold.
    disjoint:
        Whether no pair of segments overlaps.
    exhaustive:
        Whether the union of segments covers the whole context.
    overlapping_pairs:
        Indices of segment pairs with a non-empty intersection.
    missing_rows:
        Number of context rows captured by no segment.
    multiply_counted_rows:
        Number of rows captured by more than one segment.
    """

    is_partition: bool
    disjoint: bool
    exhaustive: bool
    overlapping_pairs: List[Tuple[int, int]] = field(default_factory=list)
    missing_rows: int = 0
    multiply_counted_rows: int = 0

    def summary(self) -> str:
        """One-line human readable summary."""
        if self.is_partition:
            return "valid partition (disjoint and exhaustive)"
        problems = []
        if not self.disjoint:
            problems.append(
                f"{len(self.overlapping_pairs)} overlapping pair(s), "
                f"{self.multiply_counted_rows} multiply-counted row(s)"
            )
        if not self.exhaustive:
            problems.append(f"{self.missing_rows} uncovered row(s)")
        return "invalid partition: " + "; ".join(problems)


def check_partition(engine: EngineProtocol, segmentation: Segmentation) -> PartitionReport:
    """Check Definition 3 for a segmentation and report the violations found."""
    context_mask = np.asarray(engine.evaluate(segmentation.context), dtype=bool)
    hit_counts = np.zeros(context_mask.shape[0], dtype=np.int32)
    masks = []
    for segment in segmentation.segments:
        mask = np.asarray(engine.evaluate(segment.query), dtype=bool)
        # A segment may only select rows inside the context.
        mask = mask & context_mask
        masks.append(mask)
        hit_counts[mask] += 1

    overlapping_pairs: List[Tuple[int, int]] = []
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if np.any(masks[i] & masks[j]):
                overlapping_pairs.append((i, j))

    missing = int(np.count_nonzero(context_mask & (hit_counts == 0)))
    multiple = int(np.count_nonzero(hit_counts > 1))
    disjoint = not overlapping_pairs
    exhaustive = missing == 0
    return PartitionReport(
        is_partition=disjoint and exhaustive,
        disjoint=disjoint,
        exhaustive=exhaustive,
        overlapping_pairs=overlapping_pairs,
        missing_rows=missing,
        multiply_counted_rows=multiple,
    )


def validate_partition(engine: EngineProtocol, segmentation: Segmentation) -> None:
    """Raise :class:`InvalidPartitionError` unless Definition 3 holds."""
    report = check_partition(engine, segmentation)
    if not report.is_partition:
        raise InvalidPartitionError(report.summary())


def queries_are_disjoint(
    engine: EngineProtocol, queries: Sequence[SDLQuery]
) -> bool:
    """Convenience helper: whether the given queries select disjoint row sets."""
    union = None
    for query in queries:
        mask = np.asarray(engine.evaluate(query), dtype=bool)
        if union is None:
            union = mask.copy()
            continue
        if np.any(union & mask):
            return False
        union |= mask
    return True
