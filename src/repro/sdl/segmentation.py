"""Segmentations (paper, Definition 3).

A segmentation is a set of SDL queries that partitions a context: the
queries are pairwise disjoint and their union covers the context exactly.
Charles answers a context query with a ranked list of segmentations, each
revealing one aspect of the data.

A :class:`Segmentation` object carries, next to its queries, the row count
of each segment and of the context.  Counts are supplied by the query
engine when the segmentation is materialised; all quality metrics
(entropy, balance, cover) derive from them without touching the data
again, which is exactly the computation-reuse opportunity the paper points
out in Section 5.1.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CompositionError, SegmentationError
from repro.sdl.query import SDLQuery

__all__ = ["Segment", "Segmentation", "product_grid"]


class Segment:
    """One piece of a segmentation: an SDL query plus its row count."""

    __slots__ = ("query", "count")

    def __init__(self, query: SDLQuery, count: int) -> None:
        if count < 0:
            raise SegmentationError(f"segment count must be non-negative, got {count}")
        self.query = query
        self.count = int(count)

    def cover(self, total: int) -> float:
        """Fraction of ``total`` rows captured by this segment."""
        if total <= 0:
            return 0.0
        return self.count / total

    def __repr__(self) -> str:
        return f"Segment({self.query.to_sdl()}, count={self.count})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return self.query == other.query and self.count == other.count

    def __hash__(self) -> int:
        return hash((self.query, self.count))


class Segmentation:
    """A partition of a context into SDL queries.

    Parameters
    ----------
    context:
        The SDL query whose result set the segmentation partitions.
    segments:
        The pieces; each is a :class:`Segment` (query plus row count).
    context_count:
        Number of rows selected by the context.  When omitted it defaults
        to the sum of the segment counts (a valid partition covers the
        context exactly, so the two coincide).
    cut_attributes:
        Attributes on which the segmentation was built.  The paper's
        COMPOSE operator requires all queries of its second operand to be
        based on the same attribute set, which this records explicitly.
    """

    __slots__ = ("context", "_segments", "context_count", "cut_attributes")

    def __init__(
        self,
        context: SDLQuery,
        segments: Iterable[Segment],
        context_count: Optional[int] = None,
        cut_attributes: Sequence[str] = (),
    ) -> None:
        self.context = context
        self._segments: Tuple[Segment, ...] = tuple(segments)
        if not self._segments:
            raise SegmentationError("a segmentation must contain at least one segment")
        total = sum(segment.count for segment in self._segments)
        if context_count is None:
            context_count = total
        if context_count < 0:
            raise SegmentationError(
                f"context count must be non-negative, got {context_count}"
            )
        # A valid partition has sum(counts) == context_count, but candidate
        # segmentations under validation may overlap (sum > context) or be
        # non-exhaustive (sum < context); both are representable and flagged
        # by sdl.validation rather than rejected here.
        self.context_count = int(context_count)
        self.cut_attributes: Tuple[str, ...] = tuple(dict.fromkeys(cut_attributes))

    # -- construction helpers ----------------------------------------------

    @classmethod
    def single(cls, context: SDLQuery, count: int) -> "Segmentation":
        """The trivial segmentation: the context itself as its only piece."""
        return cls(context, [Segment(context, count)], context_count=count)

    def with_cut_attributes(self, attributes: Sequence[str]) -> "Segmentation":
        """Return a copy annotated with the given cut attributes."""
        return Segmentation(
            self.context,
            self._segments,
            context_count=self.context_count,
            cut_attributes=attributes,
        )

    # -- accessors -----------------------------------------------------------

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return self._segments

    @property
    def queries(self) -> Tuple[SDLQuery, ...]:
        """The constituent SDL queries (the paper calls these *segments*)."""
        return tuple(segment.query for segment in self._segments)

    @property
    def counts(self) -> Tuple[int, ...]:
        return tuple(segment.count for segment in self._segments)

    @property
    def covers(self) -> Tuple[float, ...]:
        """Segment covers relative to the context.

        The paper defines the cover of a query relative to the full table
        ``|R(Q)|/|T|``; for entropy and Proposition 1 to behave as stated,
        the covers used inside a segmentation must sum to one, i.e. they
        must be relative to the context ``D``.  See ``core.metrics.cover``
        for the table-relative variant.
        """
        total = self.context_count
        if total == 0:
            return tuple(0.0 for _ in self._segments)
        return tuple(segment.count / total for segment in self._segments)

    @property
    def depth(self) -> int:
        """Number of queries in the segmentation (the paper's *depth*)."""
        return len(self._segments)

    @property
    def covered_count(self) -> int:
        """Total number of rows captured across all segments."""
        return sum(segment.count for segment in self._segments)

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Union of constrained attributes across all queries, beyond the context."""
        context_constrained = set(self.context.constrained_attributes)
        seen: dict[str, None] = {}
        for query in self.queries:
            for attribute in query.constrained_attributes:
                if attribute not in context_constrained or attribute in self.cut_attributes:
                    seen.setdefault(attribute, None)
        for attribute in self.cut_attributes:
            seen.setdefault(attribute, None)
        return tuple(seen)

    # -- protocol ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    def __getitem__(self, index: int) -> Segment:
        return self._segments[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Segmentation):
            return NotImplemented
        return (
            self.context == other.context
            and frozenset(self._segments) == frozenset(other._segments)
            and self.context_count == other.context_count
        )

    def __hash__(self) -> int:
        return hash((self.context, frozenset(self._segments), self.context_count))

    def __repr__(self) -> str:
        attrs = ", ".join(self.cut_attributes) or "-"
        return (
            f"Segmentation(depth={self.depth}, cut_attributes=[{attrs}], "
            f"context_count={self.context_count})"
        )

    def describe(self) -> str:
        """Multi-line human-readable description used by the CLI and examples."""
        lines = [f"Segmentation of {self.context.to_sdl()} "
                 f"({self.depth} segments, {self.context_count} rows)"]
        for segment, cover in zip(self._segments, self.covers):
            lines.append(f"  {cover:6.1%}  {segment.count:>8}  {segment.query.to_sdl()}")
        return "\n".join(lines)


def product_grid(
    first: Segmentation, second: Segmentation
) -> List[List[Optional[SDLQuery]]]:
    """The ``K × L`` cell queries of the SDL product ``first × second``.

    Cell ``(i, j)`` is piece ``i`` of ``first`` merged with piece ``j`` of
    ``second`` (paper, Definition 8), ``None`` where the two contradict.

    Raises
    ------
    CompositionError
        When the operands partition different contexts.
    """
    if first.context != second.context:
        raise CompositionError(
            "the SDL product requires both segmentations to partition the same context"
        )
    return [
        [left.query.merge(right.query) for right in second.segments]
        for left in first.segments
    ]
