"""Lazy segmentation generation (paper, Section 5.2).

The prototype "generates all possible answers to a user query in one go,
then returns them"; the paper suggests spreading the computation instead:
produce a small set of queries quickly and create more on demand.  This
module implements that extension as a generator-driven advisor:

* the initial single-attribute cuts are emitted immediately (each is a
  ready-to-display answer);
* composed segmentations are then produced one greedy composition at a
  time, each emitted as soon as it exists.

The loop itself is :meth:`repro.core.hbcuts.HBCuts.steps` — the very one
the eager advisor drains — so a fully consumed stream holds exactly the
eager run's segmentations, under every stopping rule.

Benchmark E10 measures the latency-to-first-answer advantage over the
eager :class:`~repro.core.advisor.Charles` facade.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.errors import AdvisorError
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation
from repro.backends.base import ExecutionBackend
from repro.core.hbcuts import HBCuts

__all__ = ["LazyAdvisor"]


class LazyAdvisor:
    """Generates segmentations incrementally, best-effort first.

    Parameters
    ----------
    engine:
        Query engine over the table to explore (HB-cuts' default stopping
        rules apply).

    Examples
    --------
    >>> advisor = LazyAdvisor(engine)                      # doctest: +SKIP
    >>> stream = advisor.stream(context)                   # doctest: +SKIP
    >>> first = next(stream)                               # fast: one cut only
    >>> more = advisor.next_batch(stream, 3)               # three more answers
    """

    def __init__(self, engine: ExecutionBackend):
        self.engine = engine

    # -- streaming generation ----------------------------------------------------

    def stream(
        self,
        context: SDLQuery,
        attributes: Optional[Sequence[str]] = None,
    ) -> Iterator[Segmentation]:
        """Yield segmentations of ``context`` as they are discovered.

        The first yields are the single-attribute binary cuts (cheapest,
        available almost immediately); afterwards, each greedy composition
        is yielded as soon as it is built, until a stopping rule fires.
        """
        for segmentation, _ in HBCuts().steps(
            self.engine, context, attributes
        ):
            yield segmentation

    def next_batch(self, stream: Iterator[Segmentation], size: int) -> List[Segmentation]:
        """Pull up to ``size`` more segmentations from a stream."""
        batch: List[Segmentation] = []
        for _ in range(size):
            try:
                batch.append(next(stream))
            except StopIteration:
                break
        return batch

    def first_answer(self, context: SDLQuery) -> Segmentation:
        """The very first segmentation available (latency-to-first-answer probe)."""
        try:
            return next(self.stream(context))
        except StopIteration:
            raise AdvisorError("no attribute of the context could be cut") from None
