"""ApproxEngine: the one approximate view — a uniform row sample with a bound.

The paper's only approximation is Section 5.2's "not all tuples are
necessary to give good results".  :class:`ApproxEngine` is that idea as a
backend: it decorates an unsampled backend, answers the statistics from
a uniform sample of its rows (counts and contingency-table cells scaled
back to ``|T|``; medians, min/max and value frequencies on the sample as
they are) and leaves identity, schema, data version and mutation to the
backend it decorates.

Why a row sample and not per-column summaries: the advisor's job is to
find *dependent* attributes, and a summary of each column alone cannot see
dependence — a sample keeps whole rows, so every conjunctive query is
answered with the same accuracy.

Every answer carries one error bound ``ε``, the half-width of the
two-sided Hoeffding–Serfling interval (sampling without replacement) at
:data:`CONFIDENCE` for a sample of ``n`` of ``|T|`` rows.  It is a
fraction of ``|T|`` and depends on nothing but ``n`` and ``|T|``:

* a count is, with probability at least :data:`CONFIDENCE`, within
  ``ε·|T|`` rows of the exact count — for *any* conjunctive query;
* a median's rank in the exact selection is, in the same sense, within
  ``ε·|T|`` rows of the selection's middle;
* ``ε`` is 0 when the sample is the whole table.

The bound is per answer, not simultaneous over all answers of one advise,
and says nothing about min/max or about values absent from the sample —
which is why approximate advice is always backed by an exact refinement
on :attr:`ApproxEngine.base_engine`.  Rich answers
(:meth:`ApproxEngine.approx_count`, :meth:`ApproxEngine.approx_median`)
return :class:`Estimate` objects; the protocol methods return plain
values and :meth:`ApproxEngine.take_error_bound` reports the bound they
carry — the figure :class:`~repro.core.advisor.Advice` stamps on itself.

The view follows its backend's ``data_version``: one integer comparison
per call, and the first call after a mutation draws a fresh sample,
seeded by the view's seed and the version, so equal data gives equal
advice.  ``sample(fraction, seed)`` is the backend's own, and on every
backend it returns the memory engine over an in-memory table of the
sampled rows, memoized per version and seed and shared by siblings, so a
superseded sample dies by reference count.  The sample's engine has a
private cache and counts into the view's own counter, so approximate
traffic never shows on the exact engine.

Specs: ``memory?sample=0.1`` / ``sqlite?sample=0.25`` (optionally
``&seed=7``) resolve here through :func:`repro.backends.open_backend`;
``advise(mode="interactive")`` builds a view of
:data:`INTERACTIVE_SAMPLE_ROWS` rows over whatever backend it has.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.backends.base import BackendWrapper, ExecutionBackend
from repro.errors import BackendError
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation
from repro.storage.engine import OperationCounter

__all__ = ["INTERACTIVE_SAMPLE_ROWS", "ApproxEngine"]

#: Confidence of every reported bound.
CONFIDENCE = 0.99

#: Rows of the view ``advise(mode="interactive")`` builds.  Measured on 28
#: three-attribute VOC contexts (12 000 rows, 3 sample seeds) against the
#: exact advice: 1 000 rows gave 8 spurious compositions, 2 000 none and
#: every exact one, 4 096 the same answers 25 % slower
#: (docs/architecture.md has the table).
INTERACTIVE_SAMPLE_ROWS = 2000

#: Seed of a view built without one.
_SEED = 2013


def sampling_error_bound(sample_rows: int, rows: int) -> float:
    """Half-width of the Hoeffding–Serfling interval at :data:`CONFIDENCE`.

    For a mean of ``[0, 1]`` values over ``sample_rows`` of ``rows`` rows
    drawn without replacement (Bardenet & Maillard 2015, Corollary 2.5,
    two-sided); 0 when the sample is the whole table.
    """
    n, population = sample_rows, rows
    if n >= population:
        return 0.0
    if n <= population / 2:
        rho = 1.0 - (n - 1) / population
    else:
        rho = (1.0 - n / population) * (1.0 + 1.0 / n)
    return min(1.0, math.sqrt(rho * math.log(2.0 / (1.0 - CONFIDENCE)) / (2.0 * n)))


@dataclass(frozen=True)
class Estimate:
    """One approximate answer: the value, its bound, and the approx flag.

    ``error_bound`` is a fraction of the table's rows — of the count for
    counts, of the rank for medians — so bounds compare across table sizes.
    """

    estimate: Any
    error_bound: float
    approximate: bool = True


class _Sample(NamedTuple):
    """One data version's sample and the figures derived from its size."""

    version: int
    engine: Any  # the backend over the sampled rows
    scale: float  # |T| / n
    bound: float  # sampling_error_bound(n, |T|)


class ApproxEngine(BackendWrapper):
    """A backend answering statistics from a uniform sample of another.

    Parameters
    ----------
    inner:
        The unsampled backend to decorate.  It must expose
        ``sample(fraction, seed)`` returning a backend over a uniform
        sample of its current rows (the memory engine and SQLite do).
    fraction:
        Sampling rate in ``(0, 1]`` (the backend's ``sample`` rejects any
        other); ``None`` samples :data:`INTERACTIVE_SAMPLE_ROWS` rows
        whatever the table's size.
    seed:
        Seed of the samples (mixed with the data version); ``None`` uses
        a constant, so two views of equal data answer alike.
    """

    def __init__(
        self,
        inner: ExecutionBackend,
        fraction: Optional[float] = None,
        seed: Optional[int] = None,
    ):
        if not hasattr(inner, "sample"):
            raise BackendError(
                f"backend {type(inner).__name__} cannot produce a sample; "
                "it must expose sample(fraction, seed)"
            )
        super().__init__(inner)
        self.fraction = fraction
        self.seed = seed
        # One tally for the life of the view: every version's sample
        # engine counts into it, so deltas survive a resample.
        self._counter = OperationCounter()
        self._lock = threading.Lock()
        self._sample = self._draw()

    # -- the sample ---------------------------------------------------------------

    def _draw(self) -> _Sample:
        base = self.inner
        seed = _SEED if self.seed is None else self.seed
        while True:
            version = base.data_version
            rows = base.num_rows
            fraction = self.fraction
            if fraction is None:
                fraction = min(1.0, INTERACTIVE_SAMPLE_ROWS / max(rows, 1))
            engine = base.sample(fraction, seed=seed + version)
            if base.data_version == version:  # else a mutation raced the draw
                break
        engine.counter = self._counter
        sampled = engine.num_rows
        return _Sample(
            version,
            engine,
            rows / sampled if sampled else 1.0,
            sampling_error_bound(sampled, rows),
        )

    def _current(self) -> _Sample:
        """The sample of the backend's current data version (drawn lazily)."""
        sample = self._sample
        if sample.version == self.inner.data_version:
            return sample
        with self._lock:
            if self._sample.version != self.inner.data_version:
                self._sample = self._draw()
            return self._sample

    @property
    def base_engine(self) -> ExecutionBackend:
        """The unsampled backend (what exact refinement runs on)."""
        return self.inner

    @property
    def scale_factor(self) -> float:
        """Inverse sampling rate used to extrapolate counts."""
        return self._current().scale

    def take_error_bound(self) -> float:
        """The bound every answer from the current sample carries."""
        return self._current().bound

    def sibling(self) -> "ApproxEngine":
        """A view over a sibling of the decorated backend: same sampled
        rows (the backend memoizes them per version and seed), private
        cache and counters."""
        return ApproxEngine(self.inner.sibling(), self.fraction, self.seed)

    # -- rich approximate answers -------------------------------------------------

    def approx_count(self, query: SDLQuery) -> Estimate:
        """``|R(Q)|`` as an :class:`Estimate`: the sample count scaled to ``|T|``."""
        sample = self._current()
        return Estimate(
            int(round(sample.engine.count(query) * sample.scale)), sample.bound
        )

    def approx_median(
        self, attribute: str, query: Optional[SDLQuery] = None
    ) -> Estimate:
        """Median of ``attribute`` over the sampled selection, as an :class:`Estimate`."""
        sample = self._current()
        return Estimate(sample.engine.median(attribute, query), sample.bound)

    # -- ExecutionBackend protocol: the statistics, from the sample -----------------

    @property
    def counter(self) -> OperationCounter:
        return self._counter

    def count(self, query: SDLQuery) -> int:
        return self.approx_count(query).estimate

    def count_batch(self, queries: Sequence[SDLQuery]) -> Tuple[int, ...]:
        sample = self._current()
        return tuple(
            int(round(count * sample.scale))
            for count in sample.engine.count_batch(queries)
        )

    def crosstab(
        self, first: Segmentation, second: Segmentation
    ) -> Tuple[Tuple[int, ...], ...]:
        sample = self._current()
        return tuple(
            tuple(int(round(count * sample.scale)) for count in row)
            for row in sample.engine.crosstab(first, second)
        )

    def median(self, attribute: str, query: Optional[SDLQuery] = None) -> Any:
        return self.approx_median(attribute, query).estimate

    def minmax(
        self, attribute: str, query: Optional[SDLQuery] = None
    ) -> Tuple[Any, Any]:
        return self._current().engine.minmax(attribute, query)

    def value_frequencies(
        self, attribute: str, query: Optional[SDLQuery] = None
    ) -> Dict[Any, int]:
        return self._current().engine.value_frequencies(attribute, query)

    def stats(self) -> Dict[str, Any]:
        sample = self._current()
        inner_stats = self.inner.stats()
        return {
            **inner_stats,
            "backend": f"sampled({inner_stats.get('backend', 'unknown')})",
            "operations": self._counter.snapshot(),
            "sample": {
                "rows": sample.engine.num_rows,
                "scale_factor": sample.scale,
                "error_bound": sample.bound,
                "confidence": CONFIDENCE,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sample = self._sample
        return (
            f"ApproxEngine(table={self.name!r}, rows={self.num_rows}, "
            f"sample_rows={sample.engine.num_rows}, error_bound={sample.bound:.4f})"
        )
