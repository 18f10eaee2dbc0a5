"""Sampling strategies (paper, Section 5.2).

The paper identifies median computation as the main bottleneck and
suggests that "not all tuples are necessary to give good results".  This
module implements that extension:

* :func:`uniform_sample_indices` and :func:`reservoir_sample` — basic
  sampling primitives;
* :class:`SampledEngine` — a wrapper around **any**
  :class:`~repro.backends.base.ExecutionBackend` that evaluates medians,
  min/max and value frequencies on a uniform sample and scales counts
  back to the full population.  Given a :class:`~repro.storage.table.Table`
  it samples in memory; given a backend it asks the backend to produce a
  sampled sibling (``backend.sample(fraction, seed)``), so e.g. a SQLite
  backend samples inside SQLite.

Benchmark E8 measures the accuracy / speed trade-off across sample rates.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.backends.base import BackendWrapper
from repro.errors import StorageError
from repro.sdl.query import SDLQuery
from repro.storage.engine import QueryEngine
from repro.storage.table import Table

__all__ = [
    "uniform_sample_indices",
    "reservoir_sample",
    "sample_table",
    "SampledEngine",
]

T = TypeVar("T")


def uniform_sample_indices(
    population_size: int,
    sample_size: Optional[int] = None,
    fraction: Optional[float] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Sorted row positions of a uniform random sample without replacement.

    Exactly one of ``sample_size`` and ``fraction`` must be provided.  The
    result preserves the original row order, so sampled tables keep the
    relative ordering of tuples.
    """
    if (sample_size is None) == (fraction is None):
        raise StorageError("provide exactly one of sample_size and fraction")
    if fraction is not None:
        if not 0.0 < fraction <= 1.0:
            raise StorageError(f"fraction must lie in (0, 1], got {fraction}")
        sample_size = max(1, int(round(population_size * fraction)))
    assert sample_size is not None
    if sample_size <= 0:
        raise StorageError(f"sample_size must be positive, got {sample_size}")
    sample_size = min(sample_size, population_size)
    rng = np.random.default_rng(seed)
    indices = rng.choice(population_size, size=sample_size, replace=False)
    indices.sort()
    return indices.astype(np.int64)


def reservoir_sample(items: Iterable[T], k: int, seed: Optional[int] = None) -> List[T]:
    """Reservoir sampling (algorithm R) over an arbitrary iterable.

    Keeps a uniform sample of ``k`` items from a stream of unknown length,
    which is how a production system would sample a table it cannot hold
    in memory.
    """
    if k <= 0:
        raise StorageError(f"reservoir size must be positive, got {k}")
    rng = np.random.default_rng(seed)
    reservoir: List[T] = []
    for index, item in enumerate(items):
        if index < k:
            reservoir.append(item)
            continue
        slot = int(rng.integers(0, index + 1))
        if slot < k:
            reservoir[slot] = item
    return reservoir


def sample_table(
    table: Table,
    fraction: Optional[float] = None,
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
) -> Table:
    """A uniformly-sampled copy of a table (row order preserved)."""
    indices = uniform_sample_indices(
        table.num_rows, sample_size=sample_size, fraction=fraction, seed=seed
    )
    return table.take(indices, name=f"{table.name}_sample")


class SampledEngine(BackendWrapper):
    """A backend wrapper that answers statistics from a uniform sample.

    Counts are estimated by scaling the sample count with the inverse
    sampling rate; medians, min/max and frequencies are computed on the
    sample directly.  The exact backend over the full population remains
    available as :attr:`base_engine` so callers can compare.

    The wrapper composes with any :class:`~repro.backends.base.ExecutionBackend`
    (it used to subclass the concrete :class:`QueryEngine`): pass a
    :class:`~repro.storage.table.Table` and the sample is an in-memory
    engine over :func:`sample_table`; pass a backend exposing
    ``sample(fraction, seed)`` and the sample lives wherever that backend
    decides (SQLite materialises a sampled sibling table).

    Parameters
    ----------
    source:
        The full relation — a :class:`Table` or an ``ExecutionBackend``.
    fraction:
        Sampling rate in ``(0, 1]``.
    seed:
        Random seed for reproducible samples.
    cache_size:
        Forwarded to the in-memory engine built for a ``Table`` source.
    """

    def __init__(
        self,
        source: Any,
        fraction: float = 0.1,
        seed: Optional[int] = None,
        cache_size: int = 256,
    ):
        if not 0.0 < fraction <= 1.0:
            raise StorageError(f"fraction must lie in (0, 1], got {fraction}")
        self.fraction = float(fraction)
        self.seed = seed
        self._base: Optional[Any]
        if isinstance(source, Table):
            self.full_table: Optional[Table] = source
            self._base = None  # built lazily over the full table
            full_rows = source.num_rows
            sampled = sample_table(source, fraction=fraction, seed=seed)
            inner = QueryEngine(sampled, cache_size=cache_size)
        else:
            self.full_table = getattr(source, "table", None)
            self._base = source
            full_rows = source.num_rows
            if not hasattr(source, "sample"):
                raise StorageError(
                    f"backend {type(source).__name__} cannot produce a sample; "
                    "it must expose sample(fraction, seed)"
                )
            inner = source.sample(fraction, seed=seed)
        super().__init__(inner)
        self._scale = full_rows / inner.num_rows if inner.num_rows else 1.0

    @property
    def scale_factor(self) -> float:
        """Inverse sampling rate used to extrapolate counts."""
        return self._scale

    @property
    def base_engine(self) -> Any:
        """An exact backend over the full population (built on first access)."""
        if self._base is None:
            assert self.full_table is not None
            self._base = QueryEngine(self.full_table)
        return self._base

    def count(self, query: SDLQuery) -> int:
        """Estimated full-population cardinality (sample count × scale factor)."""
        return int(round(self.inner.count(query) * self._scale))

    def count_batch(self, queries: Sequence[SDLQuery]) -> Tuple[int, ...]:
        """Scaled estimates for a whole batch (one sample-backend pass)."""
        return tuple(
            int(round(count * self._scale))
            for count in self.inner.count_batch(queries)
        )

    def cover(self, query: SDLQuery, context: Optional[SDLQuery] = None) -> float:
        """Covers are scale-free: both operands come from the sample."""
        numerator = self.inner.count(query)
        denominator = (
            self.inner.num_rows if context is None else self.inner.count(context)
        )
        if denominator == 0:
            return 0.0
        return numerator / denominator

    def ingest(self, rows: Any) -> int:
        """Sampled views are frozen: mutating through one is rejected.

        Ingesting into the *sample* would silently bias every scaled
        estimate; ingest through the unsampled backend and rebuild the
        sampled view instead.
        """
        raise StorageError(
            "a sampled backend is a frozen statistical view and cannot "
            "ingest; ingest through the unsampled backend and re-sample"
        )

    def delete_where(self, query: SDLQuery) -> int:
        """Sampled views are frozen: mutating through one is rejected."""
        raise StorageError(
            "a sampled backend is a frozen statistical view and cannot "
            "delete; delete through the unsampled backend and re-sample"
        )

    def exact_count(self, query: SDLQuery) -> int:
        """Exact cardinality on the full population (accuracy measurements)."""
        return self.base_engine.count(query)

    def estimation_error(self, query: SDLQuery) -> float:
        """Relative count-estimation error against the exact backend."""
        exact = self.exact_count(query)
        if exact == 0:
            return 0.0 if self.count(query) == 0 else 1.0
        return abs(self.count(query) - exact) / exact

    def stats(self) -> Dict[str, Any]:
        inner_stats = self.inner.stats()
        return {
            **inner_stats,
            "backend": f"sampled({inner_stats.get('backend', 'unknown')})",
            "fraction": self.fraction,
            "scale_factor": self._scale,
        }

    def sibling(self) -> "SampledEngine":
        """A sampled engine sharing this one's sample and scale, with
        private counters (requires the inner backend to support it)."""
        clone = SampledEngine.__new__(SampledEngine)
        BackendWrapper.__init__(clone, self.inner.sibling())
        clone.fraction = self.fraction
        clone.seed = self.seed
        clone.full_table = self.full_table
        clone._base = self._base
        clone._scale = self._scale
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SampledEngine(fraction={self.fraction}, seed={self.seed}, "
            f"sample_rows={self.inner.num_rows}, scale={self._scale:.2f})"
        )
