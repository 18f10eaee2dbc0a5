"""Sampling primitives (paper, Section 5.2).

The paper identifies median computation as the main bottleneck and
suggests that "not all tuples are necessary to give good results".
:func:`uniform_sample_indices` draws the row positions of a uniform
sample without replacement and :func:`sample_table` copies them out of a
table; every backend's ``sample(fraction, seed)`` draws through them, and
:class:`~repro.backends.approx.ApproxEngine` turns such a sample into the
approximate view (scaled counts with a reported error bound).

Benchmark E8 measures the accuracy / speed trade-off across sample rates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import StorageError
from repro.storage.table import Table

__all__ = ["uniform_sample_indices", "sample_table"]


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
