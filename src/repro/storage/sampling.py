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

import numpy as np

from repro.errors import StorageError
from repro.storage.table import Table

__all__ = ["uniform_sample_indices", "sample_table"]


def uniform_sample_indices(population_size: int, fraction: float, seed: int) -> np.ndarray:
    """Sorted row positions of a uniform random sample without replacement,
    ``round(population_size * fraction)`` of them (at least one).

    The result preserves the original row order, so sampled tables keep the
    relative ordering of tuples.
    """
    if not 0.0 < fraction <= 1.0:
        raise StorageError(f"fraction must lie in (0, 1], got {fraction}")
    sample_size = min(max(1, int(round(population_size * fraction))), population_size)
    rng = np.random.default_rng(seed)
    indices = rng.choice(population_size, size=sample_size, replace=False)
    indices.sort()
    return indices.astype(np.int64)


def sample_table(table: Table, fraction: float, seed: int) -> Table:
    """A uniformly-sampled copy of a table (row order preserved)."""
    indices = uniform_sample_indices(table.num_rows, fraction, seed)
    return table.take(indices, name=f"{table.name}_sample")
