"""Column and table profiling.

Charles needs a cheap statistical sketch of the context before it starts
cutting: per-column cardinalities decide the nominal ordering rule of
Definition 5, and column entropies drive the workload generators' sanity
checks.  The profiler powers :meth:`Charles.profile
<repro.core.advisor.Charles.profile>` and the ``charles profile`` CLI
command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sdl.query import SDLQuery
from repro.storage.types import DataType

__all__ = ["TableProfile", "profile_backend", "column_entropy"]


def column_entropy(frequencies: Dict[Any, int]) -> float:
    """Shannon entropy (natural log) of a value-frequency histogram.

    Summed with :func:`math.fsum`, so the result is independent of the
    histogram's iteration order: every backend produces the same bits.
    """
    total = sum(frequencies.values())
    if total == 0:
        return 0.0
    entropy = -math.fsum(
        (count / total) * math.log(count / total)
        for count in frequencies.values()
        if count > 0
    )
    return entropy if entropy else 0.0  # never -0.0 for constant columns


@dataclass
class ColumnProfile:
    """Statistical sketch of a single column.

    Attributes
    ----------
    name, dtype:
        Column identity.
    row_count:
        Rows considered (after the optional context query).
    valid_count:
        Non-missing rows among them.
    distinct_count:
        Distinct non-missing values.
    minimum, maximum, median:
        Extremes and arithmetic median (``None`` for nominal columns).
    entropy:
        Shannon entropy of the value distribution (natural log).
    top_values:
        The most frequent values with their counts, most frequent first.
    quantiles:
        Selected numeric quantiles (q -> value), empty for nominal columns.
    """

    name: str
    dtype: DataType
    row_count: int
    valid_count: int
    distinct_count: int
    minimum: Any = None
    maximum: Any = None
    median: Any = None
    entropy: float = 0.0
    top_values: List[Tuple[Any, int]] = field(default_factory=list)
    quantiles: Dict[float, Any] = field(default_factory=dict)

    @property
    def missing_count(self) -> int:
        return self.row_count - self.valid_count

    @property
    def is_constant(self) -> bool:
        """Whether the column has at most one distinct value (cannot be cut)."""
        return self.distinct_count <= 1

    def describe(self) -> str:
        """One-line description used by the CLI profile command."""
        parts = [
            f"{self.name:<24}",
            f"{self.dtype.value:<7}",
            f"distinct={self.distinct_count:<6}",
            f"missing={self.missing_count:<6}",
            f"entropy={self.entropy:5.2f}",
        ]
        if self.dtype.is_numeric and self.minimum is not None:
            parts.append(f"range=[{self.minimum}, {self.maximum}] median={self.median}")
        elif self.top_values:
            top = ", ".join(f"{value}×{count}" for value, count in self.top_values[:3])
            parts.append(f"top: {top}")
        return "  ".join(str(p) for p in parts)


@dataclass
class TableProfile:
    """Profiles of every column of a table, plus global row counts."""

    table_name: str
    row_count: int
    columns: Dict[str, ColumnProfile] = field(default_factory=dict)

    def column(self, name: str) -> ColumnProfile:
        return self.columns[name]

    def cuttable_columns(self) -> List[str]:
        """Columns with at least two distinct values (candidates for CUT)."""
        return [name for name, profile in self.columns.items() if not profile.is_constant]

    def describe(self) -> str:
        lines = [f"table {self.table_name!r}: {self.row_count} rows, "
                 f"{len(self.columns)} columns"]
        for profile in self.columns.values():
            lines.append("  " + profile.describe())
        return "\n".join(lines)


_DEFAULT_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


def profile_backend(
    backend: Any,
    context: Optional[SDLQuery] = None,
    columns: Optional[Sequence[str]] = None,
    top_k: int = 10,
    quantiles: Sequence[float] = _DEFAULT_QUANTILES,
) -> TableProfile:
    """Profile a relation, optionally restricted to a context query.

    Issues nothing but aggregates — counts, min/max, medians and value
    frequencies of the :class:`~repro.backends.base.ExecutionBackend`
    protocol, plus ``dtype_of`` — so the in-memory engine and a pure SQL
    backend such as :class:`~repro.backends.sqlite.SQLiteBackend` are
    profiled the same way.  Quantiles are reconstructed exactly from the
    cumulative value histogram.
    """
    names = list(columns) if columns is not None else list(backend.column_names)
    row_count = backend.num_rows if context is None else backend.count(context)
    profiles: Dict[str, ColumnProfile] = {}
    for name in names:
        frequencies = backend.value_frequencies(name, context)
        valid_count = sum(frequencies.values())
        entropy = column_entropy(frequencies)
        top_values = sorted(
            frequencies.items(), key=lambda kv: (-kv[1], str(kv[0]))
        )[:top_k]
        numeric = backend.is_numeric(name)
        minimum = maximum = median = None
        quantile_values: Dict[float, Any] = {}
        if valid_count > 0:
            minimum, maximum = backend.minmax(name, context)
            if numeric:
                median = backend.median(name, context)
                ordered = sorted(frequencies)
                cumulative = np.cumsum([frequencies[value] for value in ordered])
                for q in quantiles:
                    position = int(round(q * (valid_count - 1)))
                    index = int(np.searchsorted(cumulative, position + 1))
                    quantile_values[q] = ordered[index]
        profiles[name] = ColumnProfile(
            name=name,
            dtype=backend.dtype_of(name),
            row_count=row_count,
            valid_count=valid_count,
            distinct_count=len(frequencies),
            minimum=minimum,
            maximum=maximum,
            median=median,
            entropy=entropy,
            top_values=top_values,
            quantiles=quantile_values,
        )
    return TableProfile(
        table_name=backend.name, row_count=row_count, columns=profiles
    )
