"""Building blocks for synthetic workload generation.

Every workload in this package is generated rather than downloaded: the
paper's demonstration datasets (the Dutch East India Company shipping
records, the astronomy catalogue) are not distributed with it.  The
generators here provide the statistical structure those datasets exhibit —
categorical attributes driving numeric ones, correlated categories, skewed
(Zipf) popularity, temporal drift — so that HB-cuts has real dependencies
to discover and the INDEP quotient has real independence to certify.

All functions are deterministic given a seed, and draw whole columns:
NumPy's array calls run the same routine per element, in order, as the
scalar calls a per-row loop would make.  Where a loop interleaves
``random()`` with ``integers(0, n)``, :func:`_replay_draws` replays that run
of calls from the PCG64 bit generator's raw words, leaving the generator
exactly where the per-row calls leave it; it makes the scalar calls
instead when a draw would be rejected or the bit generator is not PCG64.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import WorkloadError
from repro.storage.column import StringColumn

__all__ = [
    "make_rng",
    "zipf_categorical_series",
    "dependent_categorical_series",
    "numeric_from_category",
    "year_series",
    "nominal_column",
    "serial_labels",
]


def make_rng(seed: Optional[int]) -> np.random.Generator:
    """A NumPy random generator for a (possibly None) seed."""
    return np.random.default_rng(seed)


def _validate_rows(rows: int) -> None:
    if rows <= 0:
        raise WorkloadError(f"the number of rows must be positive, got {rows}")


#: A nominal series: row ``i`` holds ``labels[indices[i]]``, the labels
#: distinct.  Draws index their labels already, so a series never holds a
#: string per row; :func:`nominal_column` stores it as a column.
Nominal = Tuple[Sequence[str], np.ndarray]


def categorical_series(
    rng: np.random.Generator,
    rows: int,
    categories: Sequence[str],
    probabilities: Optional[Sequence[float]] = None,
) -> Nominal:
    """Draw a categorical column with the given (or uniform) probabilities."""
    _validate_rows(rows)
    if not categories:
        raise WorkloadError("at least one category is required")
    if probabilities is not None:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.shape[0] != len(categories):
            raise WorkloadError("probabilities and categories must have the same length")
        if probabilities.min() < 0:
            raise WorkloadError("probabilities must be non-negative")
        total = probabilities.sum()
        if total <= 0:
            raise WorkloadError("probabilities must not sum to zero")
        probabilities = probabilities / total
    return categories, rng.choice(len(categories), size=rows, p=probabilities)


def zipf_categorical_series(
    rng: np.random.Generator,
    rows: int,
    categories: Sequence[str],
    exponent: float = 1.2,
) -> Nominal:
    """Draw a categorical column with Zipf-distributed popularity.

    The first category is the most popular; the tail decays as
    ``rank^-exponent``.  Used by the weblog workload (URL categories,
    countries) where real traffic is heavily skewed.
    """
    if exponent <= 0:
        raise WorkloadError(f"the Zipf exponent must be positive, got {exponent}")
    ranks = np.arange(1, len(categories) + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return categorical_series(rng, rows, categories, weights)


def dependent_categorical_series(
    rng: np.random.Generator,
    parent: Nominal,
    mapping: Dict[str, Sequence[str]],
    noise: float = 0.1,
    all_categories: Optional[Sequence[str]] = None,
) -> Nominal:
    """Draw a categorical column whose value depends on a parent column.

    For each row, with probability ``1 - noise`` the child value is drawn
    uniformly from ``mapping[parent]``; with probability ``noise`` it is
    drawn from the full category set, which keeps the dependence
    detectable but not deterministic.
    """
    if not 0.0 <= noise <= 1.0:
        raise WorkloadError(f"noise must lie in [0, 1], got {noise}")
    if all_categories is None:
        all_categories = list(dict.fromkeys(c for children in mapping.values() for c in children))
    if not all_categories:
        raise WorkloadError("the child category set is empty")
    parents, codes = parent
    # Pool 0 is the full set; pool 1 + c holds the children of parent c.
    pools = [all_categories] + [mapping.get(p, all_categories) or all_categories for p in parents]
    labels = list(dict.fromkeys(child for pool in pools for child in pool))
    sizes = np.array([len(pool) for pool in pools], dtype=np.int64)
    choices = np.zeros((len(pools), int(sizes.max())), dtype=np.int64)
    for row, pool in enumerate(pools):
        choices[row, : len(pool)] = [labels.index(child) for child in pool]

    def pool_of(drawn: List[np.ndarray], at: np.ndarray) -> np.ndarray:
        return np.where(drawn[0] < noise, 0, 1 + codes[at])

    draws, picks = _replay_draws(
        rng, len(codes), [None, lambda drawn, at: sizes[pool_of(drawn, at)]]
    )
    return labels, choices[np.where(draws < noise, 0, 1 + codes), picks]


def numeric_from_category(
    rng: np.random.Generator,
    parent: Nominal,
    means: Dict[str, float],
    spreads: Dict[str, float],
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    integer: bool = False,
) -> np.ndarray:
    """Draw a numeric column as a per-category Gaussian (category drives value).

    This is the planted dependency the Figure 1 example relies on: the
    boat type determines a tonnage band.  ``integer`` rounds to ``int64``.
    """
    default_mean = float(np.mean(list(means.values()))) if means else 0.0
    default_spread = float(np.mean(list(spreads.values()))) if spreads else 1.0
    parents, codes = parent
    mean = np.array([means.get(p, default_mean) for p in parents], dtype=np.float64)
    spread = np.array(
        [max(1e-9, spreads.get(p, default_spread)) for p in parents], dtype=np.float64
    )
    values = rng.normal(mean[codes], spread[codes])
    # The same comparisons as ``max(minimum, v)`` and ``min(maximum, v)``.
    if minimum is not None:
        values = np.where(values > minimum, values, minimum)
    if maximum is not None:
        values = np.where(values < maximum, values, maximum)
    return _rounded(values) if integer else values


def year_series(
    rng: np.random.Generator,
    rows: int,
    start: int,
    end: int,
    skew_towards_end: float = 0.0,
) -> np.ndarray:
    """Draw integer years in ``[start, end]`` (``int64``).

    ``skew_towards_end`` in ``[0, 1]`` biases draws towards the end of the
    interval (data volumes typically grow over time).
    """
    _validate_rows(rows)
    if end < start:
        raise WorkloadError(f"year range is empty: [{start}, {end}]")
    if not 0.0 <= skew_towards_end <= 1.0:
        raise WorkloadError("skew_towards_end must lie in [0, 1]")
    uniform = rng.random(rows)
    if skew_towards_end > 0:
        uniform = uniform ** (1.0 - 0.75 * skew_towards_end)
    return start + _rounded(uniform * (end - start))


def nominal_column(name: str, series: Nominal) -> StringColumn:
    """A nominal series as a column, from integer work on its rows."""
    return StringColumn.from_codes(name, series[1], series[0])


def serial_labels(prefix: str, rows: int, width: int) -> Nominal:
    """Row identifiers ``f"{prefix}{i:0{width}d}"`` for ``i`` in ``1..rows``,
    one label a row, formatted as one ``StringDType`` array."""
    numbers = np.arange(1, rows + 1).astype(np.dtypes.StringDType())
    return np.strings.add(prefix, np.strings.zfill(numbers, width)), np.arange(rows, dtype=np.int32)


def _rounded(values: np.ndarray) -> np.ndarray:
    """``round`` per value: to the nearest integer, half to even."""
    return np.rint(values).astype(np.int64)


#: One call of a per-row run: ``None`` is ``random()``, a bound ``n`` is
#: ``integers(0, n)``; a callable bound gets the row's earlier results and rows.
Draw = Union[None, int, Callable[[List[np.ndarray], np.ndarray], np.ndarray]]

_LOW_HALF = np.uint64(0xFFFFFFFF)


def _replay_draws(rng: np.random.Generator, rows: int, calls: Sequence[Draw]) -> List[np.ndarray]:
    """The results of making ``calls`` in order, once per row, for ``rows`` rows.

    Equal, value for value, to the scalar calls, and the generator is left
    in the state they leave it in.  For PCG64 the run is replayed from one
    ``random_raw`` block: a double is ``(word >> 11) * 2**-53``; an integer
    is Lemire's ``(u32 * n) >> 32`` over 32-bit halves taken low half
    first through the bit generator's ``has_uint32``/``uinteger`` buffer,
    which ``random()`` leaves alone; ``integers(0, 1)`` draws nothing.  A
    draw NumPy would reject and redraw, a computed bound outside
    ``[2, 2**32]`` or another bit generator restores the state and makes
    the scalar calls.  Rows are replayed ``_REPLAY_CHUNK`` at a time (each
    chunk starts where the last one left the generator), which bounds the
    replay's scratch arrays whatever the table's size.
    """
    bitgen = rng.bit_generator
    results: List[np.ndarray] = []
    for begin in range(0, max(rows, 1), _REPLAY_CHUNK):
        at = np.arange(begin, min(rows, begin + _REPLAY_CHUNK))
        start = bitgen.state
        part = _replayed(bitgen, start, at, calls) if start["bit_generator"] == "PCG64" else None
        if part is None:
            bitgen.state = start
            part = _scalar_draws(rng, at, calls)
        results = results or [np.empty(rows, dtype=values.dtype) for values in part]
        for column, values in zip(results, part):
            column[begin:begin + len(at)] = values
    return results


#: Rows a replay draws at once.
_REPLAY_CHUNK = 1 << 16


def _replayed(
    bitgen: np.random.BitGenerator, start: dict, at: np.ndarray, calls: Sequence[Draw]
) -> Optional[List[np.ndarray]]:
    rows = len(at)
    is_double = np.tile(np.array([call is None for call in calls], dtype=bool), rows)
    # A computed bound is taken to draw; the check below falls back if not.
    draws_half = [call is not None and (callable(call) or call > 1) for call in calls]
    takes_half = np.tile(np.array(draws_half, dtype=bool), rows)
    buffered = int(start["has_uint32"])
    half = np.cumsum(takes_half) - takes_half - buffered  # fresh halves drawn before
    takes_word = is_double | (takes_half & (half >= 0) & (half % 2 == 0))
    words = bitgen.random_raw(int(np.count_nonzero(takes_word)))
    word_at = np.cumsum(takes_word) - 1
    paired = words[word_at[takes_word & takes_half]]
    halves = np.stack([paired & _LOW_HALF, paired >> np.uint64(32)], axis=1).reshape(-1)
    halves = np.concatenate([np.array([start["uinteger"]] * buffered, dtype=np.uint64), halves])
    drawn = int(np.count_nonzero(takes_half))
    raw = np.zeros(rows * len(calls), dtype=np.uint64)
    raw[is_double] = words[word_at[is_double]] >> np.uint64(11)
    raw[takes_half] = halves[:drawn]
    raw = raw.reshape(rows, len(calls))

    results: List[np.ndarray] = []
    for slot, call in enumerate(calls):
        if call is None:
            results.append(raw[:, slot] * 2.0**-53)
            continue
        n = np.broadcast_to(call(results, at) if callable(call) else call, rows)
        if not ((n >= (2 if callable(call) else 1)) & (n <= 2**32)).all():
            return None
        n = n.astype(np.uint64)
        product = raw[:, slot] * n
        if np.any((product & _LOW_HALF) < (np.uint64(2**32) - n) % n):
            return None
        results.append((product >> np.uint64(32)).astype(np.int64))

    if drawn:
        fresh = drawn - buffered
        state = bitgen.state
        state["has_uint32"] = fresh % 2
        state["uinteger"] = int(halves[drawn if fresh % 2 else drawn - 1])
        bitgen.state = state
    return results


def _scalar_draws(rng: np.random.Generator, at: np.ndarray, calls: Sequence[Draw]) -> List[np.ndarray]:
    results = [np.zeros(len(at), dtype=float if call is None else np.int64) for call in calls]
    for row in range(len(at)):
        for slot, call in enumerate(calls):
            if call is None:
                results[slot][row] = rng.random()
            else:
                drawn = [r[row:row + 1] for r in results[:slot]]
                n = call(drawn, at[row:row + 1]) if callable(call) else call
                results[slot][row] = rng.integers(0, np.asarray(n).item())
    return results
