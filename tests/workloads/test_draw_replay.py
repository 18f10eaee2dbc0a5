"""The generators' whole-column draws are the per-row scalar calls.

``_replay_draws`` replays a run of ``random()`` / ``integers(0, n)`` calls
from the bit generator's raw words; each property makes the same calls one
at a time on a twin generator and requires equal values and an equal
``bit_generator.state`` afterwards.  The rewritten public helpers are
compared against verbatim copies of their per-row implementations.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence
from unittest import mock

import hypothesis.strategies as st
import numpy as np
from hypothesis import given

from repro.workloads import (
    dependent_categorical_series,
    numeric_from_category,
    year_series,
)
from repro.workloads import generators
from repro.workloads.generators import _replay_draws, _rounded

seeds = st.integers(min_value=0, max_value=2**32 - 1)
#: ``None`` is a ``random()`` call, ``n`` an ``integers(0, n)`` call.
small_calls = st.lists(st.one_of(st.none(), st.integers(1, 12)), max_size=12)
#: Bounds near 2**32: around 2**31 almost half the draws are rejected.
wide_bounds = st.one_of(
    st.integers(2**31 - 2, 2**31 + 2), st.integers(2**32 - 2, 2**32)
)


def twins(seed: int, buffered: bool, bit_generator=np.random.PCG64):
    """Two generators in the same state, a half buffered if ``buffered``."""
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    if buffered:
        for rng in pair:
            rng.integers(0, 7)
    return pair


def state(rng: np.random.Generator) -> str:
    """The bit generator's whole state (MT19937 keeps an array in it)."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def scalar_calls(rng: np.random.Generator, rows: int, calls) -> List[List[float]]:
    results: List[List[float]] = [[] for _ in calls]
    for _ in range(rows):
        for slot, call in enumerate(calls):
            results[slot].append(rng.random() if call is None else int(rng.integers(0, call)))
    return results


def assert_replays(
    seed: int, buffered: bool, rows: int, calls, bit_generator=np.random.PCG64, scalar_path=None
):
    """``scalar_path``: whether the replay must fall back (None: either way)."""
    replayed, scalar = twins(seed, buffered, bit_generator)
    with mock.patch.object(
        generators, "_scalar_draws", wraps=generators._scalar_draws
    ) as fallback:
        got = _replay_draws(replayed, rows, calls)
    if scalar_path is not None:
        assert fallback.called is scalar_path
    expected = scalar_calls(scalar, rows, calls)
    assert [list(column) for column in got] == expected
    assert [column.dtype.kind for column in got] == ["f" if c is None else "i" for c in calls]
    assert state(replayed) == state(scalar)
    # The next draws agree too, whatever the buffer holds.
    assert replayed.integers(0, 5, size=3).tolist() == scalar.integers(0, 5, size=3).tolist()
    assert replayed.random() == scalar.random()


@given(seed=seeds, buffered=st.booleans(), calls=small_calls)
def test_one_run_of_calls_replays(seed, buffered, calls):
    assert_replays(seed, buffered, 1, calls, scalar_path=False)


@given(
    seed=seeds,
    buffered=st.booleans(),
    rows=st.integers(0, 40),
    calls=st.lists(st.one_of(st.none(), st.integers(1, 12)), min_size=1, max_size=4),
)
def test_per_row_runs_replay(seed, buffered, rows, calls):
    assert_replays(seed, buffered, rows, calls, scalar_path=False)


@given(
    seed=seeds,
    buffered=st.booleans(),
    rows=st.integers(0, 40),
    calls=st.lists(st.one_of(st.none(), st.integers(1, 12)), min_size=1, max_size=4),
    chunk=st.integers(1, 7),
)
def test_a_replay_in_chunks_is_one_run(seed, buffered, rows, calls, chunk):
    # Each chunk starts where the last left the generator, a buffered half included.
    with mock.patch.object(generators, "_REPLAY_CHUNK", chunk):
        assert_replays(seed, buffered, rows, calls, scalar_path=False)


@given(seed=seeds, buffered=st.booleans(), bound=wide_bounds, rows=st.integers(1, 12))
def test_bounds_near_2_32_replay_through_rejection(seed, buffered, bound, rows):
    assert_replays(seed, buffered, rows, [None, bound])


def test_a_rejected_draw_falls_back_to_the_scalar_calls():
    # At n = 2**31 + 1 almost half of all draws are rejected and redrawn.
    assert_replays(3, False, 64, [2**31 + 1], scalar_path=True)


@given(seed=seeds, buffered=st.booleans(), calls=small_calls)
def test_other_bit_generators_take_the_scalar_path(seed, buffered, calls):
    assert_replays(seed, buffered, 3, calls, np.random.MT19937, scalar_path=True)


@given(
    seed=seeds,
    buffered=st.booleans(),
    rows=st.integers(0, 30),
    noise=st.floats(0, 1),
    chunk=st.sampled_from([4, 1 << 16]),
)
def test_computed_bounds_replay(seed, buffered, rows, noise, chunk):
    sizes = np.array([3, 1, 7])  # a bound of 1 draws nothing: the replay falls back

    def bound(drawn, at):  # ``at`` numbers rows across chunks
        return np.where(drawn[0] < noise, sizes[at % 3], 5)

    replayed, scalar = twins(seed, buffered)
    with mock.patch.object(generators, "_REPLAY_CHUNK", chunk):
        got = _replay_draws(replayed, rows, [None, bound])
    doubles, picks = [], []
    for row in range(rows):
        doubles.append(scalar.random())
        picks.append(int(scalar.integers(0, sizes[row % 3] if doubles[-1] < noise else 5)))
    assert [got[0].tolist(), got[1].tolist()] == [doubles, picks]
    assert state(replayed) == state(scalar)


# -- the rewritten helpers against their per-row implementations -------------------


def per_row_dependent_categorical_series(
    rng: np.random.Generator,
    parent_values: Sequence[str],
    mapping: Dict[str, Sequence[str]],
    noise: float = 0.1,
    all_categories: Optional[Sequence[str]] = None,
) -> List[str]:
    if all_categories is None:
        seen: Dict[str, None] = {}
        for children in mapping.values():
            for child in children:
                seen.setdefault(child, None)
        all_categories = list(seen)
    result: List[str] = []
    for parent in parent_values:
        children = mapping.get(parent, all_categories)
        if rng.random() < noise or not children:
            pool = all_categories
        else:
            pool = children
        result.append(pool[int(rng.integers(0, len(pool)))])
    return result


def per_row_numeric_from_category(
    rng: np.random.Generator,
    parent_values: Sequence[str],
    means: Dict[str, float],
    spreads: Dict[str, float],
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    integer: bool = False,
) -> List[float]:
    default_mean = float(np.mean(list(means.values()))) if means else 0.0
    default_spread = float(np.mean(list(spreads.values()))) if spreads else 1.0
    values: List[float] = []
    for parent in parent_values:
        mean = means.get(parent, default_mean)
        spread = max(1e-9, spreads.get(parent, default_spread))
        value = float(rng.normal(mean, spread))
        if minimum is not None:
            value = max(minimum, value)
        if maximum is not None:
            value = min(maximum, value)
        values.append(round(value) if integer else value)
    return values


def per_row_year_series(
    rng: np.random.Generator,
    rows: int,
    start: int,
    end: int,
    skew_towards_end: float = 0.0,
) -> List[int]:
    uniform = rng.random(rows)
    if skew_towards_end > 0:
        uniform = uniform ** (1.0 - 0.75 * skew_towards_end)
    span = end - start
    return [int(start + round(u * span)) for u in uniform]


parents = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=60)
children = st.lists(st.sampled_from(["x", "y", "z", "w"]), max_size=4)


def nominal(values):
    """A list of texts as a nominal series (labels, indices)."""
    labels = list(dict.fromkeys(values))
    return labels, np.array([labels.index(value) for value in values], dtype=np.int64)


def assert_same_calls(seed: int, buffered: bool, new, old, *args, **kwargs):
    """``new`` (nominal parents in, arrays or nominal series out) against
    ``old`` (lists in and out) on twin generators."""
    rewritten, reference = twins(seed, buffered)
    new_args = [nominal(a) if isinstance(a, list) else a for a in args]
    got = new(rewritten, *new_args, **kwargs)
    got = [got[0][i] for i in got[1].tolist()] if isinstance(got, tuple) else got.tolist()
    expected = old(reference, *args, **kwargs)
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]
    assert state(rewritten) == state(reference)


@given(
    seed=seeds,
    buffered=st.booleans(),
    parent_values=parents,
    mapping=st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), children),
    noise=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    all_categories=st.one_of(st.none(), st.lists(st.sampled_from(["x", "y", "q"]), min_size=1)),
)
def test_dependent_categorical_series_is_the_per_row_loop(
    seed, buffered, parent_values, mapping, noise, all_categories
):
    if all_categories is None and not any(mapping.values()):
        return  # rejected up front by both
    assert_same_calls(
        seed, buffered, dependent_categorical_series, per_row_dependent_categorical_series,
        parent_values, mapping, noise=noise, all_categories=all_categories,
    )


@given(
    seed=seeds,
    buffered=st.booleans(),
    parent_values=parents,
    means=st.dictionaries(st.sampled_from(["a", "b", "c"]), st.floats(-1e3, 1e3)),
    spreads=st.dictionaries(st.sampled_from(["a", "b", "c"]), st.floats(0.0, 50.0)),
    bounds=st.sampled_from([(None, None), (0.0, None), (None, 10.0), (-5.0, 5.0)]),
    integer=st.booleans(),
)
def test_numeric_from_category_is_the_per_row_loop(
    seed, buffered, parent_values, means, spreads, bounds, integer
):
    minimum, maximum = bounds
    assert_same_calls(
        seed, buffered, numeric_from_category, per_row_numeric_from_category,
        parent_values, means, spreads, minimum=minimum, maximum=maximum, integer=integer,
    )


@given(
    seed=seeds,
    rows=st.integers(1, 200),
    start=st.integers(-3000, 3000),
    span=st.integers(0, 400),
    skew=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_year_series_is_the_per_row_loop(seed, rows, start, span, skew):
    assert_same_calls(
        seed, False, year_series, per_row_year_series, rows, start, start + span,
        skew_towards_end=skew,
    )


def test_halves_round_to_even_like_round():
    halves = [0.5, 1.5, 2.5, -0.5, -1.5, 1e15 + 0.5]
    assert _rounded(np.array(halves)).tolist() == [round(v) for v in halves]
