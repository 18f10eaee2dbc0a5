"""``crosstab`` is the product's cell counts, on every backend and access path.

A contingency table must equal ``count_batch`` over the product's cells
(:func:`~repro.sdl.segmentation.product_grid`, 0 where two pieces
contradict) on the memory engine across its forced planner grid, on
SQLite and on the sampled view.  Tables are nullable with few distinct
values (ties, constant columns), contexts may hold a single row, and
segmentations are either cut by the advisor's own CUT/COMPOSE (pieces
that partition their context: the label path) or arbitrary pieces that
may overlap or leave rows out (overlap: the cell path).
"""

from __future__ import annotations

from typing import Any, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import assume, event, given

from repro.backends import ApproxEngine, open_backend
from repro.core import compose, cut_query
from repro.errors import CannotCutError, CompositionError, EmptyColumnError
from repro.obs.trace import start_trace
from repro.sdl import NoConstraint, RangePredicate, SDLQuery, SetPredicate
from repro.sdl.segmentation import Segment, Segmentation, product_grid
from repro.storage import DataType, QueryEngine, Table, build_column
from repro.workloads import generate_voc

_DTYPES = {"num": DataType.INT, "val": DataType.FLOAT, "cat": DataType.STRING}
_CATEGORIES = ["a", "b", "c"]

#: The memory engine's forced planner grid: index features × shards.
_GRID = [
    (use_index, partitions)
    for use_index in ("none", "all")
    for partitions in (1, 3)
]


@st.composite
def tables(draw) -> Table:
    """Up to 30 rows of few distinct values, NULLs in every column; a
    column may be constant."""
    rows = draw(st.integers(min_value=1, max_value=30))
    cells = {
        "num": st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        "val": st.one_of(st.none(), st.sampled_from([0.5, 1.5, 2.5])),
        "cat": st.one_of(st.none(), st.sampled_from(_CATEGORIES)),
    }
    columns = []
    for name, values in cells.items():
        if draw(st.booleans()):
            values = st.just(draw(values))  # a constant column
        cells_of_column = draw(st.lists(values, min_size=rows, max_size=rows))
        columns.append(build_column(name, cells_of_column, _DTYPES[name]))
    return Table("crosstab", columns)


def _predicates(attribute: str) -> st.SearchStrategy:
    if attribute == "cat":
        return st.sets(st.sampled_from(_CATEGORIES), min_size=1, max_size=2).map(
            lambda members: SetPredicate("cat", frozenset(members))
        )
    if attribute == "num":
        bound = st.integers(min_value=0, max_value=4)
    else:
        bound = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    return st.tuples(bound, bound).map(
        lambda pair: RangePredicate(attribute, min(pair), max(pair))
    )


@st.composite
def contexts(draw) -> SDLQuery:
    """Every column, unconstrained or narrowed (possibly to one row)."""
    return SDLQuery(
        draw(st.one_of(st.just(NoConstraint(name)), _predicates(name))) for name in _DTYPES
    )


@st.composite
def arbitrary(draw, context: SDLQuery) -> Segmentation:
    """Pieces of the context narrowed by any predicates: they may overlap,
    repeat or leave rows out."""
    narrowed = [
        context.refine(draw(_predicates(draw(st.sampled_from(list(_DTYPES))))))
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    segments = [Segment(query, 0) for query in narrowed if query is not None]
    assume(segments)
    return Segmentation(context, segments)


def _cut(draw, engine: QueryEngine, context: SDLQuery) -> Segmentation:
    """CUT on one attribute, COMPOSEd with a cut on another half the time;
    an arbitrary segmentation when the data cannot be cut."""
    first, second = draw(st.permutations(list(_DTYPES)))[:2]
    try:
        segmentation = cut_query(engine, context, first)
        if draw(st.booleans()):
            other = cut_query(engine, context, second)
            segmentation = compose(engine, segmentation, other)
    except (CannotCutError, CompositionError, EmptyColumnError):
        return draw(arbitrary(context))
    return segmentation


def _by_cells(backend: Any, first: Segmentation, second: Segmentation) -> Tuple[Any, ...]:
    """The reference: ``count_batch`` over the product's satisfiable cells."""
    grid = product_grid(first, second)
    cells = [cell for row in grid for cell in row if cell is not None]
    counts = iter(backend.count_batch(cells))
    return tuple(tuple(0 if cell is None else next(counts) for cell in row) for row in grid)


def _traced_crosstab(
    backend: Any, first: Segmentation, second: Segmentation
) -> Tuple[Any, str]:
    """The table and the ``path`` its span reports."""
    root = start_trace("test")
    with root:
        table = backend.crosstab(first, second)
    (leaf,) = root.to_document()["children"]
    assert leaf["name"] == "engine.crosstab"
    return table, leaf["attributes"]["path"]


def _overlaps(segmentation: Segmentation, engine: QueryEngine) -> bool:
    masks = [engine.evaluate(segment.query) for segment in segmentation.segments]
    return int(sum(mask.sum() for mask in masks)) != int(sum(masks).astype(bool).sum())


@given(table=tables(), context=contexts(), data=st.data())
def test_crosstab_equals_the_cell_counts_everywhere(table, context, data):
    reference = QueryEngine(table)
    first, second = (
        _cut(data.draw, reference, context)
        if data.draw(st.booleans())
        else data.draw(arbitrary(context))
        for _ in range(2)
    )
    expected = _by_cells(QueryEngine(table, use_index="none", partitions=1), first, second)
    overlapping = _overlaps(first, reference) or _overlaps(second, reference)
    event("overlapping pieces" if overlapping else "partitions")

    for use_index, partitions in _GRID:
        engine = QueryEngine(table, use_index=use_index, partitions=partitions)
        counts, path = _traced_crosstab(engine, first, second)
        assert counts == expected
        assert path == ("cells" if overlapping else "labels")

    sqlite = open_backend("sqlite", table)
    assert _traced_crosstab(sqlite, first, second) == (expected, "cells")
    sqlite.close()

    view = ApproxEngine(QueryEngine(table), fraction=0.5, seed=data.draw(st.integers(0, 3)))
    assert view.crosstab(first, second) == _by_cells(view, first, second)


def test_operands_over_different_contexts_raise_on_every_backend():
    table = generate_voc(rows=300, seed=3)
    engine = QueryEngine(table)
    first = cut_query(engine, SDLQuery.over(["tonnage", "built"]), "tonnage")
    second = cut_query(engine, SDLQuery.over(["built"]), "built")
    for backend in (engine, open_backend("sqlite", table), ApproxEngine(engine, fraction=0.5)):
        with pytest.raises(CompositionError):
            backend.crosstab(first, second)


@pytest.mark.parametrize("cache_aggregates", [False, True])
def test_memory_and_sqlite_tally_a_crosstab_alike(cache_aggregates):
    table = generate_voc(rows=400, seed=5)
    context = SDLQuery.over(["tonnage", "type_of_boat"])
    tallies = []
    for spec in ("memory", "sqlite"):
        backend = open_backend(spec, table, cache_aggregates=cache_aggregates)
        first = cut_query(backend, context, "tonnage")
        second = cut_query(backend, context, "type_of_boat")
        backend.counter.reset()
        answers = [backend.crosstab(first, second), backend.crosstab(second, first)]
        snapshot = backend.counter.snapshot()
        tallies.append((answers, {name: snapshot[name] for name in (
            "crosstab_calls", "count_calls", "batch_calls", "aggregate_hits",
            "total_database_operations",
        )}))
    assert tallies[0] == tallies[1]
    assert tallies[0][1] == {
        "crosstab_calls": 2, "count_calls": 0, "batch_calls": 0, "aggregate_hits": 0,
        "total_database_operations": 2,
    }


def test_the_label_path_computes_no_cell_mask():
    table = generate_voc(rows=400, seed=5)
    engine = QueryEngine(table)
    context = SDLQuery.over(["tonnage", "type_of_boat"])
    first = cut_query(engine, context, "tonnage")
    second = cut_query(engine, context, "type_of_boat")
    before = (len(engine.cache), engine.counter.evaluations, engine.counter.cache_hits)
    engine.crosstab(first, second)
    after = (len(engine.cache), engine.counter.evaluations, engine.counter.cache_hits)
    # Each piece's mask is read once from the cache; nothing is scanned or kept.
    assert after == (before[0], before[1], before[2] + first.depth + second.depth)
