"""Unit tests for partition validation (Definition 3)."""

from __future__ import annotations

import pytest

from repro.sdl import (
    NoConstraint,
    RangePredicate,
    SDLQuery,
    Segment,
    Segmentation,
    check_partition,
)
from repro.storage import QueryEngine, Table


@pytest.fixture()
def table() -> Table:
    return Table.from_dict(
        {
            "value": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            "label": ["a", "a", "a", "b", "b", "b", "c", "c", "c", "c"],
        },
        name="numbers",
    )


@pytest.fixture()
def engine(table: Table) -> QueryEngine:
    return QueryEngine(table)


def _context() -> SDLQuery:
    return SDLQuery([NoConstraint("value"), NoConstraint("label")])


def _segmentation(engine: QueryEngine, bounds) -> Segmentation:
    context = _context()
    segments = []
    for low, high, include_high in bounds:
        query = context.refine(
            RangePredicate("value", low, high, include_high=include_high)
        )
        segments.append(Segment(query, engine.count(query)))
    return Segmentation(context, segments, context_count=engine.count(context))


class TestCheckPartition:
    def test_valid_partition(self, engine):
        segmentation = _segmentation(
            engine, [(1, 5, False), (5, 10, True)]
        )
        report = check_partition(engine, segmentation)
        assert report.is_partition
        assert report.disjoint and report.exhaustive
        assert "valid" in report.summary()

    def test_overlapping_partition_detected(self, engine):
        segmentation = _segmentation(engine, [(1, 6, True), (5, 10, True)])
        report = check_partition(engine, segmentation)
        assert not report.disjoint
        assert report.overlapping_pairs == [(0, 1)]
        assert report.multiply_counted_rows == 2  # values 5 and 6
        assert "overlapping" in report.summary()

    def test_non_exhaustive_partition_detected(self, engine):
        segmentation = _segmentation(engine, [(1, 3, True), (7, 10, True)])
        report = check_partition(engine, segmentation)
        assert report.disjoint
        assert not report.exhaustive
        assert report.missing_rows == 3  # values 4, 5, 6

    def test_every_overlapping_pair_is_listed(self, engine):
        segmentation = _segmentation(engine, [(1, 6, True), (5, 10, True), (4, 7, True)])
        report = check_partition(engine, segmentation)
        assert report.overlapping_pairs == [(0, 1), (0, 2), (1, 2)]
        assert report.exhaustive

    def test_overlap_and_gap_are_both_summarised(self, engine):
        segmentation = _segmentation(engine, [(1, 3, True), (2, 4, True), (8, 10, True)])
        report = check_partition(engine, segmentation)
        assert not report.disjoint and not report.exhaustive
        assert report.missing_rows == 3  # values 5, 6, 7
        summary = report.summary()
        assert summary.startswith("invalid partition")
        assert "1 overlapping pair(s), 2 multiply-counted row(s)" in summary
        assert "3 uncovered row(s)" in summary

    def test_segments_clamped_to_context(self, engine):
        context = SDLQuery([RangePredicate("value", 1, 6), NoConstraint("label")])
        inside = context.refine(RangePredicate("value", 1, 3))
        outside = SDLQuery([RangePredicate("value", 1, 9), NoConstraint("label")])
        segmentation = Segmentation(
            context,
            [Segment(inside, 3), Segment(outside, 9)],
            context_count=6,
        )
        report = check_partition(engine, segmentation)
        # Rows outside the context are ignored; inside it the two segments overlap.
        assert not report.disjoint
