"""Property-based tests: partitioned execution never changes an answer.

For randomized tables and queries, counts, medians and the full ranked
``hb_cuts`` output must be identical to the unpartitioned sequential
engine for every shard count tested — including
``partitions > rows`` (trailing empty shards).
"""

from __future__ import annotations

import numpy as np
import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import HBCuts, HBCutsConfig
from repro.errors import EmptyColumnError, TypeMismatchError
from repro.sdl import RangePredicate, SDLQuery, SetPredicate
from repro.storage import PartitionedTable, QueryEngine, Table
from repro.storage.expression import query_mask

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every shard count exercised per example; partitions of 97 exceed the
#: largest generated table, so empty shards are always covered.
_GRID = (1, 2, 3, 4, 97)


@st.composite
def tables(draw):
    size = draw(st.integers(min_value=1, max_value=60))
    numeric = draw(
        st.lists(
            st.one_of(st.integers(min_value=-50, max_value=50), st.none()),
            min_size=size,
            max_size=size,
        )
    )
    labels = draw(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=size, max_size=size)
    )
    return Table.from_dict({"x": numeric, "t": labels}, name="random")


@st.composite
def queries(draw):
    low = draw(st.integers(min_value=-60, max_value=60))
    span = draw(st.integers(min_value=0, max_value=80))
    values = draw(st.sets(st.sampled_from(["a", "b", "c", "d"]), min_size=1))
    predicates = [RangePredicate("x", low, low + span)]
    if draw(st.booleans()):
        predicates.append(SetPredicate("t", frozenset(values)))
    return SDLQuery(predicates)


class TestPartitionedResultParity:
    @_SETTINGS
    @given(table=tables(), query=queries())
    def test_counts_and_masks_identical(self, table, query):
        expected_mask = query_mask(table, query)
        expected_count = int(np.count_nonzero(expected_mask))
        for partitions in _GRID:
            skipping = PartitionedTable(table, partitions).skipping()
            mask, _ = skipping.query_mask(query, zonemaps=False)
            assert np.array_equal(mask, expected_mask)
            assert skipping.count(query, zonemaps=False) == (expected_count, 0)
            engine = QueryEngine(table, partitions=partitions)
            assert engine.count(query) == expected_count

    @_SETTINGS
    @given(table=tables(), query=queries())
    def test_medians_identical(self, table, query):
        baseline = QueryEngine(table)
        # An all-None "numeric" column is inferred as nominal, so the
        # sequential median raises TypeMismatchError; an empty selection
        # raises EmptyColumnError.  Either way the partitioned path must
        # fail identically — errors are part of the parity contract.
        expected_error = None
        try:
            expected = baseline.median("x", query)
        except (EmptyColumnError, TypeMismatchError) as exc:
            expected = None
            expected_error = type(exc)
        for partitions in _GRID:
            engine = QueryEngine(table, partitions=partitions)
            if expected_error is not None:
                with pytest.raises(expected_error):
                    engine.median("x", query)
            else:
                assert engine.median("x", query) == expected

    @_SETTINGS
    @given(table=tables())
    def test_full_hb_cuts_output_identical(self, table):
        context = SDLQuery.over(["x", "t"])
        baseline = HBCuts(HBCutsConfig()).run(QueryEngine(table), context)

        def fingerprint(result):
            return (
                [
                    (
                        segmentation.cut_attributes,
                        tuple(segmentation.counts),
                        tuple(s.query.to_sdl() for s in segmentation.segments),
                    )
                    for segmentation in result.segmentations
                ],
                result.trace.indep_values,
                result.trace.compositions,
                result.trace.stop_reason,
            )

        expected = fingerprint(baseline)
        for partitions in _GRID:
            engine = QueryEngine(table, partitions=partitions)
            result = HBCuts(HBCutsConfig()).run(engine, context)
            assert fingerprint(result) == expected
