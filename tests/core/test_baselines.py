"""Unit tests for the baseline segmentation strategies (E9 comparators)."""

from __future__ import annotations

import pytest

from repro.core import (
    all_facet_segmentations,
    breadth,
    clique_like_segmentation,
    entropy,
    facet_segmentation,
    full_product_segmentation,
    random_segmentation,
    simplicity,
)
from repro.errors import CannotCutError, SegmentationError
from repro.sdl import SDLQuery, check_partition
from repro.storage import QueryEngine, Table
from repro.workloads import generate_voc


@pytest.fixture(scope="module")
def engine() -> QueryEngine:
    return QueryEngine(generate_voc(rows=1200, seed=4))


@pytest.fixture(scope="module")
def context() -> SDLQuery:
    return SDLQuery.over(["type_of_boat", "departure_harbour", "tonnage"])


class TestFacetSegmentation:
    def test_nominal_facet_one_segment_per_value(self, engine, context):
        segmentation = facet_segmentation(engine, context, "type_of_boat")
        frequencies = engine.value_frequencies("type_of_boat", context)
        assert segmentation.depth == len(frequencies)
        assert check_partition(engine, segmentation).is_partition

    def test_nominal_facet_merges_long_tail(self, engine, context):
        segmentation = facet_segmentation(engine, context, "type_of_boat", max_groups=3)
        assert segmentation.depth == 3
        assert check_partition(engine, segmentation).is_partition

    def test_numeric_facet_uses_equal_width_bins(self, engine, context):
        segmentation = facet_segmentation(engine, context, "tonnage", max_groups=5)
        assert 2 <= segmentation.depth <= 5
        assert check_partition(engine, segmentation).is_partition

    def test_facet_simplicity_is_one(self, engine, context):
        segmentation = facet_segmentation(engine, context, "departure_harbour")
        assert simplicity(segmentation) == 1
        assert breadth(segmentation) == 1

    def test_constant_column_rejected(self):
        engine = QueryEngine(Table.from_dict({"c": ["x"] * 5, "y": [1, 2, 3, 4, 5]}))
        with pytest.raises(CannotCutError):
            facet_segmentation(engine, SDLQuery.over(["c", "y"]), "c")

    def test_all_facets_skip_unusable_columns(self):
        engine = QueryEngine(
            Table.from_dict({"c": ["x"] * 6, "y": [1, 2, 3, 4, 5, 6], "t": list("aabbcc")})
        )
        segmentations = all_facet_segmentations(engine, SDLQuery.over(["c", "y", "t"]))
        assert {s.cut_attributes[0] for s in segmentations} == {"y", "t"}


class TestRandomSegmentation:
    def test_reaches_requested_depth(self, engine, context):
        segmentation = random_segmentation(engine, context, depth=4, seed=1)
        assert segmentation.depth >= 4
        assert check_partition(engine, segmentation).is_partition

    def test_deterministic_given_seed(self, engine, context):
        first = random_segmentation(engine, context, depth=4, seed=42)
        second = random_segmentation(engine, context, depth=4, seed=42)
        assert first.cut_attributes == second.cut_attributes
        assert first.counts == second.counts

    def test_no_cuttable_attribute_raises(self):
        engine = QueryEngine(Table.from_dict({"c": ["x"] * 5}))
        with pytest.raises(SegmentationError):
            random_segmentation(engine, SDLQuery.over(["c"]), seed=1)


class TestFullProduct:
    def test_grows_exponentially_with_attributes(self, engine, context):
        product_segmentation = full_product_segmentation(engine, context)
        # Three binary cuts: up to 8 cells, at least more than one cut's worth.
        assert product_segmentation.depth > 4
        assert check_partition(engine, product_segmentation).is_partition

    def test_no_cuttable_attribute_raises(self):
        engine = QueryEngine(Table.from_dict({"c": ["x"] * 5}))
        with pytest.raises(SegmentationError):
            full_product_segmentation(engine, SDLQuery.over(["c"]))


class TestCliqueLike:
    def test_returns_dense_cells_only(self, engine, context):
        segmentation = clique_like_segmentation(
            engine, context, bins=3, density_threshold=0.05
        )
        assert segmentation.depth <= 12
        total = segmentation.context_count
        for segment in segmentation.segments:
            assert segment.count / total >= 0.05
        # By design the dense-cell summary is usually not exhaustive.
        assert segmentation.covered_count <= total

    def test_threshold_too_high_raises(self, engine, context):
        with pytest.raises(SegmentationError):
            clique_like_segmentation(engine, context, density_threshold=0.99)

    def test_cells_ordered_by_density(self, engine, context):
        segmentation = clique_like_segmentation(engine, context, bins=3)
        counts = list(segmentation.counts)
        assert counts == sorted(counts, reverse=True)


class TestComparativeBehaviour:
    def test_hbcuts_beats_random_on_balance(self, engine, context):
        from repro.core import HBCuts

        best = HBCuts().run(engine, context).best()
        random_baseline = random_segmentation(engine, context, depth=best.depth, seed=3)
        from repro.core import balance

        assert balance(best) >= balance(random_baseline) - 0.1

    def test_facets_have_lower_breadth_than_hbcuts_best(self, engine, context):
        from repro.core import HBCuts

        best = HBCuts().run(engine, context).best()
        facets = all_facet_segmentations(engine, context)
        assert max(breadth(f) for f in facets) == 1
        assert breadth(best) >= 2

    def test_entropy_defined_for_every_baseline(self, engine, context):
        candidates = [
            facet_segmentation(engine, context, "type_of_boat"),
            random_segmentation(engine, context, depth=4, seed=0),
            full_product_segmentation(engine, context),
            clique_like_segmentation(engine, context, bins=3),
        ]
        for segmentation in candidates:
            assert entropy(segmentation) >= 0.0
