"""Integration test reproducing the worked example of Figure 2.

Figure 2 illustrates the three primitives on a boats dataset where the
boat type determines both the tonnage band and the departure era:

* ``CUT_tonnage(A)`` splits each piece of the boat-type segmentation into
  its own local tonnage halves (1000-2000/2000-5000 for fluits,
  1000-3000/3000-5000 for jachts in the paper's drawing);
* ``COMPOSE(A, B)`` cuts the boat-type pieces on the departure date, with
  per-piece medians (1700-1744/1744-1780 for fluits vs 1700-1760/1760-1780
  for jachts);
* ``A × B`` intersects the two-piece boat-type segmentation with the
  two-piece date segmentation, producing the four corner cells.

The conftest ``boats_table`` plants exactly this structure, so the shapes
(piece counts, local split points, dependence signal) must reproduce.
"""

from __future__ import annotations

import pytest

from repro.core import compose, cut_query, cut_segmentation, entropy, indep, product
from repro.sdl import check_partition


@pytest.fixture()
def by_type(boats_engine, boats_context):
    return cut_query(boats_engine, boats_context, "type_of_boat")


@pytest.fixture()
def by_date(boats_engine, boats_context):
    return cut_query(boats_engine, boats_context, "departure_date")


class TestCutPanel:
    def test_type_cut_separates_fluit_and_jacht(self, by_type):
        groups = [set(segment.query.predicate_for("type_of_boat").values)
                  for segment in by_type.segments]
        assert {frozenset(g) for g in groups} == {frozenset({"fluit"}), frozenset({"jacht"})}
        assert by_type.counts == (10, 10)

    def test_cut_tonnage_uses_local_medians(self, boats_engine, by_type):
        cut_twice = cut_segmentation(boats_engine, by_type, "tonnage")
        assert cut_twice.depth == 4
        assert check_partition(boats_engine, cut_twice).is_partition
        fluit_highs = []
        jacht_lows = []
        for segment in cut_twice.segments:
            types = segment.query.predicate_for("type_of_boat").values
            tonnage = segment.query.predicate_for("tonnage")
            if "fluit" in types:
                fluit_highs.append(tonnage.high)
            else:
                jacht_lows.append(tonnage.low)
        # Figure 2: the fluit pieces stay in the light band, the jacht
        # pieces in the heavy band — local medians, not a global one.
        assert max(fluit_highs) <= 2000
        assert min(jacht_lows) >= 3000


class TestComposePanel:
    def test_compose_type_with_date(self, boats_engine, by_type, by_date):
        composed = compose(boats_engine, by_type, by_date)
        assert composed.depth == 4
        assert set(composed.cut_attributes) == {"type_of_boat", "departure_date"}
        assert check_partition(boats_engine, composed).is_partition
        # Per-piece medians: the fluit date ranges end before the jacht ones
        # start (fluits sail 1700-1744, jachts 1750-1780).
        fluit_highs, jacht_lows = [], []
        for segment in composed.segments:
            types = segment.query.predicate_for("type_of_boat").values
            date = segment.query.predicate_for("departure_date")
            if "fluit" in types:
                fluit_highs.append(date.high)
            else:
                jacht_lows.append(date.low)
        assert max(fluit_highs) <= 1744
        assert min(jacht_lows) >= 1750


class TestProductPanel:
    def test_product_creates_the_four_corner_cells(self, boats_engine, by_type, by_date):
        cells = product(boats_engine, by_type, by_date, drop_empty=False)
        assert cells.depth == 4
        assert sum(cells.counts) == 20

    def test_product_reveals_the_dependence(self, boats_engine, by_type, by_date):
        # "The example of Figure 2 shows a dependence between the type of
        # boat and the departure date": the product is unbalanced, INDEP
        # drops to 1/2 for this deterministic mapping.
        value = indep(boats_engine, by_type, by_date)
        cells = product(boats_engine, by_type, by_date)
        assert value == pytest.approx(0.5, abs=0.01)
        assert entropy(cells) == pytest.approx(entropy(by_type), abs=0.01)

    def test_harbour_determines_the_boat_type(self, boats_engine, boats_context):
        # In the Figure 1 screenshot the harbours split cleanly into the
        # {Bantam, Rammenkens} and {Surat, Zeeland} groups, one per boat
        # type; the product therefore keeps only the two diagonal cells.
        by_type = cut_query(boats_engine, boats_context, "type_of_boat")
        by_harbour = cut_query(boats_engine, boats_context, "departure_harbour")
        cells = product(boats_engine, by_type, by_harbour, drop_empty=True)
        assert cells.depth == 2
        assert indep(boats_engine, by_type, by_harbour) == pytest.approx(0.5, abs=0.01)
