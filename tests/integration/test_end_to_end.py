"""End-to-end integration tests: advisor over every workload, full loops."""

from __future__ import annotations

import pytest

from builders import write_csv
from repro.core import (
    Charles,
    ExplorationSession,
    HBCutsConfig,
    LazyAdvisor,
    entropy,
)
from repro.sdl import check_partition, parse_query
from repro.storage import QueryEngine, load_csv
from repro.viz import render_advice
from repro.workloads import (
    FIGURE1_CONTEXT_COLUMNS,
    generate_astronomy,
    generate_voc,
    generate_weblog,
)


class TestAdvisorAcrossWorkloads:
    @pytest.mark.parametrize(
        ("factory", "columns"),
        [
            (generate_voc, ["type_of_boat", "departure_harbour", "tonnage"]),
            (generate_astronomy, ["object_class", "magnitude", "redshift", "ra"]),
            (generate_weblog, ["url_category", "response_time_ms", "status_code", "hour"]),
        ],
        ids=["voc", "astronomy", "weblog"],
    )
    def test_advice_is_valid_and_ranked(self, factory, columns):
        table = factory(rows=1200, seed=21)
        advisor = Charles(table)
        advice = advisor.advise(columns, max_answers=6)
        assert len(advice) >= 2
        engine = QueryEngine(table)
        previous = float("inf")
        for answer in advice:
            assert check_partition(engine, answer.segmentation).is_partition
            assert answer.score <= previous
            previous = answer.score
        # The top answer must exploit the planted dependency: at least two
        # attributes composed together.
        assert len(advice.best().attributes) >= 2

    def test_report_renders_for_every_workload(self):
        for factory in (generate_voc, generate_astronomy, generate_weblog):
            table = factory(rows=600, seed=2)
            advisor = Charles(table)
            advice = advisor.advise(None, max_answers=3)
            text = render_advice(advice)
            assert "ranked answers" in text


class TestFigure1Scenario:
    """The full Figure 1 interaction: context, ranked answers, drill-down."""

    def test_interactive_loop(self):
        table = generate_voc(rows=2500, seed=7)
        advisor = Charles(table)
        session = ExplorationSession(advisor, max_answers=6)
        advice = session.start(list(FIGURE1_CONTEXT_COLUMNS))

        # The ranked list mixes multi-attribute and single-attribute views.
        breadths = {len(answer.attributes) for answer in advice}
        assert any(b >= 2 for b in breadths)
        assert 1 in breadths

        # Drill into the largest segment of the best answer, twice.
        session.drill(0, 0)
        first_level = advisor.count(session.context)
        second_advice = session.advise()
        assert len(second_advice) >= 1
        session.drill(0, 0)
        second_level = advisor.count(session.context)
        assert second_level < first_level < table.num_rows

        # And back out again.
        session.back()
        session.back()
        assert session.depth == 0

    def test_segment_reproduces_the_harbour_tonnage_answer(self):
        table = generate_voc(rows=2500, seed=7)
        advisor = Charles(table)
        segmentation = advisor.segment(
            list(FIGURE1_CONTEXT_COLUMNS), ["departure_harbour", "tonnage"]
        )
        # Figure 1's selected answer: four pieces, harbour group x tonnage band.
        assert segmentation.depth == 4
        engine = QueryEngine(table)
        assert check_partition(engine, segmentation).is_partition
        labels = {
            frozenset(segment.query.predicate_for("departure_harbour").values)
            for segment in segmentation.segments
        }
        assert len(labels) == 2  # two harbour groups, each split by tonnage


class TestLazyVersusEager:
    def test_lazy_first_answer_matches_an_eager_candidate(self):
        table = generate_voc(rows=1000, seed=5)
        engine = QueryEngine(table)
        advisor = Charles(QueryEngine(table), config=HBCutsConfig())
        context = advisor.resolve_context(["type_of_boat", "tonnage"])
        lazy_first = LazyAdvisor(engine).first_answer(context)
        eager = advisor.advise(context, max_answers=None)
        eager_signatures = {
            (answer.segmentation.cut_attributes, answer.segmentation.depth)
            for answer in eager
        }
        assert (lazy_first.cut_attributes, lazy_first.depth) in eager_signatures


class TestCSVAndCatalogPipeline:
    def test_csv_roundtrip_then_advise(self, tmp_path):
        table = generate_voc(rows=500, seed=13)
        path = tmp_path / "voc.csv"
        write_csv(table, path)
        reloaded = load_csv(path)
        assert reloaded.num_rows == table.num_rows

        advisor = Charles(reloaded)
        advice = advisor.advise(["type_of_boat", "tonnage"], max_answers=3)
        assert len(advice) >= 1
        assert entropy(advice.best().segmentation) > 0.0

    def test_sdl_context_survives_text_roundtrip(self):
        table = generate_voc(rows=500, seed=13)
        advisor = Charles(table)
        context = advisor.resolve_context(
            "(tonnage: [1000, 3000], type_of_boat:, departure_harbour:)"
        )
        reparsed = parse_query(context.to_sdl())
        assert reparsed == context
        assert advisor.count(context) == advisor.count(reparsed)
