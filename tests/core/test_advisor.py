"""Unit and integration tests for the Charles facade."""

from __future__ import annotations

import pytest

import math

from repro.api.codec import dumps
from repro.backends import ApproxEngine
from repro.core import Charles, HBCutsConfig, WeightedRanker
from repro.service import AdvisorService
from repro.errors import AdvisorError
from repro.sdl import SDLQuery, check_partition
from repro.storage import QueryEngine
from repro.workloads import FIGURE1_CONTEXT_COLUMNS, generate_voc


@pytest.fixture(scope="module")
def advisor(voc_table) -> Charles:
    return Charles(voc_table)


class TestContextResolution:
    def test_none_means_whole_table(self, advisor, voc_table):
        context = advisor.resolve_context(None)
        assert context.attributes == tuple(voc_table.column_names)

    def test_list_of_columns(self, advisor):
        context = advisor.resolve_context(["tonnage", "type_of_boat"])
        assert context.attributes == ("tonnage", "type_of_boat")
        assert context.n_constraints == 0

    def test_unknown_column_rejected(self, advisor):
        with pytest.raises(AdvisorError):
            advisor.resolve_context(["tonnage", "missing_column"])

    def test_sdl_string(self, advisor):
        context = advisor.resolve_context("(tonnage: [1000, 2000], type_of_boat:)")
        assert context.predicate_for("tonnage") is not None

    def test_sql_where_string(self, advisor):
        context = advisor.resolve_context(
            "tonnage BETWEEN 1000 AND 2000 AND type_of_boat IN ('fluit')"
        )
        assert set(context.constrained_attributes) == {"tonnage", "type_of_boat"}

    def test_unparseable_string_rejected(self, advisor):
        with pytest.raises(AdvisorError):
            advisor.resolve_context("this is not a query ???")

    def test_query_object_passthrough(self, advisor):
        query = SDLQuery.over(["tonnage"])
        assert advisor.resolve_context(query) is query

    def test_unsupported_type_rejected(self, advisor):
        with pytest.raises(AdvisorError):
            advisor.resolve_context(42)  # type: ignore[arg-type]


class TestAdvise:
    def test_returns_ranked_answers(self, advisor):
        advice = advisor.advise(list(FIGURE1_CONTEXT_COLUMNS), max_answers=5)
        assert 1 <= len(advice) <= 5
        assert [answer.rank for answer in advice] == list(range(1, len(advice) + 1))
        scores = [answer.score for answer in advice]
        assert scores == sorted(scores, reverse=True)

    def test_answers_are_valid_partitions(self, advisor, voc_table):
        engine = QueryEngine(voc_table)
        advice = advisor.advise(["type_of_boat", "tonnage"], max_answers=4)
        for answer in advice:
            assert check_partition(engine, answer.segmentation).is_partition

    def test_constrained_context_partitions_only_that_region(self, advisor):
        context = "(tonnage: [1000, 1500], type_of_boat:, departure_harbour:)"
        advice = advisor.advise(context, max_answers=3)
        expected = advisor.count(context)
        for answer in advice:
            assert answer.segmentation.context_count == expected

    def test_max_answers_none_returns_everything(self, advisor):
        advice = advisor.advise(["type_of_boat", "tonnage"], max_answers=None)
        assert len(advice) >= 2

    def test_attributes_argument(self, advisor):
        advice = advisor.advise(None, attributes=["tonnage", "type_of_boat"], max_answers=3)
        for answer in advice:
            assert set(answer.attributes) <= {"tonnage", "type_of_boat"}

    def test_engine_operations_reported(self, advisor):
        advice = advisor.advise(["type_of_boat", "tonnage"], max_answers=3)
        assert advice.engine_operations["total_database_operations"] > 0

    def test_best_and_describe(self, advisor):
        advice = advisor.advise(list(FIGURE1_CONTEXT_COLUMNS), max_answers=4)
        best = advice.best()
        assert best.rank == 1
        text = advice.describe(limit=2)
        assert "Charles' advice" in text
        assert "#1" in text

    def test_labels_match_segment_count(self, advisor):
        advice = advisor.advise(["type_of_boat", "tonnage"], max_answers=1)
        answer = advice.best()
        assert len(answer.labels()) == answer.segmentation.depth

    def test_empty_advice_best_raises(self, advisor):
        from repro.core.advisor import Advice
        from repro.core.hbcuts import HBCutsTrace

        empty = Advice(context=SDLQuery(), answers=[], trace=HBCutsTrace())
        with pytest.raises(AdvisorError):
            empty.best()


class TestSegmentAndProfile:
    def test_segment_builds_requested_cut(self, advisor):
        segmentation = advisor.segment(
            list(FIGURE1_CONTEXT_COLUMNS), ["departure_harbour", "tonnage"]
        )
        assert set(segmentation.cut_attributes) == {"departure_harbour", "tonnage"}
        assert segmentation.depth == 4

    def test_segment_requires_attributes(self, advisor):
        with pytest.raises(AdvisorError):
            advisor.segment(["tonnage"], [])

    def test_profile(self, advisor):
        profile = advisor.profile("(type_of_boat: {'fluit'}, tonnage:)")
        assert profile.column("type_of_boat").distinct_count == 1
        assert profile.row_count == advisor.count("(type_of_boat: {'fluit'}, tonnage:)")

    def test_a_sampled_advisors_profile_is_exact(self, advisor, voc_table):
        sampled = Charles(voc_table, backend="memory?sample=0.1&seed=3")
        assert sampled.profile("(type_of_boat: {'fluit'}, tonnage:)") == advisor.profile(
            "(type_of_boat: {'fluit'}, tonnage:)"
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "sqlite",
            "sqlite?sample=0.1&seed=3",
            "memory?partitions=4",
            "memory?partitions=4&workers=2",
        ],
    )
    def test_profile_is_the_same_on_every_backend(self, advisor, voc_table, spec):
        context = "(type_of_boat: {'fluit', 'jacht'}, tonnage:)"
        assert Charles(voc_table, backend=spec).profile(context) == advisor.profile(context)

    def test_count(self, advisor, voc_table):
        assert advisor.count(None) == voc_table.num_rows


class TestConfigurationOptions:
    def test_answers_are_ranked_by_entropy_by_default(self, advisor):
        advice = advisor.advise(["type_of_boat", "tonnage"], max_answers=None)
        assert advice.ranker_name == "entropy"
        entropies = [answer.scores.entropy for answer in advice]
        assert entropies == sorted(entropies, reverse=True)

    def test_custom_ranker_is_used(self, voc_table):
        advisor = Charles(voc_table, ranker=WeightedRanker(breadth_weight=2.0))
        advice = advisor.advise(["type_of_boat", "tonnage"], max_answers=3)
        assert advice.ranker_name == "weighted"

    def test_custom_config_limits_depth(self, voc_table):
        advisor = Charles(voc_table, config=HBCutsConfig(max_depth=4))
        advice = advisor.advise(
            ["type_of_boat", "departure_harbour", "tonnage"], max_answers=None
        )
        assert all(answer.segmentation.depth <= 4 for answer in advice)

    def test_sampling_advisor_uses_sampled_engine(self, voc_table):
        advisor = Charles(voc_table, backend="memory?sample=0.25&seed=1")
        assert isinstance(advisor.engine, ApproxEngine)
        advice = advisor.advise(["type_of_boat", "tonnage"], max_answers=2)
        assert len(advice) >= 1

    def test_prebuilt_engine_is_reused(self, voc_table):
        engine = QueryEngine(voc_table)
        advisor = Charles(engine)
        assert advisor.engine is engine
        assert advisor.table is voc_table


def _answers(advice) -> str:
    return dumps({"context": advice.context, "answers": advice.answers})


class TestModes:
    """``mode`` picks the data: the unsampled backend or the sampled view."""

    _CONTEXT = ["type_of_boat", "tonnage"]

    @pytest.mark.parametrize(
        "options, mode",
        [
            ({}, "interactive"),
            ({"backend": "sqlite"}, "interactive"),
            ({"backend": "memory?sample=0.25&seed=1"}, None),
            ({"backend": "sqlite?sample=0.25&seed=1"}, None),
            ({"backend": "memory?sample=0.25"}, "interactive"),
        ],
    )
    def test_every_way_to_the_view_is_flagged_and_refinable(
        self, voc_table, options, mode
    ):
        advisor = Charles(voc_table, **options)
        advice = advisor.advise(self._CONTEXT, max_answers=4, mode=mode)
        assert advice.approximate is True
        assert advice.error_bound is not None and math.isfinite(advice.error_bound)
        assert 0.0 <= advice.error_bound < 1.0
        exact = advisor.advise(self._CONTEXT, max_answers=4, mode="exact")
        assert exact.approximate is False and exact.error_bound is None
        plain = Charles(voc_table).advise(self._CONTEXT, max_answers=4)
        assert _answers(exact) == _answers(plain)

    def test_count_and_segment_are_exact_on_a_sampled_advisor(self, voc_table):
        # Only advise is flagged approximate, so nothing else may answer
        # from the view: a count or a segmentation is the exact one.
        plain = Charles(voc_table)
        sampled = Charles(voc_table, backend="memory?sample=0.25&seed=1")
        context = "(type_of_boat: {'fluit'}, tonnage:)"
        assert sampled.count(context) == plain.count(context)
        columns, cut = list(FIGURE1_CONTEXT_COLUMNS), ["departure_harbour", "tonnage"]
        assert dumps(sampled.segment(columns, cut)) == dumps(plain.segment(columns, cut))
        service = AdvisorService(voc_table, backend="memory?sample=0.25&seed=1")
        assert service.count(context) == plain.count(context)

    def test_default_mode_follows_the_backend(self, voc_table):
        assert Charles(voc_table).default_mode == "exact"
        sampled = Charles(voc_table, backend="memory?sample=0.1")
        assert sampled.default_mode == "interactive"
        assert Charles(voc_table).advise(self._CONTEXT).approximate is False

    def test_unknown_mode_rejected(self, advisor):
        with pytest.raises(AdvisorError):
            advisor.advise(self._CONTEXT, mode="approximate")

    def test_small_tables_are_sampled_whole(self, voc_table):
        # Fewer rows than the interactive view samples: every row is in
        # the sample, so the answers are exact's and the bound is 0.
        advisor = Charles(voc_table)
        view = advisor.advise(self._CONTEXT, max_answers=4, mode="interactive")
        assert view.approximate is True and view.error_bound == 0.0
        assert _answers(view) == _answers(advisor.advise(self._CONTEXT, max_answers=4))


class TestFigure1Shape:
    def test_top_answer_composes_dependent_attributes(self):
        # On the VOC data the harbour/tonnage/type dependencies are planted,
        # so the top-ranked answer must span more than one attribute, and the
        # single-attribute cuts must still be present in the list.
        advisor = Charles(generate_voc(rows=2000, seed=7))
        advice = advisor.advise(list(FIGURE1_CONTEXT_COLUMNS), max_answers=None)
        assert len(advice.best().attributes) >= 2
        breadths = {len(answer.attributes) for answer in advice}
        assert 1 in breadths
