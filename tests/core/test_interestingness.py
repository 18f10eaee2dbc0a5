"""Unit tests for interestingness / surprise scoring (Section 5.2 extension)."""

from __future__ import annotations

import math

import pytest

from builders import make_independent_table
from repro.core import Charles, SurpriseRanker, cut_query
from repro.core.interestingness import (
    divergence_from_counts,
    segment_surprise,
    segmentation_interestingness,
)
from repro.sdl import SDLQuery, SetPredicate
from repro.storage import QueryEngine
from repro.workloads import generate_voc


@pytest.fixture(scope="module")
def engine() -> QueryEngine:
    return QueryEngine(generate_voc(rows=1500, seed=8))


class TestDivergence:
    def test_identical_distributions_have_zero_divergence(self):
        counts = {"a": 10, "b": 30}
        assert divergence_from_counts(counts, counts) == pytest.approx(0.0)

    def test_scaled_distributions_have_zero_divergence(self):
        assert divergence_from_counts({"a": 1, "b": 3}, {"a": 10, "b": 30}) == pytest.approx(0.0)

    def test_disjoint_supports_reach_log_two(self):
        assert divergence_from_counts({"a": 10}, {"b": 10}) == pytest.approx(math.log(2))

    def test_bounded_and_symmetric(self):
        first = {"a": 8, "b": 2}
        second = {"a": 2, "b": 8}
        forward = divergence_from_counts(first, second)
        backward = divergence_from_counts(second, first)
        assert forward == pytest.approx(backward)
        assert 0.0 < forward < math.log(2)

    def test_empty_histograms(self):
        assert divergence_from_counts({}, {}) == 0.0
        assert divergence_from_counts({"a": 1}, {}) == 0.0


class TestSegmentSurprise:
    def test_boat_type_segment_shifts_the_tonnage_distribution(self, engine):
        context = SDLQuery.over(["type_of_boat", "tonnage"])
        heavy = context.refine(SetPredicate("type_of_boat", frozenset({"hoeker", "galjoot"})))
        surprise = segment_surprise(engine, heavy, context, "tonnage")
        assert surprise > 0.1

    def test_whole_context_is_not_surprising(self, engine):
        context = SDLQuery.over(["type_of_boat", "tonnage"])
        assert segment_surprise(engine, context, context, "tonnage") == pytest.approx(0.0)


class TestSegmentationInterestingness:
    def test_dependent_probe_attribute_is_interesting(self, engine):
        # Cutting on the boat type implies a lot about the tonnage, which is
        # exactly what the probe-attribute surprise measures.
        context = SDLQuery.over(["type_of_boat", "tonnage"])
        by_type = cut_query(engine, context, "type_of_boat")
        score = segmentation_interestingness(engine, by_type)
        assert score > 0.1

    def test_independent_probe_attribute_is_boring(self):
        table = make_independent_table(rows=3000, cardinalities=(4, 4), seed=2)
        engine = QueryEngine(table)
        context = SDLQuery.over(["a0", "a1"])
        by_a0 = cut_query(engine, context, "a0")
        score = segmentation_interestingness(engine, by_a0)
        assert score < 0.02

    def test_a_fully_cut_context_probes_its_cut_attributes(self, engine):
        # No attribute is left unmentioned, so the cut attribute itself is
        # probed: each segment holds a different share of the boat types.
        context = SDLQuery.over(["type_of_boat"])
        by_type = cut_query(engine, context, "type_of_boat")
        assert segmentation_interestingness(engine, by_type) > 0.1


class TestSurpriseRanker:
    def test_requires_an_engine(self):
        with pytest.raises(ValueError):
            SurpriseRanker(engine=None)

    def test_negative_weight_rejected(self, engine):
        with pytest.raises(ValueError):
            SurpriseRanker(engine=engine, surprise_weight=-1.0)

    def test_zero_weight_matches_entropy_order(self, engine):
        context = SDLQuery.over(["type_of_boat", "tonnage", "departure_harbour"])
        candidates = [
            cut_query(engine, context, attribute)
            for attribute in ("type_of_boat", "tonnage", "departure_harbour")
        ]
        from repro.core import EntropyRanker

        entropy_order = [seg for seg, _ in EntropyRanker().rank(candidates)]
        surprise_order = [
            seg for seg, _ in SurpriseRanker(engine=engine, surprise_weight=0.0).rank(candidates)
        ]
        assert entropy_order == surprise_order

    def test_surprise_bonus_can_change_the_order(self, engine):
        context = SDLQuery.over(["type_of_boat", "tonnage", "departure_harbour", "master"])
        # 'master' is independent of everything: cutting on it reveals nothing.
        by_master = cut_query(engine, context, "master")
        by_type = cut_query(engine, context, "type_of_boat")
        ranker = SurpriseRanker(engine=engine, surprise_weight=5.0)
        ranked = ranker.rank([by_master, by_type])
        assert ranked[0][0] is by_type

    def test_plugs_into_the_advisor(self, engine):
        advisor = Charles(engine, ranker=SurpriseRanker(engine=engine, surprise_weight=1.0))
        advice = advisor.advise(
            ["type_of_boat", "tonnage", "departure_harbour"], max_answers=4
        )
        assert advice.ranker_name == "surprise"
        scores = [answer.score for answer in advice]
        assert scores == sorted(scores, reverse=True)

    def test_scores_never_outlive_an_advise(self):
        # Segmentations die between advises, and a freed one's id() is
        # reused by the next: a score remembered by identity would be
        # handed to a different segmentation.  Every advise must rank
        # exactly as a ranker that never ranked before.
        table = generate_voc(rows=3000, seed=7)
        contexts = [
            ["type_of_boat", "tonnage", "departure_harbour"],
            ["master", "built", "yard"],
            ["tonnage", "built", "departure_date"],
            ["yard", "departure_harbour", "cape_arrival"],
            ["type_of_boat", "master", "tonnage", "built"],
        ]

        def ranking(advice):
            return [(answer.attributes, answer.score) for answer in advice]

        def fresh(context):
            engine = QueryEngine(table)
            return Charles(engine, ranker=SurpriseRanker(engine=engine)).advise(context)

        expected = [ranking(fresh(context)) for context in contexts]
        engine = QueryEngine(table)
        advisor = Charles(engine, ranker=SurpriseRanker(engine=engine))
        for _ in range(3):
            for context, want in zip(contexts, expected):
                assert ranking(advisor.advise(context)) == want
