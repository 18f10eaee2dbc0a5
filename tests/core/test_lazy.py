"""Unit tests for lazy segmentation generation (Section 5.2)."""

from __future__ import annotations

import pytest

from repro.core import HBCuts, HBCutsConfig, LazyAdvisor
from repro.errors import AdvisorError
from repro.sdl import SDLQuery, check_partition
from repro.storage import QueryEngine, Table
from repro.workloads import generate_voc


@pytest.fixture(scope="module")
def engine() -> QueryEngine:
    return QueryEngine(generate_voc(rows=1200, seed=9))


@pytest.fixture(scope="module")
def context() -> SDLQuery:
    return SDLQuery.over(["type_of_boat", "departure_harbour", "tonnage"])


class TestStream:
    def test_first_answers_are_single_attribute_cuts(self, engine, context):
        advisor = LazyAdvisor(engine)
        stream = advisor.stream(context)
        first = next(stream)
        second = next(stream)
        assert len(first.cut_attributes) == 1
        assert len(second.cut_attributes) == 1

    def test_later_answers_are_compositions(self, engine, context):
        advisor = LazyAdvisor(engine)
        produced = list(advisor.stream(context))
        assert any(len(segmentation.cut_attributes) >= 2 for segmentation in produced)

    def test_all_answers_are_valid_partitions(self, engine, context):
        advisor = LazyAdvisor(engine)
        for segmentation in advisor.stream(context):
            assert check_partition(engine, segmentation).is_partition

    def test_stream_respects_stopping_rules(self, engine, context):
        advisor = LazyAdvisor(engine)
        for segmentation in advisor.stream(context):
            assert segmentation.depth <= HBCutsConfig().max_depth

    def test_empty_context_rejected(self, engine):
        advisor = LazyAdvisor(engine)
        with pytest.raises(AdvisorError):
            next(advisor.stream(SDLQuery()))


class TestBatchingHelpers:
    def test_next_batch_respects_size(self, engine, context):
        advisor = LazyAdvisor(engine)
        stream = advisor.stream(context)
        batch = advisor.next_batch(stream, 2)
        assert len(batch) == 2

    def test_next_batch_on_exhausted_stream(self, engine, context):
        advisor = LazyAdvisor(engine)
        stream = advisor.stream(context)
        everything = advisor.next_batch(stream, 100)
        assert advisor.next_batch(stream, 5) == []
        assert len(everything) >= 3

    def test_first_answer_probe(self, engine, context):
        advisor = LazyAdvisor(engine)
        first = advisor.first_answer(context)
        assert first.depth == 2

    def test_first_answer_with_uncuttable_context(self):
        table = Table.from_dict({"constant": ["same"] * 10})
        advisor = LazyAdvisor(QueryEngine(table))
        with pytest.raises(AdvisorError):
            advisor.first_answer(SDLQuery.over(["constant"]))


class TestConsistencyWithEagerAdvisor:
    def test_lazy_stream_covers_the_eager_initial_cuts(self, engine, context):
        lazy_segmentations = list(LazyAdvisor(engine).stream(context))
        eager = HBCuts().run(engine, context)
        lazy_single = {
            segmentation.cut_attributes
            for segmentation in lazy_segmentations
            if len(segmentation.cut_attributes) == 1
        }
        eager_single = {
            segmentation.cut_attributes
            for segmentation in eager.segmentations
            if len(segmentation.cut_attributes) == 1
        }
        assert lazy_single == eager_single

    def test_lazy_issues_fewer_operations_for_the_first_answer(self, engine, context):
        eager_engine = QueryEngine(engine.table)
        HBCuts().run(eager_engine, context)
        eager_operations = eager_engine.counter.total_database_operations

        lazy_engine = QueryEngine(engine.table)
        LazyAdvisor(lazy_engine).first_answer(context)
        lazy_operations = lazy_engine.counter.total_database_operations
        assert lazy_operations < eager_operations

    @pytest.mark.parametrize(
        "config, chi2_alpha",
        [
            (HBCutsConfig(), None),
            (HBCutsConfig(max_indep=0.9), None),
            (HBCutsConfig(reuse_indep=False), None),
            # Levels at which the chi-square rule — not the INDEP threshold —
            # ends the run on these tables.
            (HBCutsConfig(stopping="chi2"), 1e-30),
            (HBCutsConfig(stopping="chi2"), 1e-60),
        ],
        ids=["threshold", "max_indep", "no_reuse", "chi2_1e-30", "chi2_1e-60"],
    )
    @pytest.mark.parametrize("dataset", ["voc", "figure3"])
    def test_drained_stream_holds_exactly_the_eager_segmentations(
        self, engine, dataset, config, chi2_alpha, monkeypatch
    ):
        from test_golden import _figure3_table

        if chi2_alpha is not None:
            monkeypatch.setattr("repro.core.hbcuts.CHI2_ALPHA", chi2_alpha)

        if dataset == "voc":
            table = engine.table
            context = SDLQuery.over(
                ["type_of_boat", "departure_harbour", "tonnage", "built"]
            )
        else:
            table = _figure3_table(rows=400)
            context = SDLQuery.over(table.column_names)

        def fingerprint(segmentations):
            return {(s.cut_attributes, tuple(s.counts)) for s in segmentations}

        eager = HBCuts(config).run(QueryEngine(table), context)
        if config == HBCutsConfig():
            lazy = LazyAdvisor(QueryEngine(table)).stream(context)
        else:  # the loop LazyAdvisor drains, under another stopping rule
            lazy = (s for s, _ in HBCuts(config).steps(QueryEngine(table), context))
        assert fingerprint(lazy) == fingerprint(eager)
