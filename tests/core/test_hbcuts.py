"""Unit tests for the HB-cuts heuristic (Figure 4)."""

from __future__ import annotations

import pytest

from builders import make_independent_table
from repro.core import HBCuts, HBCutsConfig, entropy
from repro.errors import AdvisorError
from repro.sdl import SDLQuery, check_partition
from repro.storage import QueryEngine, Table
from repro.workloads import generate_voc, make_dependent_pair_table, make_wide_table


@pytest.fixture(scope="module")
def voc_engine() -> QueryEngine:
    return QueryEngine(generate_voc(rows=1500, seed=3))


class TestConfigValidation:
    def test_defaults_follow_the_paper(self):
        config = HBCutsConfig()
        assert config.max_indep == pytest.approx(0.99)
        assert config.max_depth == 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_indep": 0.0},
            {"max_indep": 1.5},
            {"max_depth": 1},
            {"stopping": "unknown"},
            {"alpha": 0.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(AdvisorError):
            HBCutsConfig(**kwargs)


class TestInitialisation:
    def test_one_candidate_per_cuttable_attribute(self):
        table = Table.from_dict(
            {"x": list(range(20)), "t": ["a", "b"] * 10, "constant": ["same"] * 20}
        )
        engine = QueryEngine(table)
        result = HBCuts().run(engine, SDLQuery.over(["x", "t", "constant"]))
        assert set(result.trace.initial_candidates) == {"x", "t"}
        assert result.trace.uncuttable_attributes == ["constant"]

    def test_no_cuttable_attribute_returns_empty(self):
        table = Table.from_dict({"constant": ["same"] * 5})
        engine = QueryEngine(table)
        result = HBCuts().run(engine, SDLQuery.over(["constant"]))
        assert len(result) == 0
        assert result.trace.stop_reason == "no_candidates"

    def test_empty_context_rejected(self):
        table = Table.from_dict({"x": [1, 2]})
        with pytest.raises(AdvisorError):
            HBCuts().run(QueryEngine(table), SDLQuery())


class TestComposition:
    def test_dependent_attributes_are_composed(self):
        engine = QueryEngine(
            make_dependent_pair_table(rows=2000, strength=0.9, cardinality=2, seed=2)
        )
        result = HBCuts().run(engine, SDLQuery.over(["x", "y", "z"]))
        composed_sets = [set(attributes) for attributes in result.trace.compositions]
        assert {"x", "y"} in composed_sets

    def test_independent_attributes_are_not_composed(self):
        engine = QueryEngine(make_independent_table(rows=2000, cardinalities=(4, 4, 4), seed=2))
        config = HBCutsConfig(max_indep=0.99)
        result = HBCuts(config).run(engine, SDLQuery.over(["a0", "a1", "a2"]))
        assert result.trace.compositions == []
        assert result.trace.stop_reason == "indep"
        # Only the three single-attribute candidates are returned.
        assert len(result) == 3

    def test_every_output_is_a_valid_partition(self, voc_engine):
        context = SDLQuery.over(["type_of_boat", "departure_harbour", "tonnage"])
        result = HBCuts().run(voc_engine, context)
        assert len(result) >= 3
        for segmentation in result:
            assert check_partition(voc_engine, segmentation).is_partition

    def test_output_sorted_by_entropy(self, voc_engine):
        context = SDLQuery.over(["type_of_boat", "departure_harbour", "tonnage"])
        result = HBCuts().run(voc_engine, context)
        entropies = [entropy(segmentation) for segmentation in result]
        assert entropies == sorted(entropies, reverse=True)

    def test_intermediate_candidates_are_kept(self, voc_engine):
        # Figure 3: composed candidates are returned alongside their parents.
        context = SDLQuery.over(["type_of_boat", "departure_harbour", "tonnage"])
        result = HBCuts().run(voc_engine, context)
        depths = sorted(segmentation.depth for segmentation in result)
        assert depths[0] == 2          # a plain binary cut survives
        assert depths[-1] >= 4         # and at least one composition happened

    def test_max_depth_limits_segmentation_size(self, voc_engine):
        context = SDLQuery.over(["type_of_boat", "departure_harbour", "tonnage", "yard"])
        config = HBCutsConfig(max_depth=4)
        result = HBCuts(config).run(voc_engine, context)
        assert all(segmentation.depth <= 4 for segmentation in result)

    def test_best_raises_on_empty_result(self):
        table = Table.from_dict({"constant": ["same"] * 5})
        result = HBCuts().run(QueryEngine(table), SDLQuery.over(["constant"]))
        with pytest.raises(AdvisorError):
            result.best()


class TestStoppingRules:
    def test_chi2_stopping_rule_runs(self):
        engine = QueryEngine(make_independent_table(rows=1500, cardinalities=(3, 3, 3), seed=4))
        config = HBCutsConfig(stopping="chi2", alpha=0.01)
        result = HBCuts(config).run(engine, SDLQuery.over(["a0", "a1", "a2"]))
        # Independent columns: the chi-square rule refuses to compose.
        assert result.trace.compositions == []

    def test_chi2_still_composes_dependent_columns(self):
        engine = QueryEngine(
            make_dependent_pair_table(rows=2000, strength=0.9, cardinality=2, seed=2)
        )
        config = HBCutsConfig(stopping="chi2", alpha=0.01)
        result = HBCuts(config).run(engine, SDLQuery.over(["x", "y", "z"]))
        assert [set(c) for c in result.trace.compositions] == [{"x", "y"}]


class TestTraceAndReuse:
    def test_pair_cache_reduces_evaluations(self):
        table = make_wide_table(rows=1000, attributes=6, dependent_pairs=2, seed=3)
        context = SDLQuery.over(table.column_names)
        with_reuse = HBCuts(HBCutsConfig(reuse_indep=True)).run(QueryEngine(table), context)
        without_reuse = HBCuts(HBCutsConfig(reuse_indep=False)).run(QueryEngine(table), context)
        assert with_reuse.trace.pair_evaluations < without_reuse.trace.pair_evaluations
        assert with_reuse.trace.pair_cache_hits > 0
        # The answers themselves are identical.
        assert len(with_reuse) == len(without_reuse)

    def test_trace_runtime_recorded(self, voc_engine):
        result = HBCuts().run(voc_engine, SDLQuery.over(["type_of_boat", "tonnage"]))
        assert result.trace.runtime_seconds > 0.0
        assert result.trace.iterations >= 1

    def test_attributes_argument_restricts_exploration(self, voc_engine):
        context = SDLQuery.over(["type_of_boat", "departure_harbour", "tonnage"])
        result = HBCuts().run(voc_engine, context, attributes=["tonnage"])
        assert result.trace.initial_candidates == ["tonnage"]
        assert all(segmentation.cut_attributes == ("tonnage",) for segmentation in result)


class TestResult:
    def test_result_is_indexable_and_iterable(self, voc_engine):
        result = HBCuts().run(voc_engine, SDLQuery.over(["type_of_boat", "tonnage"]))
        assert result[0] is list(iter(result))[0]

    def test_runs_are_deterministic(self, voc_engine):
        context = SDLQuery.over(["type_of_boat", "departure_harbour", "tonnage"])
        first = HBCuts().run(voc_engine, context)
        second = HBCuts().run(voc_engine, context)
        assert [s.queries for s in first] == [s.queries for s in second]
