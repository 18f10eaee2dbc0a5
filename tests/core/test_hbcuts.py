"""Unit tests for the HB-cuts heuristic (Figure 4)."""

from __future__ import annotations

import pytest

from builders import make_independent_table
from repro.backends import open_backend
from repro.core import Charles, HBCuts, HBCutsConfig, entropy
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
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(AdvisorError):
            HBCutsConfig(**kwargs)

    def test_boundary_values_are_accepted(self):
        config = HBCutsConfig(max_indep=1.0, max_depth=2, stopping="chi2")
        assert (config.max_indep, config.max_depth) == (1.0, 2)


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
        config = HBCutsConfig(stopping="chi2")
        result = HBCuts(config).run(engine, SDLQuery.over(["a0", "a1", "a2"]))
        # Independent columns: the chi-square rule refuses to compose.
        assert result.trace.compositions == []

    def test_chi2_still_composes_dependent_columns(self):
        engine = QueryEngine(
            make_dependent_pair_table(rows=2000, strength=0.9, cardinality=2, seed=2)
        )
        config = HBCutsConfig(stopping="chi2")
        result = HBCuts(config).run(engine, SDLQuery.over(["x", "y", "z"]))
        assert [set(c) for c in result.trace.compositions] == [{"x", "y"}]

    def test_chi2_rule_tests_at_the_module_level(self, monkeypatch):
        # At a level no p-value falls below, even the dependent pair that
        # composes at CHI2_ALPHA is refused.
        monkeypatch.setattr("repro.core.hbcuts.CHI2_ALPHA", 0.0)
        engine = QueryEngine(
            make_dependent_pair_table(rows=2000, strength=0.9, cardinality=2, seed=2)
        )
        result = HBCuts(HBCutsConfig(stopping="chi2")).run(
            engine, SDLQuery.over(["x", "y", "z"])
        )
        assert result.trace.compositions == []

    def test_chi2_reads_each_pair_table_once(self):
        # The chosen pair's table is kept next to its INDEP, not recounted.
        engine = QueryEngine(generate_voc(rows=3000, seed=42))
        context = SDLQuery.over(["tonnage", "type_of_boat", "departure_harbour", "built"])
        result = HBCuts(HBCutsConfig(stopping="chi2")).run(engine, context)
        assert result.trace.compositions
        assert engine.counter.crosstab_calls == result.trace.pair_evaluations


class TestValuelessExtents:
    """A cut that meets an extent where an attribute has no value cannot
    cut there; the advise goes on, alike on every backend."""

    #: x is NULL on the last two rows, y on the first three.
    OVERLAPPING = {"x": [1, 2, 3, 4, 5, 6, None, None], "y": [None, None, None, 4, 5, 6, 7, 8]}
    #: x and y are never both set.
    DISJOINT = {"x": [1, 2, 3, 4] + [None] * 4, "y": [None] * 4 + [5, 6, 7, 8]}

    @pytest.mark.parametrize(
        "data, context, answers, stop_reason, indep_values, uncuttable",
        [
            (OVERLAPPING, "x:, y:", 3, "exhausted", [pytest.approx(0.4183, abs=1e-4)], []),
            # The drilled extent holds no y value at all.
            (OVERLAPPING, "x:[1, 2], y:", 1, "exhausted", [], ["y"]),
            # The pair's product holds no row: INDEP 1.0, so nothing composes.
            (DISJOINT, "x:, y:", 2, "indep", [1.0], []),
        ],
        ids=["overlapping", "drilled-no-y", "disjoint"],
    )
    def test_advises_alike_on_memory_and_sqlite(
        self, data, context, answers, stop_reason, indep_values, uncuttable
    ):
        described = []
        for spec in ("memory", "sqlite"):
            advisor = Charles(open_backend(spec, Table.from_dict(data, name="t")))
            advice = advisor.advise(context)
            assert len(advice.answers) == answers
            assert advice.trace.stop_reason == stop_reason
            assert advice.trace.indep_values == indep_values
            assert advice.trace.uncuttable_attributes == uncuttable
            described.append(advice.describe(limit=None))
        assert described[0] == described[1]


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
