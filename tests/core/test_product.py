"""Unit tests for the SDL product (Definition 8 and Proposition 1)."""

from __future__ import annotations

import math

import pytest

from builders import make_independent_table
from repro.core import cut_query, entropy, indep, product, product_counts
from repro.errors import CompositionError
from repro.sdl import SDLQuery, check_partition
from repro.storage import QueryEngine, Table
from repro.workloads import make_dependent_pair_table


def _figure2_engine() -> QueryEngine:
    """Figure 2's data: boat type and departure date are dependent."""
    rows = []
    for index in range(10):
        rows.append({"type": "fluit", "date": 1700 + index})
    for index in range(10):
        rows.append({"type": "jacht", "date": 1760 + index})
    return QueryEngine(Table.from_rows(rows, name="boats"))


class TestProduct:
    def test_cell_count_up_to_k_times_l(self):
        engine = QueryEngine(make_independent_table(rows=400, cardinalities=(2, 2), seed=1))
        context = SDLQuery.over(["a0", "a1"])
        first = cut_query(engine, context, "a0")
        second = cut_query(engine, context, "a1")
        combined = product(engine, first, second)
        assert combined.depth == 4
        assert set(combined.cut_attributes) == {"a0", "a1"}

    def test_product_is_a_partition(self):
        engine = QueryEngine(make_independent_table(rows=500, cardinalities=(3, 4), seed=2))
        context = SDLQuery.over(["a0", "a1"])
        combined = product(
            engine, cut_query(engine, context, "a0"), cut_query(engine, context, "a1")
        )
        assert check_partition(engine, combined).is_partition

    def test_dependent_variables_yield_empty_cells(self):
        engine = _figure2_engine()
        context = SDLQuery.over(["type", "date"])
        by_type = cut_query(engine, context, "type")
        by_date = cut_query(engine, context, "date")
        combined = product(engine, by_type, by_date, drop_empty=True)
        # With a deterministic dependence only the diagonal cells survive.
        assert combined.depth == 2

    def test_drop_empty_false_keeps_cells(self):
        engine = _figure2_engine()
        context = SDLQuery.over(["type", "date"])
        combined = product(
            engine,
            cut_query(engine, context, "type"),
            cut_query(engine, context, "date"),
            drop_empty=False,
        )
        assert combined.depth == 4
        assert sum(combined.counts) == 20

    def test_requires_same_context(self):
        engine = _figure2_engine()
        first = cut_query(engine, SDLQuery.over(["type"]), "type")
        second = cut_query(engine, SDLQuery.over(["date"]), "date")
        with pytest.raises(CompositionError):
            product(engine, first, second)

    def test_product_counts_full_table(self):
        engine = _figure2_engine()
        context = SDLQuery.over(["type", "date"])
        by_type = cut_query(engine, context, "type")
        by_date = cut_query(engine, context, "date")
        table = product_counts(engine, by_type, by_date)
        assert len(table) == 2 and len(table[0]) == 2
        assert sum(sum(row) for row in table) == 20
        # Diagonal structure: each boat type maps to one date half.
        off_diagonal = table[0][1] + table[1][0]
        diagonal = table[0][0] + table[1][1]
        assert {diagonal, off_diagonal} == {20, 0}


class TestProposition1:
    def test_independent_variables_add_entropies(self):
        engine = QueryEngine(make_independent_table(rows=4000, cardinalities=(4, 4), seed=3))
        context = SDLQuery.over(["a0", "a1"])
        first = cut_query(engine, context, "a0")
        second = cut_query(engine, context, "a1")
        value = indep(engine, first, second)
        combined = product(engine, first, second)
        assert entropy(combined) == pytest.approx(entropy(first) + entropy(second), rel=0.02)
        assert value == pytest.approx(1.0, abs=0.02)

    def test_dependent_variables_lose_entropy(self):
        engine = QueryEngine(
            make_dependent_pair_table(rows=4000, strength=0.95, cardinality=4, seed=3)
        )
        context = SDLQuery.over(["x", "y", "z"])
        first = cut_query(engine, context, "x")
        second = cut_query(engine, context, "y")
        value = indep(engine, first, second)
        assert value < 0.9

    def test_perfect_dependence_gives_half(self):
        engine = _figure2_engine()
        context = SDLQuery.over(["type", "date"])
        by_type = cut_query(engine, context, "type")
        by_date = cut_query(engine, context, "date")
        value = indep(engine, by_type, by_date)
        # E(S1 x S2) = E(S1) = E(S2) = log 2, so the quotient is 0.5.
        assert value == pytest.approx(0.5, abs=0.01)

    def test_indep_ordering_reflects_dependence_strength(self):
        values = {}
        for strength in (0.0, 0.5, 0.95):
            engine = QueryEngine(
                make_dependent_pair_table(rows=3000, strength=strength, cardinality=4, seed=5)
            )
            context = SDLQuery.over(["x", "y"])
            values[strength] = indep(
                engine,
                cut_query(engine, context, "x"),
                cut_query(engine, context, "y"),
            )
        assert values[0.95] < values[0.5] < values[0.0] + 0.02

    def test_entropy_of_product_bounded_by_log_cells(self):
        engine = QueryEngine(make_independent_table(rows=1000, cardinalities=(4, 4), seed=9))
        context = SDLQuery.over(["a0", "a1"])
        combined = product(
            engine, cut_query(engine, context, "a0"), cut_query(engine, context, "a1")
        )
        assert entropy(combined) <= math.log(combined.depth) + 1e-9
