"""Unit tests for the sampling primitives and the sampled view built on them."""

from __future__ import annotations

import pytest

from repro.backends.approx import ApproxEngine
from repro.backends.sqlite import SQLiteBackend
from repro.core.metrics import cover
from repro.errors import BackendError, StorageError
from repro.live.versioned import VersionedTable
from repro.sdl import RangePredicate, SDLQuery, SetPredicate
from repro.storage import QueryEngine, Table, sample_table, uniform_sample_indices
from repro.workloads import generate_voc


class TestUniformSampleIndices:
    def test_fraction(self):
        indices = uniform_sample_indices(200, fraction=0.25, seed=1)
        assert len(indices) == 50
        assert len(set(indices.tolist())) == 50
        assert indices.max() < 200

    def test_full_fraction_keeps_every_row(self):
        assert uniform_sample_indices(40, fraction=1.0, seed=9).tolist() == list(range(40))

    def test_indices_are_sorted(self):
        indices = uniform_sample_indices(100, fraction=0.2, seed=3)
        assert indices.tolist() == sorted(indices.tolist())

    def test_at_least_one_row(self):
        assert len(uniform_sample_indices(5, fraction=0.01, seed=1)) == 1

    def test_deterministic_with_seed(self):
        first = uniform_sample_indices(100, fraction=0.1, seed=42)
        second = uniform_sample_indices(100, fraction=0.1, seed=42)
        assert first.tolist() == second.tolist()

    def test_invalid_fraction(self):
        with pytest.raises(StorageError):
            uniform_sample_indices(10, fraction=0.0, seed=1)
        with pytest.raises(StorageError):
            uniform_sample_indices(10, fraction=1.5, seed=1)


class TestSampleTable:
    def test_sampled_table_size(self):
        table = Table.from_dict({"x": list(range(100))})
        sampled = sample_table(table, fraction=0.2, seed=1)
        assert sampled.num_rows == 20
        assert sampled.column_names == ["x"]


#: Every way to draw a sample, each called without a seed.
_UNSEEDED_DRAWS = [
    ("uniform_sample_indices", lambda table: uniform_sample_indices(table.num_rows, 0.5)),
    ("sample_table", lambda table: sample_table(table, fraction=0.5)),
    ("QueryEngine.sample", lambda table: QueryEngine(table).sample(0.5)),
    ("SQLiteBackend.sample", lambda table: SQLiteBackend.from_table(table).sample(0.5)),
    ("VersionedTable.sampled", lambda table: VersionedTable(table).sampled(0.5)),
]


class TestSeedIsRequired:
    """A sample is a function of its fraction and seed: no draw is unseeded."""

    @pytest.mark.parametrize(
        "draw", [case[1] for case in _UNSEEDED_DRAWS], ids=[case[0] for case in _UNSEEDED_DRAWS]
    )
    def test_a_draw_without_a_seed_is_a_type_error(self, draw):
        with pytest.raises(TypeError):
            draw(Table.from_dict({"x": list(range(100))}))

    def test_a_source_memoizes_one_sample_per_seed(self):
        source = VersionedTable(Table.from_dict({"x": list(range(100))}))
        first = source.sampled(0.5, seed=1)
        assert source.sampled(0.5, seed=1) is first
        other = source.sampled(0.5, seed=2)
        assert other is not first
        assert other.column("x").values_list() != first.column("x").values_list()


class TestSampledEngine:
    """The sampled view (:class:`ApproxEngine`) over an in-memory engine."""

    @pytest.fixture(scope="class")
    def voc(self):
        return QueryEngine(generate_voc(rows=4000, seed=5))

    def test_invalid_fraction_rejected(self, voc):
        with pytest.raises(StorageError):
            ApproxEngine(voc, fraction=0.0)

    def test_backend_without_sample_rejected(self):
        with pytest.raises(BackendError):
            ApproxEngine(object())

    def test_count_estimates_are_scaled(self, voc):
        engine = ApproxEngine(voc, fraction=0.25, seed=1)
        query = SDLQuery([SetPredicate("type_of_boat", frozenset({"fluit"}))])
        exact = engine.base_engine.count(query)
        estimate = engine.count(query)
        assert estimate == pytest.approx(exact, rel=0.25)
        assert engine.count_batch([query, query]) == (estimate, estimate)

    def test_estimation_error_reasonable(self, voc):
        engine = ApproxEngine(voc, fraction=0.3, seed=2)
        query = SDLQuery([RangePredicate("tonnage", 1000, 2000)])
        exact = engine.base_engine.count(query)
        assert abs(engine.count(query) - exact) / exact < 0.2

    def test_median_close_to_exact(self, voc):
        engine = ApproxEngine(voc, fraction=0.25, seed=3)
        exact_median = engine.base_engine.median("tonnage")
        sampled_median = engine.median("tonnage")
        assert abs(sampled_median - exact_median) / exact_median < 0.1

    def test_scale_factor(self, voc):
        engine = ApproxEngine(voc, fraction=0.5, seed=1)
        assert engine.scale_factor == pytest.approx(2.0, rel=0.05)

    def test_identity_is_the_unsampled_relation(self, voc):
        engine = ApproxEngine(voc, fraction=0.25, seed=1)
        assert engine.num_rows == voc.num_rows
        assert engine.data_version == voc.data_version
        whole = SDLQuery.over(["tonnage"])
        assert engine.count(whole) == voc.num_rows
        assert cover(engine, whole) == pytest.approx(1.0)

    def test_default_size_is_the_interactive_constant(self, voc):
        from repro.backends.approx import INTERACTIVE_SAMPLE_ROWS

        engine = ApproxEngine(voc)
        assert engine.stats()["sample"]["rows"] == INTERACTIVE_SAMPLE_ROWS
        assert ApproxEngine(QueryEngine(generate_voc(rows=300, seed=5))).scale_factor == 1.0


class TestErrorBound:
    def test_zero_when_the_sample_is_the_whole_table(self):
        from repro.backends.approx import sampling_error_bound

        assert sampling_error_bound(500, 500) == 0.0
        assert sampling_error_bound(0, 0) == 0.0
        engine = ApproxEngine(QueryEngine(generate_voc(rows=300, seed=5)), fraction=1.0)
        assert engine.take_error_bound() == 0.0

    def test_shrinks_with_the_sample_and_with_the_sampled_share(self):
        from repro.backends.approx import sampling_error_bound

        assert sampling_error_bound(2000, 12_000) == pytest.approx(0.0332, abs=5e-4)
        assert sampling_error_bound(4000, 12_000) < sampling_error_bound(2000, 12_000)
        # Finite-population correction: the same n is worth more of a small table.
        assert sampling_error_bound(2000, 3000) < sampling_error_bound(2000, 200_000)
        assert sampling_error_bound(1, 10**9) == 1.0
