"""Backend spec parsing and resolution."""

from __future__ import annotations

import pytest

from repro.backends import ApproxEngine, open_backend
from repro.backends.registry import BackendSpec
from repro.backends.sqlite import SQLiteBackend
from repro.errors import BackendError
from repro.sdl import RangePredicate, SDLQuery
from repro.storage import QueryEngine
from repro.workloads import generate_voc

#: The spec keys each factory reads, as the rejection names them.
_MEMORY_KEYS = "cache, index, partitions, sample, seed"
_SQLITE_KEYS = "cache, sample, seed"


@pytest.fixture(scope="module")
def table():
    return generate_voc(rows=500, seed=21)


class TestSpecParsing:
    def test_bare_scheme(self):
        spec = BackendSpec.parse("memory")
        assert spec == BackendSpec("memory")

    def test_params(self):
        spec = BackendSpec.parse("memory?sample=0.1&seed=7&index=1")
        assert spec.scheme == "memory"
        assert spec.params == {"sample": "0.1", "seed": "7", "index": "1"}

    def test_path_and_fragment(self):
        spec = BackendSpec.parse("sqlite:///data/voc.db#voyages")
        assert spec.scheme == "sqlite"
        assert spec.path == "/data/voc.db"
        assert spec.fragment == "voyages"

    def test_scheme_is_case_insensitive(self):
        assert BackendSpec.parse("SQLite").scheme == "sqlite"

    @pytest.mark.parametrize("bad", ["", "   ", "://x"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(BackendError):
            BackendSpec.parse(bad)


class TestOpenBackend:
    def test_memory(self, table):
        backend = open_backend("memory", table)
        assert isinstance(backend, QueryEngine)
        assert backend.num_rows == table.num_rows

    def test_memory_options(self, table):
        backend = open_backend("memory?cache=32&index=1", table)
        assert isinstance(backend, QueryEngine)
        assert backend.cache.capacity == 32

    def test_cache_zero_disables_caching(self, table):
        backend = open_backend("memory?cache=0", table)
        assert backend.cache.capacity == 0

    def test_memory_sampled(self, table):
        backend = open_backend("memory?sample=0.2&seed=3", table)
        assert isinstance(backend, ApproxEngine)
        assert backend.fraction == pytest.approx(0.2)
        assert backend.num_rows == table.num_rows
        assert backend.stats()["sample"]["rows"] == pytest.approx(
            table.num_rows * 0.2, rel=0.05
        )
        assert isinstance(backend.base_engine, QueryEngine)

    def test_sqlite_in_memory(self, table):
        backend = open_backend("sqlite", table)
        assert isinstance(backend, SQLiteBackend)
        query = SDLQuery([RangePredicate("tonnage", 100, 900)])
        assert backend.count(query) == QueryEngine(table).count(query)

    def test_sqlite_file_with_fragment(self, table, tmp_path):
        path = tmp_path / "db.sqlite"
        spec = f"sqlite://{path}#voyages"
        created = open_backend(spec, table)
        assert created.name == "voyages"
        # Re-opening the same file needs no source table at all.
        reopened = open_backend(spec)
        assert reopened.num_rows == table.num_rows

    def test_backend_instances_pass_through(self, table):
        engine = QueryEngine(table)
        assert open_backend(engine) is engine

    def test_memory_requires_table(self):
        with pytest.raises(BackendError):
            open_backend("memory")

    def test_sqlite_without_table_or_path_rejected(self):
        with pytest.raises(BackendError):
            open_backend("sqlite")

    def test_unknown_scheme(self, table):
        with pytest.raises(BackendError) as excinfo:
            open_backend("duckdb", table)
        assert "memory" in str(excinfo.value)  # names the known schemes

    def test_rejects_non_backend_objects(self):
        with pytest.raises(BackendError):
            open_backend(42)

    @pytest.mark.parametrize(
        "spec, key, accepted",
        [
            pytest.param("memory?partitons=4", "partitons", _MEMORY_KEYS, id="memory-partitons"),
            pytest.param("memory?smaple=0.1", "smaple", _MEMORY_KEYS, id="memory-smaple"),
            pytest.param("memory?index=all&worker=2", "worker", _MEMORY_KEYS, id="memory-worker"),
            pytest.param("memory?workers=2", "workers", _MEMORY_KEYS, id="memory-workers"),
            pytest.param("sqlite?partitions=4", "partitions", _SQLITE_KEYS, id="sqlite-partitions"),
            pytest.param("sqlite?index=all", "index", _SQLITE_KEYS, id="sqlite-index"),
        ],
    )
    def test_unknown_spec_keys_are_rejected(self, table, spec, key, accepted):
        # A spec is input from outside the program: a misspelled key must
        # fail, not run the plain engine as if it were not there.
        with pytest.raises(BackendError) as excinfo:
            open_backend(spec, table)
        assert key in str(excinfo.value)
        assert f"accepted: {accepted}" in str(excinfo.value)


    @pytest.mark.parametrize("scheme", ["memory", "sqlite"])
    @pytest.mark.parametrize("raw", ["0", "-0.5", "nan", "2", "inf"])
    def test_a_sample_outside_the_unit_interval_is_rejected(self, table, scheme, raw):
        # A spec error, never the sampler's own error nor the exact engine
        # run as if ``sample=`` were not there.
        with pytest.raises(BackendError) as excinfo:
            open_backend(f"{scheme}?sample={raw}", table)
        assert excinfo.value.code == "storage_backend"
        assert f"sample={raw!r}" in str(excinfo.value)

    @pytest.mark.parametrize("raw", ["1", "1.0"])
    def test_sample_one_is_the_exact_engine(self, table, raw):
        assert isinstance(open_backend(f"memory?sample={raw}", table), QueryEngine)

    @pytest.mark.parametrize("spec", ["memory?cache=-1", "sqlite?cache=-5"])
    def test_a_negative_cache_is_rejected(self, table, spec):
        # A typo, not a request to turn the cache off (that is ``cache=0``).
        with pytest.raises(BackendError) as excinfo:
            open_backend(spec, table)
        assert "cache=" in str(excinfo.value)

    def test_sqlite_cache_zero_disables_caching(self, table):
        assert open_backend("sqlite?cache=0", table).cache.capacity == 0
