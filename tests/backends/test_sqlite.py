"""SQLiteBackend: parity with the columnar engine, persistence, threading.

The randomized parity classes are the satellite acceptance tests: counts
and medians must agree with ``QueryEngine`` on randomized contexts.
"""

from __future__ import annotations

import datetime
import sqlite3
import threading

import numpy as np
import pytest

from repro.backends.sqlite import SQLiteBackend
from repro.errors import BackendError, EmptyColumnError, TypeMismatchError, UnknownColumnError
from repro.sdl import ExclusionPredicate, RangePredicate, SDLQuery, SetPredicate
from repro.storage import DataType, QueryEngine, Table
from repro.workloads import generate_voc


@pytest.fixture(scope="module")
def voc():
    return generate_voc(rows=1200, seed=17)


@pytest.fixture(scope="module")
def engine(voc):
    return QueryEngine(voc)


@pytest.fixture(scope="module")
def backend(voc):
    return SQLiteBackend.from_table(voc)


def _random_context(table, rng) -> SDLQuery:
    """A random conjunctive context mixing ranges, sets and exclusions."""
    predicates = []
    nominal = [n for n in table.column_names if not table.column(n).dtype.is_numeric]
    numeric = [n for n in table.column_names if table.column(n).dtype.is_numeric]
    attribute = numeric[int(rng.integers(0, len(numeric)))]
    column = table.column(attribute)
    low, high = sorted(
        float(column.median()) * factor for factor in rng.uniform(0.2, 1.8, size=2)
    )
    predicates.append(RangePredicate(attribute, low, high))
    attribute = nominal[int(rng.integers(0, len(nominal)))]
    values = list(table.column(attribute).value_counts())
    chosen = frozenset(
        values[int(i)] for i in rng.integers(0, len(values), size=min(3, len(values)))
    )
    if rng.random() < 0.5:
        predicates.append(SetPredicate(attribute, chosen))
    else:
        predicates.append(ExclusionPredicate(attribute, chosen))
    return SDLQuery(predicates)


class TestRandomizedParity:
    def test_counts_match_engine(self, voc, engine, backend):
        rng = np.random.default_rng(5)
        for _ in range(25):
            query = _random_context(voc, rng)
            assert backend.count(query) == engine.count(query), query.to_sdl()

    def test_medians_match_engine(self, voc, engine, backend):
        rng = np.random.default_rng(7)
        for _ in range(25):
            query = _random_context(voc, rng)
            if engine.count(query) == 0:
                continue
            for attribute in ("tonnage", "built"):
                assert backend.median(attribute, query) == engine.median(
                    attribute, query
                ), query.to_sdl()

    def test_minmax_and_frequencies_match_engine(self, voc, engine, backend):
        rng = np.random.default_rng(11)
        for _ in range(10):
            query = _random_context(voc, rng)
            if engine.count(query) == 0:
                continue
            assert backend.minmax("tonnage", query) == engine.minmax("tonnage", query)
            assert backend.value_frequencies(
                "departure_harbour", query
            ) == engine.value_frequencies("departure_harbour", query)

    def test_count_batch_matches_engine(self, voc, engine, backend):
        queries = [
            SDLQuery([RangePredicate("tonnage", 100 * i, 100 * i + 400)])
            for i in range(8)
        ]
        queries.append(queries[0])  # duplicate exercises the dedup path
        assert backend.count_batch(queries) == engine.count_batch(queries)


class TestTypes:
    @pytest.fixture(scope="class")
    def typed_table(self):
        return Table.from_dict(
            {
                "day": [datetime.date(2020, 1, d) for d in range(1, 11)],
                "flag": [True, False, True, True, None, False, True, False, True, True],
                "score": [1.5, 2.5, None, 4.0, 5.5, 6.0, 7.25, 8.0, 9.0, 10.0],
                "label": ["a", "b", "a", None, "c", "a", "b", "c", "a", "b"],
            },
            name="typed",
        )

    def test_dates_round_trip(self, typed_table):
        backend = SQLiteBackend.from_table(typed_table)
        engine = QueryEngine(typed_table)
        query = SDLQuery(
            [RangePredicate("day", datetime.date(2020, 1, 3), datetime.date(2020, 1, 8))]
        )
        assert backend.count(query) == engine.count(query) == 6
        assert backend.median("day", query) == engine.median("day", query)
        assert backend.minmax("day") == engine.minmax("day")

    def test_booleans_and_missing_values(self, typed_table):
        backend = SQLiteBackend.from_table(typed_table)
        engine = QueryEngine(typed_table)
        query = SDLQuery([SetPredicate("flag", frozenset({True}))])
        assert backend.count(query) == engine.count(query)
        assert backend.value_frequencies("flag") == engine.value_frequencies("flag")
        # NOT IN never matches missing values (SQL three-valued logic).
        exclusion = SDLQuery([ExclusionPredicate("label", frozenset({"a"}))])
        assert backend.count(exclusion) == engine.count(exclusion)

    def test_float_median_even_count(self, typed_table):
        backend = SQLiteBackend.from_table(typed_table)
        engine = QueryEngine(typed_table)
        assert backend.median("score") == engine.median("score")

    def test_empty_selection_raises(self, typed_table):
        backend = SQLiteBackend.from_table(typed_table)
        empty = SDLQuery([RangePredicate("score", 900, 901)])
        with pytest.raises(EmptyColumnError):
            backend.median("score", empty)
        with pytest.raises(EmptyColumnError):
            backend.minmax("score", empty)

    def test_unknown_column_rejected(self, typed_table):
        backend = SQLiteBackend.from_table(typed_table)
        with pytest.raises(UnknownColumnError):
            backend.count(SDLQuery.over(["nonexistent"]))


    def test_inserted_rows_are_the_per_row_encoding(self, typed_table):
        table = typed_table.append_rows([{"day": None, "flag": True, "label": "d"}])
        stored = SQLiteBackend.from_table(table)
        names = table.column_names
        rows = stored._fetch(f"SELECT {', '.join(names)} FROM typed ORDER BY rowid")
        expected = []
        for index in range(table.num_rows):
            row = []
            for name in names:
                value = table.column(name).value_at(index)
                if value is not None and table.dtype(name) is DataType.DATE:
                    value = value.toordinal()
                elif value is not None and table.dtype(name) is DataType.BOOL:
                    value = int(value)
                row.append(value)
            expected.append(tuple(row))
        assert rows == expected
        types = [[type(v) for v in row] for row in rows]
        assert types == [[type(v) for v in row] for row in expected]


class TestIngestCoercion:
    """Ingest coerces each cell by the column store's rule on both backends."""

    @pytest.fixture()
    def pair(self):
        table = Table.from_dict(
            {"n": [1, 2, 3], "b": [True, False, True]},
            types={"n": DataType.INT, "b": DataType.BOOL},
        )
        return QueryEngine(table), SQLiteBackend.from_table(table)

    def test_a_textual_bool_is_stored_as_the_column_store_reads_it(self, pair):
        for backend in pair:
            backend.ingest([{"n": 4, "b": "no"}, {"n": 5, "b": "yes"}])
        falses = SDLQuery([SetPredicate("b", frozenset({False}))])
        assert [backend.count(falses) for backend in pair] == [2, 2]
        assert [backend.value_frequencies("b") for backend in pair] == [{False: 2, True: 3}] * 2

    @pytest.mark.parametrize("value", [1.5, "abc", 10**30])
    def test_a_value_the_int_column_cannot_hold_is_rejected(self, pair, value):
        for backend in pair:
            with pytest.raises(TypeMismatchError):
                backend.ingest([{"n": 4, "b": True}, {"n": value, "b": True}])
            assert backend.data_version == 1 and backend.num_rows == 3
            assert backend.minmax("n") == (1, 3)


class TestLifecycle:
    def test_file_database_persists_schema(self, tmp_path, voc, engine):
        path = str(tmp_path / "voc.db")
        first = SQLiteBackend.from_table(voc, database=path)
        first.close()
        reopened = SQLiteBackend(path)
        query = SDLQuery([RangePredicate("tonnage", 500, 1500)])
        assert reopened.count(query) == engine.count(query)
        assert reopened.is_numeric("built")
        assert not reopened.is_numeric("type_of_boat")
        reopened.close()

    def test_reopening_a_file_reuses_a_matching_table(self, tmp_path, voc, engine):
        path = str(tmp_path / "voc.db")
        SQLiteBackend.from_table(voc, database=path).close()
        backend = SQLiteBackend.from_table(voc, database=path)
        assert backend.num_rows == voc.num_rows
        assert backend.schema == QueryEngine(voc).schema
        query = SDLQuery([RangePredicate("tonnage", 500, 1500)])
        assert backend.count(query) == engine.count(query)
        # Reused, not appended to: the file holds the rows once.
        assert backend._fetch("SELECT COUNT(*) FROM voc") == [(voc.num_rows,)]
        backend.close()

    def test_sibling_shares_cache_not_counters(self, voc):
        primary = SQLiteBackend.from_table(voc, cache_aggregates=True)
        session = primary.sibling()
        query = SDLQuery([RangePredicate("tonnage", 400, 900)])
        first = primary.count(query)
        assert session.count(query) == first
        assert session.counter.aggregate_hits == 1  # served from shared cache
        assert primary.counter.count_calls == 1
        assert session.counter.count_calls == 1

    def test_skip_rejects_mismatched_stored_table(self, tmp_path, voc):
        path = str(tmp_path / "voc.db")
        SQLiteBackend.from_table(voc, database=path).close()
        smaller = generate_voc(rows=100, seed=1)
        with pytest.raises(BackendError):
            SQLiteBackend.from_table(smaller, database=path, table_name="voc")

    def test_samples_of_two_seeds_do_not_clobber_each_other(self, voc):
        backend = SQLiteBackend.from_table(voc)
        first = backend.sample(0.5, seed=1)
        query = SDLQuery([RangePredicate("tonnage", 300, 1500)])
        count_before = first.count(query)
        second = backend.sample(0.5, seed=2)
        assert second.table is not first.table
        assert second.count(query) == QueryEngine(voc).sample(0.5, seed=2).count(query)
        assert first.count(query) == count_before  # still reads its own rows

    def test_sample_holds_the_memory_samplers_rows(self, voc):
        backend = SQLiteBackend.from_table(voc)
        sampled = backend.sample(0.25, seed=3)
        assert sampled.num_rows == pytest.approx(voc.num_rows * 0.25, rel=0.05)
        # Both backends draw positions from uniform_sample_indices, so the
        # sample is the same rows, decoded to the same values and types.
        mem = QueryEngine(voc).sample(0.25, seed=3)
        assert sampled.table.schema() == mem.table.schema()
        assert sampled.table.to_dict() == mem.table.to_dict()
        query = SDLQuery([SetPredicate("type_of_boat", frozenset({"fluit"}))])
        assert sampled.count(query) == mem.count(query)

    def test_equal_samples_outlive_each_other(self):
        # Two samples of one fraction and seed: ending the first one's
        # life (closing it where it can be closed, then dropping it) must
        # leave the second counting.
        import gc

        backend = SQLiteBackend.from_table(generate_voc(rows=300, seed=1))
        query = SDLQuery([RangePredicate("tonnage", 300, 1500)])
        first = backend.sample(0.5, seed=3)
        second = backend.sample(0.5, seed=3)
        expected = first.count(query)
        getattr(first, "close", lambda: None)()
        del first
        gc.collect()
        assert second.count(query) == expected

    def test_siblings_share_one_sampled_table_per_version_and_seed(self, voc):
        primary = SQLiteBackend.from_table(voc)
        session = primary.sibling()
        first = primary.sample(0.5, seed=4)
        assert session.sample(0.5, seed=4).table is first.table
        assert primary.sample(0.5, seed=5).table is not first.table
        assert primary.sample(0.25, seed=4).table is not first.table
        query = SDLQuery([RangePredicate("tonnage", 300, 1500)])
        before = first.count(query)
        # A delete that selects nothing keeps the version, and the memo.
        nothing = SDLQuery([RangePredicate("tonnage", -2.0, -1.0)])
        assert session.delete_where(nothing) == 0
        assert primary.sample(0.5, seed=4).table is first.table
        # An ingest, seen through a sibling, replaces it.
        session.ingest([voc.row(0), voc.row(1)])
        after_ingest = primary.sample(0.5, seed=4)
        assert after_ingest.table is not first.table
        assert session.sample(0.5, seed=4).table is after_ingest.table
        assert first.count(query) == before  # an old sample keeps its rows
        # So does a delete that removes rows.
        assert session.delete_where(query) > 0
        after_delete = session.sample(0.5, seed=4)
        assert after_delete.table is not after_ingest.table
        assert primary.sample(0.5, seed=4).table is after_delete.table
        assert after_delete.count(query) == 0

    def test_an_emptied_table_samples_to_zero_rows_of_every_column(self):
        table = Table.from_dict(
            {
                "n": [1, 2, 3],
                "f": [1.5, None, 2.5],
                "s": ["a", None, "c"],
                "d": [datetime.date(1700, 1, 1), None, datetime.date(1701, 5, 2)],
                "b": [True, False, None],
            },
            name="typed",
        )
        backend = SQLiteBackend.from_table(table)
        assert backend.sample(1.0, seed=1).table.to_dict() == table.to_dict()
        assert backend.delete_where(SDLQuery([RangePredicate("n", 0, 10)])) == 3
        sampled = backend.sample(1.0, seed=1)
        assert sampled.num_rows == 0
        assert sampled.table.schema() == table.schema()

    def test_interactive_advise_samples_into_memory(self, voc):
        # mode="interactive" works wherever sample() does: the view's
        # statistics run on the memory engine, over the sampled rows.
        from repro.backends.approx import ApproxEngine
        from repro.core import Charles

        rows = generate_voc(rows=3000, seed=17)
        advisor = Charles(rows, backend="sqlite")
        assert ApproxEngine(advisor.engine).stats()["backend"] == "sampled(sqlite)"
        context = ["type_of_boat", "tonnage"]
        advice = advisor.advise(context, max_answers=4, mode="interactive")
        assert advice.approximate is True
        assert 0.0 < advice.error_bound < 0.05
        # The exact engine saw none of it.
        assert advisor.engine.counter.total_database_operations == 0
        exact = advisor.advise(context, max_answers=4)
        assert exact.approximate is False
        assert [a.attributes for a in advice] == [a.attributes for a in exact]

    def test_interactive_advice_is_identical_on_memory_and_sqlite(self):
        from repro.core import Charles

        rows = generate_voc(rows=3000, seed=17)
        fresh = generate_voc(rows=40, seed=18)
        context = ["type_of_boat", "tonnage", "departure_harbour"]
        advisors = [Charles(rows, backend=spec) for spec in ("memory", "sqlite")]
        for _ in range(2):  # before and after an ingest
            reports = []
            for advisor in advisors:
                advice = advisor.advise(context, mode="interactive")
                assert advice.approximate is True
                reports.append((advice.describe(limit=None), advice.error_bound))
            assert reports[0] == reports[1]
            for advisor in advisors:
                advisor.ingest(list(fresh.iter_rows()))

    def test_interactive_advise_leaves_no_sample_table_per_version(self):
        # Samples live in memory, so interactive traffic on a live table
        # never adds a table to the database.
        from repro.core import Charles

        advisor = Charles(generate_voc(rows=3000, seed=17), backend="sqlite")
        fresh = generate_voc(rows=100, seed=18)
        context = ["type_of_boat", "tonnage"]
        advisor.advise(context, max_answers=4, mode="interactive")
        for round_index in range(50):
            advisor.ingest([fresh.row(2 * round_index), fresh.row(2 * round_index + 1)])
            advice = advisor.advise(context, max_answers=4, mode="interactive")
            assert advice.approximate is True
        names = advisor.engine._fetch("SELECT name FROM sqlite_master WHERE type = 'table'")
        assert sorted(names) == [("_charles_schema",), ("voc",)]
        assert advisor.data_version == 51

    def test_threaded_interactive_service_leaves_only_the_base_table(self):
        # Four users advising interactively while twelve ingests land: the
        # database holds the base table and the schema companion, nothing else.
        from repro.service import AdvisorService

        service = AdvisorService(generate_voc(rows=4000, seed=3), backend="sqlite")
        fresh = generate_voc(rows=24, seed=4)
        contexts = [
            ["type_of_boat", "tonnage"],
            ["departure_harbour", "built"],
            ["tonnage", "built"],
            ["type_of_boat", "departure_harbour"],
        ]
        for user, context in enumerate(contexts):
            service.open_session(f"u{user}", context=context)
        errors = []

        def user_loop(user):
            try:
                for _ in range(6):
                    advice = service.advise(f"u{user}", refresh=True, mode="interactive")
                    assert advice.approximate is True
                    service.refine(f"u{user}")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=user_loop, args=(u,)) for u in range(4)]
        for thread in threads:
            thread.start()
        for index in range(12):
            service.ingest(rows=[fresh.row(2 * index), fresh.row(2 * index + 1)])
        for thread in threads:
            thread.join()
        assert not errors
        engine = service._runtime(None).engine
        assert engine.data_version == 13
        names = engine._fetch("SELECT name FROM sqlite_master WHERE type = 'table'")
        assert sorted(names) == [("_charles_schema",), ("voc",)]

    def test_thread_safe_counts(self, voc, engine, backend):
        query = SDLQuery([RangePredicate("tonnage", 200, 2200)])
        expected = engine.count(query)
        results = []
        errors = []

        def worker():
            try:
                results.append(backend.count(query))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == [expected] * 8

    def test_a_median_never_straddles_an_ingest(self, monkeypatch):
        # A second session ingests between the median's COUNT and its
        # ordered read.  The answer must be the median of one version,
        # cached at that version; a read at the new version recomputes.
        voc = generate_voc(rows=1001, seed=3)
        fresh = list(generate_voc(rows=400, seed=4).iter_rows())
        before = QueryEngine(voc).median("tonnage")
        after = QueryEngine(voc.append_rows(fresh)).median("tonnage")
        assert before != after
        backend = SQLiteBackend.from_table(voc, cache_aggregates=True)
        session = backend.sibling()
        fetch = backend._fetch
        started = threading.Event()
        ingests = []

        def ingest():
            started.set()
            session.ingest(fresh)

        def delayed(sql, *parameters):
            rows = fetch(sql, *parameters)
            if sql.startswith('SELECT COUNT("tonnage")') and not ingests:
                ingests.append(threading.Thread(target=ingest))
                ingests[0].start()
                assert started.wait(timeout=30)
                ingests[0].join(timeout=0.2)  # done, unless the median holds it off
            return rows

        monkeypatch.setattr(backend, "_fetch", delayed)
        first = backend.median("tonnage")
        ingests[0].join(timeout=30)
        assert not ingests[0].is_alive()
        assert first in (before, after)
        assert backend.data_version == 2
        hits = backend.counter.aggregate_hits
        assert backend.median("tonnage") == after
        assert backend.counter.aggregate_hits == hits  # recomputed, not served

    def test_threaded_medians_each_answer_one_version(self):
        # Eight sessions take medians while six ingests land, with the
        # interpreter switching threads often: every answer must be the
        # median of one version of the table.
        import sys

        table = generate_voc(rows=1001, seed=3)
        backend = SQLiteBackend.from_table(table)
        batches = [list(generate_voc(rows=60, seed=10 + i).iter_rows()) for i in range(6)]
        medians = {QueryEngine(table).median("tonnage")}
        for batch in batches:
            table = table.append_rows(batch)
            medians.add(QueryEngine(table).median("tonnage"))
        answers, errors = [], []

        def reader(session):
            try:
                answers.extend(session.median("tonnage") for _ in range(30))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(backend.sibling(),)) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for batch in batches:
                backend.ingest(batch)
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert len(answers) == 240 and set(answers) <= medians

    def test_a_database_without_the_schema_companion_opens(self, tmp_path):
        # A table Charles did not write: types come from the declarations.
        path = str(tmp_path / "plain.db")
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE t (n INTEGER, x REAL, s TEXT)")
        connection.executemany("INSERT INTO t VALUES (?, ?, ?)", [(1, 0.5, "a"), (3, 1.5, "b")])
        connection.commit()
        connection.close()
        backend = SQLiteBackend(path)
        assert backend.schema == {"n": DataType.INT, "x": DataType.FLOAT, "s": DataType.STRING}
        assert backend.num_rows == 2 and backend.median("n") == 2
        backend.close()
