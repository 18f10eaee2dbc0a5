"""Live data through the service and wire layers: the acceptance loop.

The end-to-end criterion of the live subsystem: a remote session's advice
is marked stale after a wire-level ``ingest``, ``advise(refresh=True)``
returns advice byte-identical to a fresh engine on the post-ingest data,
and version-keyed eviction removes only superseded cache entries
(asserted via cache statistics).
"""

from __future__ import annotations

import pytest

from repro.api import AdvisorHTTPServer, RemoteAdvisor, Request, dumps
from repro.backends import open_backend
from repro.core.advisor import Charles
from repro.core.session import ExplorationSession
from repro.errors import ProtocolError
from repro.sdl import RangePredicate, SDLQuery
from repro.service import AdvisorService
from repro.storage import QueryEngine
from repro.workloads import generate_voc

_ROWS = 320
_SEED = 23
_CONTEXT = ["tonnage", "type_of_boat"]


def _advice_wire(advice):
    return dumps({"context": advice.context, "answers": advice.answers})


@pytest.fixture()
def table():
    return generate_voc(rows=_ROWS, seed=_SEED)


@pytest.fixture()
def batch(table):
    return [table.row(i) for i in range(40)]


class TestSessionStaleness:
    def test_exploration_session_tracks_versions(self, table, batch):
        advisor = Charles(table)
        session = ExplorationSession(advisor)
        session.start(_CONTEXT)
        assert not session.is_stale()
        assert session.current.data_version == 1

        advisor.ingest(batch)
        assert session.is_stale()
        assert "stale" in session.describe()

        refreshed = session.advise(refresh=True)
        assert not session.is_stale()
        assert session.current.data_version == 2
        fresh = Charles(table.append_rows(batch)).advise(
            _CONTEXT, max_answers=session.max_answers
        )
        assert _advice_wire(refreshed) == _advice_wire(fresh)

    def test_drill_stack_survives_refresh(self, table, batch):
        advisor = Charles(table)
        session = ExplorationSession(advisor)
        session.start(_CONTEXT)
        session.drill(0, 0)
        advisor.ingest(batch)
        assert session.is_stale()
        session.advise(refresh=True)
        assert session.depth == 1  # refresh never pops the stack
        assert not session.is_stale()



class TestSampledViewFollowsMutation:
    """One rule for the approximate view: mutations go to the backend it
    decorates, and its next call answers from a sample of the new version."""

    @pytest.mark.parametrize("scheme", ["memory", "sqlite"])
    def test_view_mutates_its_base_and_resamples(self, table, batch, scheme):
        view = open_backend(f"{scheme}?sample=0.5&seed=1", table)
        whole = SDLQuery.over(_CONTEXT)
        assert view.count(whole) == _ROWS
        before = view.stats()["sample"]["rows"]

        assert view.ingest(batch) == 2
        assert view.data_version == view.base_engine.data_version == 2
        assert view.num_rows == view.base_engine.num_rows == _ROWS + len(batch)
        assert view.count(whole) == _ROWS + len(batch)
        assert view.stats()["sample"]["rows"] > before

        heavy = SDLQuery([RangePredicate("tonnage", 0, 10**9)])
        assert view.delete_where(heavy) == _ROWS + len(batch)
        assert view.num_rows == 0 and view.count(whole) == 0

    def test_view_tallies_survive_a_resample(self, table, batch):
        view = open_backend("memory?sample=0.5&seed=1", table)
        view.count(SDLQuery.over(_CONTEXT))
        view.ingest(batch)
        view.count(SDLQuery.over(_CONTEXT))
        assert view.counter.count_calls == 2
        assert view.base_engine.counter.count_calls == 0

    def test_interactive_advice_follows_an_ingest(self, table, batch):
        advisor = Charles(table, backend="memory?sample=0.5&seed=1")
        session = ExplorationSession(advisor)
        first = session.start(_CONTEXT)
        assert first.approximate is True
        advisor.ingest(batch)
        assert session.is_stale()
        refreshed = session.advise(refresh=True)
        assert refreshed.approximate is True and not session.is_stale()
        assert refreshed.answers[0].segmentation.context_count == _ROWS + len(batch)
        # Equal history, equal advice: the sample is seeded by the version.
        twin = Charles(table, backend="memory?sample=0.5&seed=1")
        twin.ingest(batch)
        assert _advice_wire(
            twin.advise(_CONTEXT, max_answers=session.max_answers)
        ) == _advice_wire(refreshed)
        # ...and refinement reaches the unsampled rows of the new version.
        fresh = Charles(table.append_rows(batch)).advise(
            _CONTEXT, max_answers=session.max_answers
        )
        assert _advice_wire(session.refine()) == _advice_wire(fresh)

    def test_service_interactive_refresh_and_refine_after_ingest(self, table, batch):
        service = AdvisorService(table, batch_window=0.0)
        service.open_session("alice", context=_CONTEXT)
        service.ingest(rows=batch)
        first = service.advise("alice", refresh=True, mode="interactive")
        assert first.approximate is True and first.error_bound is not None
        refined = service.refine("alice")
        fresh = Charles(table.append_rows(batch)).advise(_CONTEXT, max_answers=10)
        assert refined.approximate is False
        assert _advice_wire(refined) == _advice_wire(fresh)


class TestServiceIngest:
    def test_ingest_marks_sessions_stale_and_refresh_clears(self, table, batch):
        service = AdvisorService(table, batch_window=0.0)
        session = service.open_session("alice", context=_CONTEXT)
        assert session.stale is False

        result = service.ingest(rows=batch)
        assert result["appended"] == len(batch)
        assert result["data_version"] == 2
        assert result["rows"] == _ROWS + len(batch)
        assert result["cache_entries_invalidated"] > 0
        assert session.stale is True
        assert session.stats()["stale"] is True

        refreshed = service.advise("alice", refresh=True)
        assert session.stale is False
        fresh = Charles(table.append_rows(batch)).advise(
            _CONTEXT, max_answers=10
        )
        assert _advice_wire(refreshed) == _advice_wire(fresh)

    def test_eviction_is_per_table(self, table):
        other = generate_voc(rows=150, seed=4)
        service = AdvisorService(
            {"voc": table, "other": other}, batch_window=0.0
        )
        service.open_session("a", table="voc", context=_CONTEXT)
        service.open_session("b", table="other", context=_CONTEXT)
        stats_before = service.stats()["tables"]["other"]
        service.ingest(rows=[table.row(0)], table="voc")
        stats_after = service.stats()["tables"]["other"]
        # Surgical invalidation: the untouched table's caches are intact
        # (a flush-the-world strategy would have emptied them too).
        assert stats_after["result_cache"]["entries"] == (
            stats_before["result_cache"]["entries"]
        )
        assert stats_after["result_cache"]["invalidations"] == 0
        assert stats_after["advice_cache"]["entries"] == (
            stats_before["advice_cache"]["entries"]
        )
        assert service.stats()["tables"]["voc"]["data_version"] == 2
        assert stats_after["data_version"] == 1

    def test_delete_requires_a_constrained_query(self, table):
        service = AdvisorService(table, batch_window=0.0)
        with pytest.raises(ProtocolError):
            service.ingest(delete=["tonnage"])

    def test_ingest_requires_rows_or_delete(self, table):
        service = AdvisorService(table, batch_window=0.0)
        with pytest.raises(ProtocolError):
            service.ingest()

    def test_submit_validates_ingest_params(self, table):
        service = AdvisorService(table, batch_window=0.0)
        for bad_rows in (3, "abc", {"tonnage": 1}):
            response = service.submit(
                Request(op="ingest", params={"rows": bad_rows})
            )
            assert not response.ok
            assert response.error_code == "protocol"

    def test_unknown_columns_reported_identically_across_backends(self, table):
        from repro.backends import open_backend
        from repro.errors import SchemaError

        batch = [{"bogus_a": 1}, {"bogus_b": 2}]
        messages = []
        for spec in ("memory", "sqlite"):
            backend = open_backend(spec, table)
            with pytest.raises(SchemaError) as excinfo:
                backend.ingest(batch)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "['bogus_a', 'bogus_b']" in messages[0]

    def test_ingest_applies_appends_before_deletes(self, table):
        service = AdvisorService(table, batch_window=0.0)
        result = service.ingest(
            rows=[{"tonnage": 123, "type_of_boat": "pinas"}],
            delete="tonnage <= 123",
        )
        assert result["appended"] == 1
        assert result["deleted"] >= 1  # the appended row is deletable
        assert result["data_version"] == 3


class TestConcurrentMutation:
    def test_readers_race_ingest_without_corruption(self, table):
        """Counts observed during concurrent ingests are always *some*
        version's truth — never a crash, never a mixed-version value."""
        import threading

        engine = QueryEngine(table, cache_aggregates=True, partitions=2)
        query = Charles(engine).resolve_context("tonnage >= 0")
        base = engine.count(query)
        batches = 12
        per_batch = 5
        errors = []
        observed = []

        def reader():
            try:
                for _ in range(120):
                    observed.append(engine.sibling().count(query))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for _ in range(batches):
            engine.ingest(
                [{"tonnage": 1000, "type_of_boat": "pinas"}] * per_batch
            )
        for thread in threads:
            thread.join()

        assert not errors
        valid = {base + i * per_batch for i in range(batches + 1)}
        assert set(observed) <= valid
        assert engine.count(query) == base + batches * per_batch

    def test_a_held_snapshot_keeps_its_rows(self, table, batch):
        engine = QueryEngine(table)
        query = Charles(engine).resolve_context("tonnage >= 0")
        held = engine.source.table
        engine.ingest(batch)
        # The snapshot held before the ingest still answers with its rows.
        assert QueryEngine(held).count(query) == _ROWS
        assert engine.count(query) == _ROWS + len(batch)


class TestWireLevelRoundTrip:
    def test_remote_ingest_staleness_and_refresh(self, table, batch):
        service = AdvisorService(table, batch_window=0.0)
        with AdvisorHTTPServer(service, port=0) as server:
            client = RemoteAdvisor(server.url)
            session = client.open_session("probe", context=_CONTEXT)
            stale_advice = session.advise(_CONTEXT)
            assert session.stale is False
            assert session.data_version == 1

            result = client.ingest(rows=batch)
            assert result["appended"] == len(batch)
            assert result["data_version"] == 2
            assert session.stale is True

            refreshed = session.advise(refresh=True)
            assert session.stale is False
            assert session.data_version == 2
            fresh = Charles(table.append_rows(batch)).advise(
                _CONTEXT, max_answers=10
            )
            assert _advice_wire(refreshed) == _advice_wire(fresh)
            assert _advice_wire(refreshed) != _advice_wire(stale_advice)

    def test_remote_delete_round_trip(self, table):
        service = AdvisorService(table, batch_window=0.0)
        with AdvisorHTTPServer(service, port=0) as server:
            client = RemoteAdvisor(server.url)
            before = client.count("tonnage >= 0")
            result = client.ingest(delete="tonnage < 1500")
            assert result["deleted"] > 0
            assert client.count("tonnage >= 0") == before - result["deleted"]

    def test_rows_with_dates_survive_the_codec(self):
        import datetime as dt

        from repro.storage import Table

        dated = Table.from_dict(
            {"day": [dt.date(1700, 1, 1), dt.date(1700, 6, 1)], "v": [1, 2]},
            name="dated",
        )
        service = AdvisorService(dated, batch_window=0.0)
        with AdvisorHTTPServer(service, port=0) as server:
            client = RemoteAdvisor(server.url)
            result = client.ingest(
                rows=[{"day": dt.date(1701, 5, 2), "v": 3}]
            )
            assert result["appended"] == 1
            assert result["rows"] == 3
            # The date decoded on the server as a real date: a constrained
            # count over the date column selects the appended row.
            assert client.count("day BETWEEN '1701-01-01' AND '1800-01-01'") == 1
