"""Tests for the advisor service: sessions, shared caches, serve/submit."""

from __future__ import annotations

import itertools
import threading

import pytest

from repro.api.protocol import Request
from repro.core import Charles, ExplorationSession
from repro.errors import AdvisorError, SessionError
from repro.service import AdvisorService
from repro.storage import QueryEngine
from repro.workloads import generate_concurrent_workload, generate_voc, serve

_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]


@pytest.fixture(scope="module")
def table():
    return generate_voc(rows=1500, seed=11)


@pytest.fixture()
def service(table):
    return AdvisorService(table, batch_window=0.0)


class TestSessions:
    def test_open_advise_drill_back(self, service):
        session = service.open_session("alice")
        advice = service.advise("alice", _CONTEXT)
        assert advice.answers
        drilled = service.drill("alice", 0, 0)
        assert drilled.context != advice.context
        assert session.depth == 1
        restored = service.back("alice")
        assert restored.context == advice.context
        assert session.depth == 0

    def test_duplicate_name_rejected_unless_replaced(self, service):
        service.open_session("alice")
        with pytest.raises(SessionError):
            service.open_session("alice")
        replacement = service.open_session("alice", replace=True)
        assert service.session("alice") is replacement

    def test_close_session_returns_stats(self, service):
        service.open_session("alice", context=_CONTEXT)
        stats = service.close_session("alice")
        assert stats["requests"] == 1
        with pytest.raises(SessionError):
            service.session("alice")

    def test_unknown_table_rejected(self, service):
        with pytest.raises(AdvisorError):
            service.open_session("bob", table="nope")


class TestSharedCaching:
    def test_identical_contexts_share_advice(self, service):
        service.open_session("alice")
        service.open_session("bob")
        first = service.advise("alice", _CONTEXT)
        second = service.advise("bob", _CONTEXT)
        # The exact same Advice object is served from the shared cache.
        assert second is first
        advice_stats = service.stats()["tables"]["voc"]["advice_cache"]
        assert advice_stats["hits"] == 1

    def test_different_answer_counts_do_not_share_advice(self, service):
        for name in ("alice", "bob", "carol"):
            service.open_session(name)
        service.session("bob").exploration.max_answers = 5
        first = service.advise("alice", _CONTEXT)
        assert service.advise("bob", _CONTEXT) is not first
        # The same answer count over the same context does share.
        assert service.advise("carol", _CONTEXT) is first

    def test_sessions_share_masks_and_aggregates(self, service):
        service.open_session("alice")
        service.open_session("bob")
        service.advise("alice", _CONTEXT)
        # Different max_answers defeats the advice cache but not the
        # mask/aggregate cache underneath.
        bob = service.session("bob")
        bob.exploration.max_answers = 5
        service.advise("bob", _CONTEXT)
        assert bob.advisor.engine.counter.aggregate_hits > 0
        assert bob.advisor.engine.counter.evaluations == 0

    def test_concurrent_sessions_see_consistent_cache_stats(self, table):
        service = AdvisorService(table, batch_window=0.002)
        users = 6
        barrier = threading.Barrier(users)
        errors = []

        def explore(index: int) -> None:
            name = f"user-{index}"
            try:
                service.open_session(name)
                barrier.wait()
                advice = service.advise(name, _CONTEXT)
                service.drill(name, index % len(advice.answers), 0)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=explore, args=(i,)) for i in range(users)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        cache_stats = service.stats()["tables"]["voc"]["result_cache"]
        assert cache_stats["hits"] + cache_stats["misses"] > 0
        assert cache_stats["entries"] <= cache_stats["capacity"]
        assert 0.0 <= cache_stats["hit_rate"] <= 1.0
        # Every session reads the same shared cache object.
        snapshots = {
            name: session["engine_operations"]
            for name, session in service.stats()["sessions"].items()
        }
        assert len(snapshots) == users

    @pytest.mark.parametrize(
        "option, cache", [("cache_capacity", "result_cache"), ("advice_capacity", "advice_cache")]
    )
    def test_a_negative_cache_size_is_an_error(self, table, option, cache):
        with pytest.raises(AdvisorError, match=f"{option} cannot be negative"):
            AdvisorService(table, **{option: -1})
        # Zero stays the way to turn a cache off.
        service = AdvisorService(table, batch_window=0.0, **{option: 0})
        assert service.stats()["tables"]["voc"][cache]["capacity"] == 0

    def test_a_negative_max_answers_is_an_error(self, table):
        with pytest.raises(AdvisorError, match="max_answers cannot be negative"):
            AdvisorService(table, max_answers=-1)
        service = AdvisorService(table, batch_window=0.0, max_answers=0)
        assert service.open_session("alice", context=_CONTEXT).advise().answers == []

    def test_lru_eviction_bounds_service_memory(self, table):
        service = AdvisorService(table, cache_capacity=16, batch_window=0.0)
        service.open_session("alice", context=_CONTEXT)
        stats = service.stats()["tables"]["voc"]["result_cache"]
        assert stats["entries"] <= 16
        assert stats["evictions"] > 0
        # bool masks over 1500 rows: 16 entries stay under 16 × 1500 bytes
        # plus scalar aggregates.
        assert stats["approx_bytes"] <= 16 * table.num_rows


class TestRefine:
    """``refine`` is one exact advise through the advice cache, on the request thread."""

    _COLUMNS = ("master", "tonnage", "type_of_boat", "built", "departure_harbour",
                "cape_arrival")

    def test_back_to_back_interactive_users_start_no_thread(self, service):
        baseline = threading.active_count()
        for user, context in enumerate(itertools.combinations(self._COLUMNS, 3)):
            session = service.open_session(f"user-{user}")
            assert session.advise(list(context), mode="interactive").approximate
            assert threading.active_count() <= baseline
        assert user == 19

    def test_a_context_another_session_refined_is_a_cache_hit(self, service):
        alice = service.open_session("alice")
        bob = service.open_session("bob")
        alice.advise(_CONTEXT, mode="interactive")
        refined = alice.refine()
        assert bob.advise(_CONTEXT, mode="interactive").approximate

        def advice_hits():
            return service.stats()["tables"]["voc"]["advice_cache"]["hits"]

        hits, count_calls = advice_hits(), bob.advisor.engine.counter.count_calls
        assert bob.refine() is refined
        assert advice_hits() == hits + 1
        assert bob.advisor.engine.counter.count_calls == count_calls

    def test_back_drill_and_refine_need_a_context(self, service):
        assert service.submit(Request(op="open_session", session="fresh")).ok
        for op in ("back", "drill", "refine"):
            response = service.submit(Request(op=op, session="fresh"))
            assert not response.ok and response.error_code == "core_session", op
            assert response.error == (
                "session 'fresh' has no context yet; submit an advise first"
            ), op


class TestSubmitAndServe:
    def test_submit_round_trip(self, service):
        assert service.submit(
            Request(op="open_session", session="s1", params={"context": _CONTEXT})
        ).ok
        drill = service.submit(Request(op="drill", session="s1"))
        assert drill.ok and drill.result.answers
        assert service.submit(Request(op="back", session="s1")).ok
        count = service.submit(
            Request(op="count", params={"context": "tonnage: [0, 100000]"})
        )
        assert count.ok and count.result > 0
        stats = service.submit(Request(op="stats"))
        assert stats.ok and "tables" in stats.result
        closed = service.submit(Request(op="close_session", session="s1"))
        assert closed.ok and closed.result["requests"] >= 2

    def test_submit_reports_errors_instead_of_raising(self, service):
        response = service.submit(Request(op="drill", session="ghost"))
        assert not response.ok
        assert "ghost" in (response.error or "")
        unknown = service.submit(Request(op="frobnicate"))
        assert not unknown.ok

    def test_submit_validates_ops_and_sessions_with_typed_errors(self, service):
        # Regression: unknown ops and sessions surface stable wire codes,
        # never a bare KeyError/TypeError escaping submit().
        unknown_op = service.submit(Request(op="frobnicate"))
        assert unknown_op.error_code == "protocol_unknown_op"
        unknown_session = service.submit(Request(op="back", session="ghost"))
        assert unknown_session.error_code == "core_session"
        bad_index = service.submit(
            Request(op="drill", session="ghost", params={"answer_index": "first"})
        )
        assert bad_index.error_code == "protocol"

    def test_submit_canonical_op_names_and_timing(self, service):
        opened = service.submit(
            Request(op="open_session", session="w1", params={"context": _CONTEXT})
        )
        assert opened.ok and opened.result == "w1"
        assert opened.elapsed_seconds > 0.0
        assert opened.request_id
        described = service.submit(Request(op="describe", session="w1"))
        assert described.ok
        assert described.result["breadcrumbs"] == ["(root)"]
        closed = service.submit(Request(op="close_session", session="w1"))
        assert closed.ok

    def test_serve_workload_sequential_and_threaded(self, table):
        scripts = generate_concurrent_workload(
            table.column_names, users=4, steps=3, seed=2, distinct_paths=2
        )
        sequential = serve(AdvisorService(table, batch_window=0.0), scripts, workers=1)
        threaded = serve(AdvisorService(table, batch_window=0.002), scripts, workers=4)
        assert sequential.requests == threaded.requests > 0
        assert not sequential.errors
        assert not threaded.errors
        assert sequential.throughput > 0
        # The shared advice cache fires on the repeated paths.
        assert sequential.table_stats["voc"]["advice_cache"]["hits"] > 0

    def test_serve_records_open_errors_instead_of_raising(self, table):
        service = AdvisorService({"a": table, "b": table}, batch_window=0.0)
        scripts = generate_concurrent_workload(table.column_names, users=2, seed=4)
        # Two tables and no table named: opening each session fails, but
        # serve() reports it per user rather than crashing.
        report = serve(service, scripts, workers=1)
        assert report.requests == 0
        assert len(report.errors) == 2


def _sixteen_user_scripts(table, users=16):
    return generate_concurrent_workload(
        table.column_names, users=users, steps=4, seed=5, distinct_paths=min(users, 4)
    )


def _replay_independently(table, scripts):
    """Each user on a private advisor and engine: ``(requests, evaluations)``."""
    requests = evaluations = 0
    for script in scripts:
        engine = QueryEngine(table)
        session = ExplorationSession(Charles(engine), max_answers=10)
        for action in script.actions:
            if action.op == "advise":
                session.start(list(action.context))
            elif action.op == "drill":
                advice = session.advise()
                if not advice.answers:
                    continue
                answer_index = action.answer % len(advice.answers)
                segmentation = advice.answers[answer_index].segmentation
                session.drill(answer_index, action.segment % segmentation.depth)
            elif session.depth > 0:
                session.back()
                session.advise()
            requests += 1
        evaluations += engine.counter.evaluations
    return requests, evaluations


class TestSharingSavesWork:
    """Sixteen users on one service scan far less than sixteen on their own."""

    @pytest.fixture(scope="class")
    def small(self):
        return generate_voc(rows=400, seed=42)

    def test_shared_service_does_at_most_half_the_evaluations(self, small):
        scripts = _sixteen_user_scripts(small)
        service = AdvisorService(small)
        report = serve(service, scripts, workers=1)
        assert not report.errors
        stats = service.stats()
        shared = stats["tables"]["voc"]["primary_engine"]["evaluations"] + sum(
            session["engine_operations"]["evaluations"]
            for session in stats["sessions"].values()
        )
        requests, independent = _replay_independently(small, scripts)
        # The same scripts, request for request; 618 against 2 980 today.
        assert report.requests == requests
        assert 0 < shared <= independent / 2

    def test_cache_misses_per_request_fall_as_users_share_paths(self, small):
        def misses_per_request(users):
            report = serve(AdvisorService(small), _sixteen_user_scripts(small, users))
            return report.table_stats["voc"]["result_cache"]["misses"] / report.requests

        assert misses_per_request(16) < misses_per_request(1)


class TestWorkloadGenerator:
    def test_deterministic(self, table):
        first = generate_concurrent_workload(table.column_names, users=5, seed=9)
        second = generate_concurrent_workload(table.column_names, users=5, seed=9)
        assert first == second

    def test_distinct_paths_bounds_unique_scripts(self, table):
        scripts = generate_concurrent_workload(
            table.column_names, users=8, seed=1, distinct_paths=3
        )
        assert len(scripts) == 8
        assert len({script.actions for script in scripts}) <= 3

    def test_rejects_bad_arguments(self, table):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            generate_concurrent_workload(table.column_names, users=0)
        with pytest.raises(WorkloadError):
            generate_concurrent_workload([], users=1)


class TestParallelService:
    def test_workers_is_no_service_option(self, table, service):
        with pytest.raises(TypeError):
            AdvisorService(table, workers=2)
        assert "parallel" not in service.stats()
        assert "pool_workers" not in str(service.metrics_document())

    def test_parallel_service_answers_match_sequential(self, table):
        def fingerprint(advice):
            return [
                (
                    answer.segmentation.cut_attributes,
                    tuple(answer.segmentation.counts),
                    answer.score,
                )
                for answer in advice.answers
            ]

        sequential = AdvisorService(table, batch_window=0.0)
        parallel = AdvisorService(table, batch_window=0.0, backend="memory?partitions=4")
        expected = fingerprint(
            sequential.open_session("a", context=_CONTEXT).current_advice()
        )
        observed = fingerprint(
            parallel.open_session("a", context=_CONTEXT).current_advice()
        )
        assert observed == expected
        assert parallel.stats()["tables"]["voc"]["backend"]["partitions"] == 4

    def test_parallel_serve_workload_matches_sequential(self, table):
        scripts = generate_concurrent_workload(
            table.column_names, users=4, steps=2, seed=5
        )
        sequential = AdvisorService(table, batch_window=0.0)
        parallel = AdvisorService(table, batch_window=0.0, backend="memory?partitions=2")
        report_a = serve(sequential, scripts, workers=2)
        report_b = serve(parallel, scripts, workers=2)
        assert not report_a.errors and not report_b.errors
        assert report_a.requests == report_b.requests
