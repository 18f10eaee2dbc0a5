"""Unit tests for interactive exploration sessions."""

from __future__ import annotations

import pytest

from repro.core import Charles, ExplorationSession
from repro.core.session import ExplorationStep
from repro.errors import SessionError


@pytest.fixture()
def session(voc_table) -> ExplorationSession:
    return ExplorationSession(Charles(voc_table), max_answers=5)


class TestLifecycle:
    def test_current_before_start_raises(self, session):
        with pytest.raises(SessionError):
            _ = session.current
        assert not session.started

    def test_start_returns_advice(self, session):
        advice = session.start(["type_of_boat", "departure_harbour", "tonnage"])
        assert len(advice) >= 1
        assert session.started
        assert session.depth == 0

    def test_advise_is_cached_per_step(self, session):
        session.start(["type_of_boat", "tonnage"])
        first = session.advise()
        second = session.advise()
        assert first is second

    def test_restart_resets_the_stack(self, session):
        session.start(["type_of_boat", "tonnage"])
        session.drill(0, 0)
        session.start(["type_of_boat", "tonnage"])
        assert session.depth == 0


class TestDrill:
    def test_drill_narrows_the_context(self, session):
        session.start(["type_of_boat", "departure_harbour", "tonnage"])
        root_count = session.advisor.count(session.context)
        advice = session.advise()
        session.drill(0, 0)
        assert session.depth == 1
        drilled_count = session.advisor.count(session.context)
        assert drilled_count < root_count
        expected = advice.answers[0].segmentation.segments[0].count
        assert drilled_count == expected

    def test_drill_records_choice(self, session):
        session.start(["type_of_boat", "tonnage"])
        session.drill(0, 1)
        history = session.history()
        assert history[0].chosen_answer == 0
        assert history[0].chosen_segment == 1

    def test_drill_out_of_range_answer(self, session):
        session.start(["type_of_boat", "tonnage"])
        with pytest.raises(SessionError):
            session.drill(99, 0)

    def test_drill_out_of_range_segment(self, session):
        session.start(["type_of_boat", "tonnage"])
        with pytest.raises(SessionError):
            session.drill(0, 99)

    def test_repeated_drill_goes_deeper(self, session):
        session.start(["type_of_boat", "departure_harbour", "tonnage"])
        session.drill(0, 0)
        session.drill(0, 0)
        assert session.depth == 2
        assert len(session.breadcrumbs()) == 3


class TestBack:
    def test_back_restores_previous_context(self, session):
        session.start(["type_of_boat", "tonnage"])
        root_context = session.context
        session.drill(0, 0)
        restored = session.back()
        assert restored == root_context
        assert session.depth == 0

    def test_back_clears_the_recorded_choice(self, session):
        session.start(["type_of_boat", "tonnage"])
        session.drill(0, 0)
        session.back()
        assert session.current.chosen_answer is None

    def test_back_at_root_raises(self, session):
        session.start(["type_of_boat", "tonnage"])
        with pytest.raises(SessionError):
            session.back()


class TestReporting:
    def test_breadcrumbs_start_at_root(self, session):
        session.start(["type_of_boat", "tonnage"])
        assert session.breadcrumbs() == ["(root)"]
        session.drill(0, 0)
        crumbs = session.breadcrumbs()
        assert len(crumbs) == 2
        assert crumbs[1] != "(root)"

    def test_describe_lists_levels(self, session):
        session.start(["type_of_boat", "tonnage"])
        session.drill(0, 0)
        text = session.describe()
        assert "level 0" in text
        assert "level 1" in text

    def test_describe_before_start(self):
        session = ExplorationSession.__new__(ExplorationSession)
        session.advisor = None  # type: ignore[assignment]
        session.max_answers = 5
        session._stack = []
        assert "not started" in session.describe()


class TestDescribeCountRouting:
    """Satellite regression: describe() must not bypass the service path."""

    def test_counts_served_from_advice_without_engine_calls(self, voc_table):
        from repro.core import Charles

        advisor = Charles(voc_table)
        session = ExplorationSession(advisor, max_answers=5)
        session.start(["type_of_boat", "tonnage"])
        session.drill(0, 0)
        before = advisor.engine.counter.count_calls
        first = session.describe()
        second = session.describe()
        # Every step carries advice, whose context_count answers describe();
        # repeated calls are cached per step, so no count is ever issued.
        assert advisor.engine.counter.count_calls == before
        assert first == second

    def test_count_fn_routes_counts_when_no_advice_exists(self, voc_table):
        from repro.core import Charles
        from repro.sdl import SDLQuery

        advisor = Charles(voc_table)
        routed = []

        def count_fn(context: SDLQuery) -> int:
            routed.append(context)
            return advisor.engine.count(context)

        session = ExplorationSession(advisor, max_answers=5, count_fn=count_fn)
        session._stack = [ExplorationStep(context=advisor.resolve_context(["tonnage"]))]
        text = session.describe()
        assert "level 0" in text
        assert len(routed) == 1
        session.describe()
        assert len(routed) == 1  # cached on the step

    def test_service_sessions_route_describe_through_shared_engine(self, voc_table):
        from repro.service import AdvisorService

        service = AdvisorService(voc_table)
        session = service.open_session("cli", context=["type_of_boat", "tonnage"])
        exploration = session.exploration
        assert exploration.count_fn is not None
        private_before = session.advisor.engine.counter.count_calls
        session.describe()
        # The session's private engine is never consulted for describe().
        assert session.advisor.engine.counter.count_calls == private_before
