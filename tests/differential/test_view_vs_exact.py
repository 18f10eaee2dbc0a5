"""Differential testing: the sampled view is close, and says how close.

Unlike the index harness (which demands bit-identical answers), the
approximate view is allowed to be wrong — but only within the error
bound it reports alongside each answer.  That claim is falsifiable, and
this suite falsifies it or passes.  The bound is probabilistic, so the
containment checks are *seeded* (table, queries and samples are all pure
functions of constants), not Hypothesis-drawn:

* every ``approx_count`` estimate of a **multi-predicate** query sits
  within ``rows * bound`` of the exact count — the dependent-attribute
  case per-column summaries cannot answer;
* every ``approx_median`` lands within ``rows * bound`` ranks of the
  middle of the exact selection;
* a sample that is the whole table is exact, reports bound 0 and fails
  malformed queries with the same exception type (Hypothesis-drawn);
* interactive advice over the paper's VOC workload makes every
  composition the exact advice makes, and every cell of a composed
  answer is within the advice's ``error_bound``;
* exact refinement of an approximate session is *byte-identical* on the
  wire to a plain advise over the same backend configuration, across the
  sample × index × partitions grid;
* the view's traffic is fully accounted on its own counters and never
  leaks into the exact engine's counters or result cache.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from diff_strategies import outcome, sdl_queries, small_tables
from repro.api.codec import dumps
from repro.api.protocol import Request
from repro.backends import open_backend
from repro.backends.approx import ApproxEngine, Estimate
from repro.core import Charles, ExplorationSession
from repro.errors import EmptyColumnError
from repro.sdl import RangePredicate, SDLQuery, SetPredicate
from repro.service import AdvisorService
from repro.storage import QueryEngine
from repro.workloads import generate_voc

_ROWS, _SEED = 12_000, 7

#: Every other three-attribute context over the attributes an analyst
#: explores (the row identifier ``trip`` left out): 28 contexts.
_COLUMNS = (
    "master", "tonnage", "type_of_boat", "built",
    "yard", "departure_date", "departure_harbour", "cape_arrival",
)
_CONTEXTS = tuple(itertools.combinations(_COLUMNS, 3))[::2]

_NUMERIC = ("tonnage", "built", "departure_date", "cape_arrival")
_NOMINAL = ("type_of_boat", "yard", "departure_harbour")


@pytest.fixture(scope="module")
def voc():
    return generate_voc(rows=_ROWS, seed=_SEED)


@pytest.fixture(scope="module")
def exact_engine(voc):
    return QueryEngine(voc)


def _predicate(rng: random.Random, table, attribute: str):
    column = table.column(attribute)
    if attribute in _NUMERIC:
        low, high = sorted(rng.sample(sorted(column.value_counts()), 2))
        return RangePredicate(attribute, low, high)
    values = sorted(column.value_counts())
    return SetPredicate(attribute, frozenset(rng.sample(values, rng.randint(1, 3))))


def _conjunctions(table, seed: int, size: int, pinned: str = ""):
    """Seeded conjunctive queries over 2–3 attributes (plus ``pinned``)."""
    rng = random.Random(seed)
    for _ in range(size):
        attributes = rng.sample(_NUMERIC + _NOMINAL, rng.randint(2, 3))
        if pinned and pinned not in attributes and rng.random() < 0.3:
            attributes.append(pinned)
        yield SDLQuery([_predicate(rng, table, a) for a in attributes])


class TestCountContainment:
    @pytest.mark.parametrize("sample_seed", [1, 2, 3])
    def test_estimate_within_reported_bound(self, voc, exact_engine, sample_seed):
        view = ApproxEngine(QueryEngine(voc), seed=sample_seed)
        queries = list(_conjunctions(voc, seed=11, size=300))
        assert view.count_batch(queries) == tuple(view.count(q) for q in queries)
        for query in queries:
            estimate = view.approx_count(query)
            assert estimate.approximate is True
            assert 0.0 < estimate.error_bound < 0.04
            slack = _ROWS * estimate.error_bound + 0.5  # the scaled count is rounded
            assert abs(exact_engine.count(query) - estimate.estimate) <= slack, (
                f"count estimate {estimate.estimate} ± {estimate.error_bound:.4f} "
                f"misses exact {exact_engine.count(query)} on {query.to_sdl()!r}"
            )

    @given(table=small_tables(), query=sdl_queries())
    @settings(max_examples=80, deadline=None)
    def test_whole_table_sample_is_exact(self, table, query):
        view = ApproxEngine(QueryEngine(table), fraction=1.0)
        exact = outcome(QueryEngine(table).count, query)
        assert outcome(view.count, query) == exact
        if exact[0] != "error":
            assert view.approx_count(query) == Estimate(exact[1], 0.0)


class TestMedianContainment:
    @pytest.mark.parametrize("attribute", ["tonnage", "built"])
    def test_median_rank_within_reported_bound(self, voc, exact_engine, attribute):
        view = ApproxEngine(QueryEngine(voc), seed=5)
        column = voc.column(attribute)
        checked = 0
        for query in _conjunctions(voc, seed=13, size=120, pinned=attribute):
            data = np.sort(
                np.asarray(column.values_list(exact_engine.evaluate(query)), dtype=float)
            )
            try:
                estimate = view.approx_median(attribute, query)
            except EmptyColumnError:
                # Nothing of the selection was sampled: it must be small.
                assert data.size <= _ROWS * view.take_error_bound()
                continue
            target = 0.5 * (data.size - 1)
            low = int(np.searchsorted(data, float(estimate.estimate), side="left"))
            high = int(np.searchsorted(data, float(estimate.estimate), side="right")) - 1
            distance = max(0.0, low - target, target - high)
            assert distance <= _ROWS * estimate.error_bound, (
                f"median estimate {estimate.estimate} sits {distance} ranks from the "
                f"middle of {data.size} values, beyond the advertised "
                f"{estimate.error_bound:.4f} of {_ROWS} rows, on {query.to_sdl()!r}"
            )
            checked += 1
        assert checked > 60


def _compositions(advice):
    return {a.attributes for a in advice.answers if len(a.attributes) > 1}


class TestAdviceRecall:
    """Interactive advice on VOC finds what exact advice finds."""

    @pytest.fixture(scope="class")
    def runs(self, voc):
        advisor = Charles(voc)
        return advisor, [
            (
                advisor.advise(list(context), max_answers=None),
                advisor.advise(list(context), max_answers=None, mode="interactive"),
            )
            for context in _CONTEXTS
        ]

    def test_interactive_advice_makes_every_exact_composition(self, runs):
        _, pairs = runs
        wanted = sum(len(_compositions(exact)) for exact, _ in pairs)
        assert wanted == 18  # the advisor does compose on this workload
        for exact, interactive in pairs:
            assert interactive.approximate is True
            assert _compositions(interactive) == _compositions(exact), (
                f"on {exact.context.to_sdl()}"
            )

    def test_composed_cells_within_the_advice_bound(self, runs):
        advisor, pairs = runs
        cells = 0
        for _, interactive in pairs:
            assert 0.0 < interactive.error_bound < 0.04
            for answer in interactive.answers:
                if len(answer.attributes) < 2:
                    continue
                for segment in answer.segmentation.segments:
                    error = abs(advisor.count(segment.query) - segment.count)
                    assert error <= _ROWS * interactive.error_bound + 0.5
                    cells += 1
        assert cells >= 60


#: Extra backend parameters composed with ``sample=`` (and mirrored
#: without it for the plain baseline): the refinement contract must hold
#: whatever indexes or partitioning ride underneath the view.
_GRID = ("", "index=all", "index=all&partitions=3")


def _specs(base: str):
    """(sampled, plain) backends over a table, as builders."""
    sampled = "memory?sample=0.5&seed=3" + (f"&{base}" if base else "")
    plain_spec = "memory" + (f"?{base}" if base else "")
    return (
        lambda table: open_backend(sampled, table),
        lambda table: open_backend(plain_spec, table),
    )


def _answers_text(advice) -> str:
    return dumps({"context": advice.context, "answers": advice.answers})


def _wire_bytes(advice) -> str:
    """The advice's wire text with the one wall-clock field zeroed.

    ``runtime_seconds`` is a measured duration — the only advice field
    that is not a pure function of the data and configuration.
    """
    trace = dataclasses.replace(advice.trace, runtime_seconds=0.0)
    return dumps(dataclasses.replace(advice, trace=trace))


class TestRefinementIdentity:
    @pytest.mark.parametrize("base", _GRID)
    def test_refined_advice_is_byte_identical_to_plain(self, base):
        sampled_spec, plain_spec = _specs(base)
        context = ["type_of_boat", "tonnage", "departure_harbour"]
        session = ExplorationSession(
            Charles(sampled_spec(generate_voc(rows=300, seed=7))),
            max_answers=5,
        )
        first = session.start(context, mode="interactive")
        assert first.approximate is True
        refined = session.refine()
        assert refined.approximate is False and refined.error_bound is None
        plain = Charles(plain_spec(generate_voc(rows=300, seed=7))).advise(
            context, max_answers=5
        )
        assert _wire_bytes(refined) == _wire_bytes(plain), (
            f"refinement over {base!r} diverged from a plain advise"
        )

    def test_refinement_is_idempotent_and_replaces_the_step(self):
        session = ExplorationSession(
            Charles(generate_voc(rows=200, seed=13), backend="memory?sample=0.5"),
            max_answers=4,
        )
        session.start(["type_of_boat", "tonnage"], mode="interactive")
        refined = session.refine()
        assert session.advise() is refined  # the step now serves exact advice
        assert session.refine() is refined  # and refining again is a no-op

    def test_a_sampled_advisor_refines_without_being_asked_interactive(self):
        # sample= makes the view the default: the advice is flagged, no
        # thread is started, and refine() computes on the calling thread.
        session = ExplorationSession(
            Charles(generate_voc(rows=200, seed=13), backend="memory?sample=0.5"),
            max_answers=4,
        )
        threads = threading.active_count()
        first = session.start(["type_of_boat", "tonnage"])
        assert first.approximate is True
        assert threading.active_count() == threads
        assert session.refine().approximate is False


class TestWireRefinement:
    """The wire ``advise``/``refine`` ops reach the same view."""

    _CONTEXT = ["type_of_boat", "tonnage", "departure_harbour"]

    @staticmethod
    def _call(service, op, **params):
        response = service.submit(Request(op=op, session="s", params=params))
        assert response.ok, response.error
        return response.result

    @pytest.mark.parametrize("spec", ["memory", "memory?index=all&partitions=3", "sqlite"])
    def test_interactive_then_refine_is_byte_identical_to_plain(self, spec):
        table = generate_voc(rows=2600, seed=7)
        service = AdvisorService(table, batch_window=0.0, backend=spec)
        self._call(service, "open_session")
        first = self._call(service, "advise", context=self._CONTEXT, mode="interactive")
        assert first.approximate is True
        assert 0.0 < first.error_bound < 0.02
        refined = self._call(service, "refine")
        assert refined.approximate is False and refined.error_bound is None
        plain_service = AdvisorService(table, batch_window=0.0, backend=spec)
        self._call(plain_service, "open_session")
        plain = self._call(plain_service, "advise", context=self._CONTEXT)
        assert _wire_bytes(refined) == _wire_bytes(plain)

    @pytest.mark.parametrize("scheme", ["memory", "sqlite"])
    def test_a_sampled_spec_serves_the_view_unless_asked_exact(self, scheme):
        table = generate_voc(rows=600, seed=7)
        service = AdvisorService(
            table, batch_window=0.0, backend=f"{scheme}?sample=0.5&seed=3"
        )
        self._call(service, "open_session")
        default = self._call(service, "advise", context=self._CONTEXT)
        assert default.approximate is True and default.error_bound > 0.0
        # mode: null is the default; "exact" is cached apart from it.
        exact = self._call(service, "advise", context=self._CONTEXT, mode="exact")
        assert exact.approximate is False
        assert self._call(service, "advise", context=self._CONTEXT, mode=None).approximate
        refined = self._call(service, "refine")
        plain = Charles(table, backend=scheme).advise(self._CONTEXT, max_answers=10)
        assert refined.approximate is False
        assert _answers_text(refined) == _answers_text(exact) == _answers_text(plain)


class TestTrafficAccounting:
    def test_interactive_advise_never_touches_the_exact_engine(self):
        advisor = Charles(generate_voc(rows=300, seed=11))
        exact_engine = advisor.engine
        counters_before = exact_engine.counter.snapshot()
        cache_before = exact_engine.cache.stats().snapshot()
        advice = advisor.advise(["type_of_boat", "tonnage"], max_answers=4,
                                mode="interactive")
        assert advice.approximate is True
        assert exact_engine.counter.snapshot() == counters_before
        assert exact_engine.cache.stats().snapshot() == cache_before

    def test_view_traffic_lands_on_the_advice_counters(self):
        advisor = Charles(generate_voc(rows=300, seed=11))
        exact = advisor.advise(["type_of_boat", "tonnage"], max_answers=4)
        interactive = advisor.advise(["type_of_boat", "tonnage"], max_answers=4,
                                     mode="interactive")
        # Both paths scan — the exact engine its table, the view its
        # sample — and each advice reports the scans of its own run.
        assert exact.engine_operations.get("evaluations", 0) > 0
        assert interactive.engine_operations.get("evaluations", 0) > 0
        assert interactive.engine_operations.get("count_calls", 0) > 0


class TestSampledAdvisors:
    def test_sample_fraction_advice_is_stamped_with_a_finite_bound(self, voc):
        advice = Charles(voc, backend="memory?sample=0.1").advise(["type_of_boat", "tonnage"])
        assert advice.approximate is True
        assert math.isfinite(advice.error_bound) and 0.0 < advice.error_bound < 0.06

    def test_advisors_at_the_same_data_version_serve_byte_equal_advice(self, voc):
        context = ["type_of_boat", "tonnage", "departure_harbour"]
        first = Charles(voc).advise(context, mode="interactive")
        second = Charles(voc).advise(context, mode="interactive")
        assert _wire_bytes(first) == _wire_bytes(second)
