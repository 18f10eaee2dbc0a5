"""End-to-end advice parity across the full execution grid.

The same VOC workload, advised by Charles over: the plain memory
backend, the fully indexed memory backend, a partitioned indexed backend
and SQLite.  The ranked segmentations
(queries, counts, scores, trace) must be identical — and must *stay*
identical after a live ingest and a predicate delete flow through every
backend, proving no superseded zone map or bitmap can leak a stale answer
into advice.
"""

from __future__ import annotations

import pytest

from repro.backends import open_backend
from repro.core import Charles
from repro.storage import QueryEngine
from repro.workloads import generate_voc

#: label -> the backend over a table.
_SPECS = {
    "memory": lambda table: open_backend("memory", table),
    "memory?index=all": lambda table: open_backend("memory?index=all", table),
    "memory?index=zonemap,maskreuse&partitions=4": lambda table: QueryEngine(
        table, use_index="zonemap,maskreuse", partitions=4
    ),
    "sqlite": lambda table: open_backend("sqlite", table),
}

_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage", "built"]


def _fingerprint(advice):
    return [
        (
            answer.rank,
            answer.segmentation.cut_attributes,
            tuple(
                (segment.query.to_sdl(), segment.count)
                for segment in answer.segmentation.segments
            ),
            round(answer.score, 12),
        )
        for answer in advice.answers
    ]


@pytest.fixture(scope="module")
def advisors():
    # Each backend owns its own (identical) copy so mutations replay
    # independently on every member of the grid.
    return {
        spec: Charles(backend(generate_voc(rows=400, seed=3)))
        for spec, backend in _SPECS.items()
    }


@pytest.fixture(scope="module")
def ingest_rows():
    return list(generate_voc(rows=40, seed=99).iter_rows())


def _assert_grid_agrees(advisors, label):
    fingerprints = {
        spec: _fingerprint(advisor.advise(_CONTEXT, max_answers=6))
        for spec, advisor in advisors.items()
    }
    baseline = fingerprints["memory"]
    assert baseline, f"{label}: the plain backend produced no advice"
    for spec, fingerprint in fingerprints.items():
        assert fingerprint == baseline, f"{label}: {spec!r} diverged from plain memory"


def test_advice_identical_across_grid_and_mutations(advisors, ingest_rows):
    _assert_grid_agrees(advisors, "initial")

    # Live ingest: every backend absorbs the same batch; indexes keyed to
    # the superseded version must vanish with it.
    for advisor in advisors.values():
        advisor.ingest(ingest_rows)
    _assert_grid_agrees(advisors, "after ingest")

    # Predicate delete: shrinks the data, shifting zone-map bounds — a
    # stale map could now wrongly skip (or admit) shards.
    for advisor in advisors.values():
        deleted = advisor.delete_where("tonnage >= 3200")
        assert deleted > 0
    _assert_grid_agrees(advisors, "after delete")


def test_drilldown_identical_across_grid(advisors):
    from repro.core import ExplorationSession

    paths = {}
    for spec, advisor in advisors.items():
        session = ExplorationSession(advisor, max_answers=5)
        session.start(["type_of_boat", "tonnage"])
        advice = session.drill(0, 0)
        paths[spec] = (_fingerprint(advice), session.breadcrumbs())
    baseline = paths["memory"]
    for spec, path in paths.items():
        assert path == baseline, f"drill-down diverged on {spec!r}"
