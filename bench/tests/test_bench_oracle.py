"""The oracle accepts right answers and flags a corrupted one."""

import dataclasses

from repro.api.protocol import Response
from repro.core.advisor import Charles
from repro.workloads import generate_voc

from bench import oracle
from bench.runner import Check, Client
from bench.scripts import CountPredicate
from bench.workloads import workload

CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]


def _table_and_batches():
    table = generate_voc(rows=600, seed=5)
    extra = generate_voc(rows=80, seed=6)
    rows = [extra.row(index) for index in range(extra.num_rows)]
    return table, [rows[:40], rows[40:]]


def test_right_answers_pass_at_every_version():
    table, batches = _table_and_batches()
    grown = table.append_rows(batches[0]).append_rows(batches[1])
    first = Charles(table).advise(CONTEXT)
    drilled = first.answers[0].segmentation.segments[0].query
    checks = [
        Check("advise", 0, CONTEXT, first, "advise"),
        Check("drill", 0, drilled, Charles(table).advise(drilled), "drill"),
        Check("refresh", 2, CONTEXT, Charles(grown).advise(CONTEXT), "refresh"),
    ]
    assert oracle.check_advice(table, batches, checks) == []


def test_a_corrupted_response_is_flagged_with_its_request():
    table, batches = _table_and_batches()
    good = Charles(table).advise(CONTEXT)
    corrupted = dataclasses.replace(good, answers=list(reversed(good.answers)))
    problems = oracle.check_advice(
        table, batches, [Check("advise", 0, CONTEXT, corrupted, "advise u0-1 {...}")]
    )
    assert len(problems) == 1 and "advise u0-1" in problems[0]


def test_an_answer_from_a_stale_version_is_flagged():
    table, batches = _table_and_batches()
    stale = Charles(table).advise(CONTEXT)  # computed before the ingests
    problems = oracle.check_advice(
        table, batches, [Check("refresh", 2, CONTEXT, stale, "refresh live0-0")]
    )
    assert len(problems) == 1


def test_an_answer_about_another_context_is_flagged():
    table, batches = _table_and_batches()
    other = Charles(table).advise(["tonnage", "built"])
    assert oracle.check_advice(
        table, batches, [Check("advise", 0, CONTEXT, other, "advise")]
    )


def test_counts_are_checked_against_numpy_at_the_version_they_saw():
    table, batches = _table_and_batches()
    predicate = CountPredicate("tonnage", 1200, 2400)
    before = Charles(table).count(predicate.text)
    after = Charles(table.append_rows(batches[0])).count(predicate.text)
    assert 0 < before < after < table.num_rows
    assert oracle.check_counts(
        table, batches, [(predicate, before, 0), (predicate, after, 1)]
    ) == []
    problems = oracle.check_counts(table, batches, [(predicate, before, 1)])
    assert len(problems) == 1 and predicate.text in problems[0]


def test_advice_flagged_degraded_is_a_failed_request():
    table, _ = _table_and_batches()
    fresh = Charles(table).advise(CONTEXT)
    replies = iter([fresh, dataclasses.replace(fresh, degraded=True)])
    client = Client(
        0, workload("cluster_routed", smoke=True),
        lambda request: Response(True, request.op, result=next(replies)), seed=1,
    )
    assert client.advice("advise", "advise", "u0", CONTEXT, None, context=CONTEXT) is fresh
    assert client.advice("advise", "advise", "u1", CONTEXT, None, context=CONTEXT) is None
    assert (client.attempted, client.failed) == (2, 1)
    assert "degraded" in client.failures[0] and "u1" in client.failures[0]
