"""The oracle: are the answers the program gave the right ones?

Run after the measured phase, never inside it.  Three checks:

* every sampled advice (advise, drill, back, refresh, refine) must equal,
  as canonical wire text of its context and answers, what a plain
  ``Charles`` over the same table version says for the same context —
  the repo's byte-parity invariant for the service, HTTP, cluster,
  refresh-after-ingest and refine paths;
* every ``count`` must equal a NumPy count over the generated table;
* (in phase, by the client) interactive advice must be flagged
  approximate with a finite error bound, and no advice may be flagged
  ``degraded``.

The table at "version k" is rebuilt here from the generated inputs —
the served rows plus the first k acknowledged ingest batches — not read
back from the system under test.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.api.codec import dumps
from repro.core.advisor import Advice, Charles
from repro.storage.table import Table

from bench.runner import Check
from bench.scripts import CountPredicate

__all__ = ["answers_text", "check_advice", "check_counts"]


def answers_text(advice: Advice) -> str:
    """Canonical wire text of what the analyst sees (timings excluded)."""
    return dumps({"context": advice.context, "answers": advice.answers})


def _grown(
    base: Table, batches: Sequence[List[Dict[str, Any]]], versions: Sequence[int]
) -> Iterator[Tuple[int, Table]]:
    """``(k, served rows + first k batches)`` for each wanted ``k``, ascending."""
    table, held = base, 0
    for wanted in sorted(set(versions)):
        for batch in batches[held:wanted]:
            table = table.append_rows(batch)
        held = max(held, wanted)
        yield wanted, table


def check_counts(
    base: Table,
    batches: Sequence[List[Dict[str, Any]]],
    counts: Sequence[Tuple[CountPredicate, Any, int]],
) -> List[str]:
    """Mismatches between the ``count`` replies and NumPy.

    Each entry is ``(predicate, reply, k)``; the reply is judged against
    the served rows plus the first ``k`` acknowledged batches.
    """
    rows = [base.num_rows]
    for batch in batches:
        rows.append(rows[-1] + len(batch))
    columns: Dict[str, np.ndarray] = {}
    problems = []
    for predicate, reply, applied in counts:
        values = columns.get(predicate.attribute)
        if values is None:
            # The column at the final version; version k is a prefix of it.
            values = np.asarray(
                base.column(predicate.attribute).values_list()
                + [row[predicate.attribute] for batch in batches for row in batch]
            )
            columns[predicate.attribute] = values
        seen = values[: rows[applied]]
        expected = int(((seen >= predicate.low) & (seen <= predicate.high)).sum())
        if reply != expected:
            problems.append(
                f"count {predicate.text} answered {reply!r}, NumPy says {expected} "
                f"(after {applied} ingests)"
            )
    return problems


def check_advice(
    base: Table,
    batches: Sequence[List[Dict[str, Any]]],
    checks: Sequence[Check],
) -> List[str]:
    """Mismatches between sampled advice and a plain ``Charles``.

    ``batches`` are the acknowledged ingest batches in the order they
    were applied; a check made after ``k`` of them is judged against the
    served rows plus the first ``k``.
    """
    problems = []
    for applied, table in _grown(base, batches, [check.applied for check in checks]):
        advisor = Charles(table)
        for check in checks:
            if check.applied != applied:
                continue
            expected = advisor.advise(check.expected)
            if answers_text(check.advice) != answers_text(expected):
                problems.append(
                    f"{check.kind} reply differs from a plain Charles over the same "
                    f"{table.num_rows} rows — request {check.request}"
                )
    return problems
