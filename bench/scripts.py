"""Seeded request scripts: what the simulated analysts ask for.

Everything here is a pure function of its arguments — no engine, no
table, no clock — so the same ``--seed`` replays the same requests on
every commit, and a change under ``src/`` cannot alter the load.  The
generator is the benchmark's own (it mirrors
``repro.workloads.concurrent.generate_concurrent_workload`` in spirit
only): the program receives nothing but the generated inputs.

A *user* is one pass through the paper's Figure 1 loop: open a session,
advise on a context, then a fixed number of drill/back steps with an
ad-hoc ``count`` after every third step, then close.  Drill indices are
raw draws, reduced modulo the choices available when the step is
replayed (the script cannot know how many answers an advice will have).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "COLUMNS",
    "CONTEXTS",
    "HOT_CONTEXTS",
    "LIVE_CONTEXTS",
    "WARMUP_CONTEXTS",
    "CountPredicate",
    "Step",
    "User",
    "count_predicates",
    "live_session_contexts",
    "shared_paths",
    "user_stream",
]

#: The VOC attributes an analyst explores.  ``trip`` is left out on
#: purpose: it is a row identifier (one distinct value per row), a
#: context containing it costs 20-100x more than any other, and how many
#: such contexts a seed happened to draw would decide every percentile.
COLUMNS: Tuple[str, ...] = (
    "master",
    "tonnage",
    "type_of_boat",
    "built",
    "yard",
    "departure_date",
    "departure_harbour",
    "cape_arrival",
)

#: Every 3-attribute context over :data:`COLUMNS` (56 of them).
CONTEXTS: Tuple[Tuple[str, ...], ...] = tuple(itertools.combinations(COLUMNS, 3))

#: The popular contexts of the shared workloads (dashboards, shared
#: links).  Fixed rather than drawn: which contexts are hot decides the
#: response sizes, so a seeded choice would make two seeds two workloads.
#: The first is the paper's Figure 1 context.
HOT_CONTEXTS: Tuple[Tuple[str, ...], ...] = (
    ("type_of_boat", "departure_harbour", "tonnage"),
    ("tonnage", "built", "departure_date"),
    ("type_of_boat", "yard", "departure_harbour"),
    ("master", "tonnage", "type_of_boat"),
)

#: Contexts of the long-lived sessions the live rounds refresh.
LIVE_CONTEXTS: Tuple[Tuple[str, ...], ...] = (
    ("tonnage", "type_of_boat", "departure_date"),
    ("built", "yard", "departure_harbour"),
    ("tonnage", "departure_harbour", "cape_arrival"),
    ("type_of_boat", "built", "cape_arrival"),
    ("yard", "departure_date", "departure_harbour"),
    ("tonnage", "type_of_boat", "yard"),
)

#: Two-attribute contexts of the unmeasured warm-up pass — outside every
#: measured script, whose contexts all have three attributes.
WARMUP_CONTEXTS: Tuple[Tuple[str, ...], ...] = (
    ("tonnage", "type_of_boat"),
    ("built", "departure_harbour"),
    ("yard", "cape_arrival"),
)

#: Closed value ranges of the numeric attributes ``count`` predicates use.
_NUMERIC_DOMAINS = (
    ("tonnage", 1000, 5000),
    ("built", 1580, 1780),
    ("departure_date", 1600, 1780),
    ("cape_arrival", 1600, 1781),
)


@dataclass(frozen=True)
class CountPredicate:
    """One ad-hoc ``count`` request: a closed range over one attribute."""

    attribute: str
    low: int
    high: int

    @property
    def text(self) -> str:
        """The SDL text sent over the wire."""
        return f"({self.attribute}: [{self.low}, {self.high}])"


@dataclass(frozen=True)
class Step:
    """One scripted step after the initial advise.

    ``kind`` is ``drill`` (``answer``/``segment`` are raw draws, reduced
    modulo the available choices at replay time), ``back`` or ``count``
    (``predicate`` indexes the seeded predicate table).
    """

    kind: str
    answer: int = 0
    segment: int = 0
    predicate: int = 0


@dataclass(frozen=True)
class User:
    """The full request sequence of one simulated analyst."""

    name: str
    context: Tuple[str, ...]
    steps: Tuple[Step, ...]


def _rng(*key: object) -> random.Random:
    # String seeds hash through SHA-512: stable across interpreters and
    # runs, unlike hash().
    return random.Random(":".join(str(part) for part in key))


def count_predicates(seed: int, size: int = 256) -> List[CountPredicate]:
    """The seeded table of range predicates the ``count`` steps draw from."""
    rng = _rng("counts", seed)
    predicates = []
    for _ in range(size):
        attribute, low, high = _NUMERIC_DOMAINS[rng.randrange(len(_NUMERIC_DOMAINS))]
        first, second = rng.randint(low, high), rng.randint(low, high)
        predicates.append(CountPredicate(attribute, min(first, second), max(first, second)))
    return predicates


def _path(rng: random.Random, steps: int, predicates: int) -> Tuple[Step, ...]:
    """Drill/back steps with a ``count`` after every third one."""
    path: List[Step] = []
    depth = 0
    for index in range(steps):
        if depth > 0 and rng.random() < 0.25:
            path.append(Step("back"))
            depth -= 1
        else:
            path.append(
                Step("drill", answer=rng.randrange(8), segment=rng.randrange(12))
            )
            depth += 1
        if index % 3 == 2:
            path.append(Step("count", predicate=rng.randrange(predicates)))
    return tuple(path)


def _own_paths(
    rng: random.Random, client: int, steps: int, predicates: int
) -> Iterator[User]:
    for number in itertools.count():
        deck = list(CONTEXTS)
        rng.shuffle(deck)
        for offset, context in enumerate(deck):
            yield User(
                name=f"u{client}-{number * len(deck) + offset}",
                context=context,
                steps=_path(rng, steps, predicates),
            )


def _shared_paths(
    rng: random.Random, client: int, paths: Sequence[Tuple[Tuple[str, ...], Tuple[Step, ...]]]
) -> Iterator[User]:
    for number in itertools.count():
        context, path = paths[rng.randrange(len(paths))]
        yield User(name=f"u{client}-{number}", context=context, steps=path)


def shared_paths(
    seed: int,
    workload: str,
    hot_contexts: int,
    distinct_paths: int,
    steps: int = 8,
    predicates: int = 256,
) -> List[Tuple[Tuple[str, ...], Tuple[Step, ...]]]:
    """The ``(context, steps)`` paths the users of a shared workload follow."""
    pool = HOT_CONTEXTS[: max(1, hot_contexts)]
    rng = _rng("paths", workload, seed)
    return [
        (pool[index % len(pool)], _path(rng, steps, predicates))
        for index in range(max(1, distinct_paths))
    ]


def user_stream(
    seed: int,
    workload: str,
    client: int,
    clients: int = 1,
    steps: int = 8,
    hot_contexts: Optional[int] = None,
    distinct_paths: Optional[int] = None,
    predicates: int = 256,
) -> Iterator[User]:
    """An endless, seeded stream of users for one client connection.

    With ``hot_contexts=None`` every user explores its own context and
    path: contexts are dealt from seeded shuffles of all of
    :data:`CONTEXTS`, one full shuffle after another, so any long enough
    prefix holds the same mix of cheap and costly contexts whatever the
    seed.  Otherwise users share ``distinct_paths`` scripted paths over
    the first ``hot_contexts`` of :data:`HOT_CONTEXTS`, handed out in a
    seeded order — the cache-friendly skew of dashboard traffic.
    """
    if hot_contexts is None:
        return _own_paths(_rng("cold", workload, seed, client), client, steps, predicates)
    paths = shared_paths(seed, workload, hot_contexts, distinct_paths or 1, steps, predicates)
    return _shared_paths(_rng("order", workload, seed, client, clients), client, paths)


def live_session_contexts(client: int, count: int) -> Sequence[Tuple[str, ...]]:
    """Contexts of one client's long-lived sessions (rotated per client)."""
    return [LIVE_CONTEXTS[(client * count + index) % len(LIVE_CONTEXTS)] for index in range(count)]
