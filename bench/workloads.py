"""The four workloads: what each deploys, replays and why.

Sizes are pinned here (``BENCHMARK.json`` admits only a name and a
reason per workload).  Each workload replays one traffic shape for the
whole measured phase — users running the Figure 1 loop, live rounds on
long-lived sessions, or (``cluster_routed``) users with a live round
after every few of them.

All sizes were measured on a 2-core box.  Tables are always generated
from seed 42 (``--seed`` varies the requests, not the data), so the
data's statistical structure — and with it the cost of an advise — is
the same on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

__all__ = ["TABLE_SEED", "WORKLOADS", "Workload", "workload"]

#: Seed of every generated table (the served one and the ingest pool).
TABLE_SEED = 42


@dataclass(frozen=True)
class Workload:
    """One workload's deployment and traffic.

    Attributes
    ----------
    system:
        ``inprocess`` (an ``AdvisorService`` in the benchmark process),
        ``http`` (one ``repro.cli serve --http`` subprocess) or
        ``cluster`` (one ``repro.cli cluster serve`` subprocess tree).
    rows:
        Rows of the served table when the measured phase starts.
    backend:
        Backend spec of the in-process service (the subprocess systems
        run an operator's defaults).
    clients:
        Closed-loop client threads, each with its own connection.
    hot_contexts, distinct_paths:
        ``None`` gives every user its own context and path; otherwise
        users share that many hot contexts and scripted paths.
    users_per_round:
        Users each client runs between two live rounds: ``None`` means
        users only (no live round ever), 0 means live rounds only.
    ingest_batch, ingest_pool:
        Rows per ``ingest`` request, and rows generated for ingestion
        (reused from the start if a fast system exhausts them).
    refresh_sessions, interactive_sessions:
        Long-lived sessions *per client* that each live round refreshes
        exactly, and refreshes interactively then refines.
    rss_rounds:
        Live rounds after which ``peak_rss_mb`` is read.  Ingested data
        stays in memory, so a time-bounded phase on a faster machine
        would otherwise report more memory for the same program.
    work:
        The fixed script prefix the ``--trace 1`` run replays with tracing
        off (users per client, or live rounds when there are no users),
        so that two runs of one seed do exactly the same work and their
        counts compare exactly; its traced phase replays a quarter of it.
    oracle_every:
        Every Nth advice-bearing reply of a client's users is kept for
        the byte-parity check against a plain ``Charles`` (live rounds
        keep every fifth).
    """

    name: str
    why: str
    system: str
    rows: int
    backend: str = "memory"
    clients: int = 1
    hot_contexts: Optional[int] = None
    distinct_paths: Optional[int] = None
    users_per_round: Optional[int] = None
    ingest_batch: int = 100
    ingest_pool: int = 0
    refresh_sessions: int = 0
    interactive_sessions: int = 0
    rss_rounds: Optional[int] = None
    work: int = 100
    oracle_every: int = 60

    @property
    def traced_work(self) -> int:
        """The prefix of ``work`` the traced phase replays (whole rounds)."""
        return max(self.users_per_round or 1, self.work // 4)

    def smoke(self) -> "Workload":
        """The same traffic over a table of a few hundred rows."""
        return replace(
            self,
            rows=400,
            ingest_pool=min(self.ingest_pool, 400),
            ingest_batch=min(self.ingest_batch, 20),
            work=max(self.users_per_round or 1, 4),
            oracle_every=5,
        )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="explore_cold",
        why=(
            "in-process, 1 client, every user its own context and path: nothing is shared, "
            "the result cache overflows, so storage.engine, storage.cache and core.hbcuts do "
            "the work and api/cluster none"
        ),
        system="inprocess",
        rows=10_000,
        work=224,
    ),
    Workload(
        name="explore_shared_http",
        why=(
            "one HTTP server, 2 clients, 2 hot contexts and 4 paths on a tiny table: "
            "almost every step hits the advice cache, so time goes to api.codec, "
            "api.server/client, dispatcher and service batching"
        ),
        system="http",
        rows=5_000,
        clients=2,
        hot_contexts=2,
        distinct_paths=4,
        work=160,
        oracle_every=400,
    ),
    Workload(
        name="live_ingest",
        why=(
            "in-process, index+partition spec, rounds of ingest/refresh/interactive "
            "advise/refine: version-keyed zone maps, bitmaps, sketches and caches die with "
            "every ingest: read, write and memory cost trade off"
        ),
        system="inprocess",
        rows=12_000,
        backend="memory?index=zonemap,bitmap,maskreuse&partitions=8",
        users_per_round=0,
        ingest_batch=250,
        ingest_pool=6_000,
        refresh_sessions=4,
        interactive_sessions=2,
        rss_rounds=40,
        work=32,
    ),
    Workload(
        name="cluster_routed",
        why=(
            "2 nodes behind the router, 2 clients, 4 hot contexts and paths, an ingest and a "
            "refresh per ~220 requests: two HTTP hops, two codecs, the router's journal and "
            "locks, ingests on the broadcast path"
        ),
        system="cluster",
        rows=10_000,
        clients=2,
        hot_contexts=4,
        distinct_paths=4,
        users_per_round=8,
        ingest_batch=100,
        ingest_pool=3_000,
        refresh_sessions=1,
        rss_rounds=10,
        work=112,
        oracle_every=300,
    ),
)

_BY_NAME: Dict[str, Workload] = {entry.name: entry for entry in WORKLOADS}


def workload(name: str, smoke: bool = False) -> Workload:
    """Look a workload up by name (``smoke`` shrinks its tables)."""
    try:
        found = _BY_NAME[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; known: {', '.join(_BY_NAME)}"
        ) from None
    return found.smoke() if smoke else found
