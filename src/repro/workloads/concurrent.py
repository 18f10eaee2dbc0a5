"""Multi-user exploration scenarios for the advisor service.

The service layer (and benchmark E12) needs reproducible workloads in
which *several users* explore the same table at once.  Real exploration
traffic is skewed: most users start from a handful of popular contexts and
many follow the same few drill paths (dashboards, shared links, tutorials)
— which is exactly the structure that makes the advisor cacheable across
users.  :func:`generate_concurrent_workload` models that skew with two
knobs: a small pool of *hot contexts* and a bounded number of *distinct
drill paths* shared round-robin among the users.

The scripts are plain data (no engine references), so the same workload
can be replayed against an :class:`~repro.service.AdvisorService` — by
:func:`serve`, through the service's public session methods — and against
independent per-user advisors to compare throughput.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import AdvisorError, CharlesError, WorkloadError

__all__ = ["generate_concurrent_workload", "serve"]


@dataclass(frozen=True)
class UserAction:
    """One step of a user script.

    ``op`` is ``advise`` (start/restart at ``context``), ``drill`` (pick
    ``answer``/``segment``, interpreted modulo the available choices at
    replay time) or ``back`` (pop one level).
    """

    op: str
    context: Optional[Tuple[str, ...]] = None
    answer: int = 0
    segment: int = 0


@dataclass(frozen=True)
class UserScript:
    """The full request sequence of one simulated user."""

    user: str
    actions: Tuple[UserAction, ...]

    @property
    def num_requests(self) -> int:
        return len(self.actions)


def generate_concurrent_workload(
    columns: Sequence[str],
    users: int = 4,
    steps: int = 4,
    seed: int = 0,
    hot_contexts: int = 2,
    context_width: int = 3,
    distinct_paths: Optional[int] = None,
    back_probability: float = 0.25,
) -> List[UserScript]:
    """Seeded scripts for ``users`` simulated users over one table.

    Parameters
    ----------
    columns:
        Column names of the table to explore.
    users:
        Number of simulated users (one script each).
    steps:
        Drill/back actions per user after the initial advise.
    seed:
        Makes the workload fully reproducible.
    hot_contexts:
        Size of the popular-context pool users start from.
    context_width:
        Attributes per starting context.
    distinct_paths:
        Number of unique (context, drill-path) combinations; users beyond
        that repeat earlier paths round-robin (the cache-friendly skew of
        real traffic).  ``None`` gives every user their own path.
    back_probability:
        Chance a step goes back up instead of drilling deeper.
    """
    if users <= 0:
        raise WorkloadError(f"users must be positive, got {users}")
    if steps < 0:
        raise WorkloadError(f"steps must be non-negative, got {steps}")
    if not columns:
        raise WorkloadError("the workload needs at least one column")
    rng = random.Random(seed)
    width = min(context_width, len(columns))
    pool = [
        tuple(sorted(rng.sample(list(columns), width)))
        for _ in range(max(1, hot_contexts))
    ]

    unique = users if distinct_paths is None else max(1, min(distinct_paths, users))
    paths: List[Tuple[UserAction, ...]] = []
    for path_index in range(unique):
        context = pool[path_index % len(pool)]
        actions: List[UserAction] = [UserAction("advise", context=context)]
        depth = 0
        for _ in range(steps):
            if depth > 0 and rng.random() < back_probability:
                actions.append(UserAction("back"))
                depth -= 1
            else:
                actions.append(
                    UserAction(
                        "drill",
                        answer=rng.randrange(0, 8),
                        segment=rng.randrange(0, 12),
                    )
                )
                depth += 1
        paths.append(tuple(actions))

    return [
        UserScript(user=f"user-{index:02d}", actions=paths[index % len(paths)])
        for index in range(users)
    ]


@dataclass
class ServiceReport:
    """Summary of one :func:`serve` run."""

    users: int
    requests: int
    wall_seconds: float
    errors: List[str] = field(default_factory=list)
    table_stats: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Aggregate requests per second across all simulated users."""
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def describe(self) -> str:
        lines = [
            f"served {self.requests} request(s) from {self.users} user(s) "
            f"in {self.wall_seconds:.3f}s — {self.throughput:.1f} req/s"
        ]
        for table, stats in self.table_stats.items():
            results = stats["result_cache"]
            advice = stats["advice_cache"]
            batching = stats["batching"]
            lines.append(
                f"  table {table!r}: result cache hit rate {results['hit_rate']:.1%} "
                f"({results['entries']} entries, {results['approx_bytes']} bytes), "
                f"advice cache hit rate {advice['hit_rate']:.1%}"
            )
            lines.append(
                f"    batching: {batching['passes']} pass(es) for "
                f"{batching['queries']} queries "
                f"({batching['unique_queries']} unique after dedup)"
            )
        if self.errors:
            lines.append(f"  {len(self.errors)} request error(s); first: {self.errors[0]}")
        return "\n".join(lines)


def serve(
    service: Any,
    scripts: Sequence[UserScript],
    workers: int = 1,
    table: Optional[str] = None,
) -> ServiceReport:
    """Replay a multi-user workload against a service; report throughput.

    Parameters
    ----------
    service:
        An :class:`~repro.service.AdvisorService`; only its public
        ``open_session`` / ``advise`` / ``drill`` / ``back`` / ``stats``
        methods are used.
    scripts:
        One :class:`UserScript` per simulated user.
    workers:
        Thread count; ``1`` executes users sequentially (deterministic),
        more lets sessions run — and batch — concurrently.
    table:
        Table to serve when several are registered.
    """
    errors: List[str] = []
    errors_lock = threading.Lock()

    def run_script(script: UserScript) -> int:
        try:
            session = service.open_session(script.user, table=table, replace=True)
        except CharlesError as error:
            with errors_lock:
                errors.append(f"{script.user}: {error}")
            return 0
        executed = 0
        for action in script.actions:
            try:
                if action.op == "advise":
                    context = list(action.context) if action.context else None
                    service.advise(script.user, context)
                elif action.op == "drill":
                    advice = session.current_advice()
                    if advice is None or not advice.answers:
                        continue
                    answer_index = action.answer % len(advice.answers)
                    segmentation = advice.answers[answer_index].segmentation
                    segment_index = action.segment % segmentation.depth
                    service.drill(script.user, answer_index, segment_index)
                elif action.op == "back":
                    if session.depth > 0:
                        service.back(script.user)
                else:
                    raise AdvisorError(f"unknown workload action {action.op!r}")
                executed += 1
            except CharlesError as error:
                with errors_lock:
                    errors.append(f"{script.user}: {error}")
        return executed

    started = time.perf_counter()
    if workers <= 1:
        requests = sum(run_script(script) for script in scripts)
    else:
        with ThreadPoolExecutor(max_workers=workers) as executor:
            requests = sum(executor.map(run_script, scripts))
    return ServiceReport(
        users=len(scripts),
        requests=requests,
        wall_seconds=time.perf_counter() - started,
        errors=errors,
        table_stats=service.stats()["tables"],
    )
