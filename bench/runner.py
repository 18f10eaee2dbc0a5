"""Closed-loop clients: replaying the scripts and timing every request.

Analysts wait for each answer before asking the next question, so the
load model is a closed loop: each :class:`Client` owns one connection
and issues its next request only when the previous reply has arrived.
A :class:`Run` drives ``spec.clients`` of them (one thread each, at most
``nproc``) through the measured phase and keeps their samples.

Nothing is verified inside the timed region: a client only keeps a
reference to every Nth reply, and :mod:`bench.oracle` checks those after
the phase (and after peak memory has been read).
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api.protocol import Request, Response
from repro.core.advisor import Advice

from bench import scripts
from bench.spans import Tracer
from bench.systems import System, peak_rss_mb
from bench.workloads import Workload

__all__ = ["ENGINE_TALLIES", "Check", "Client", "Run"]

#: Oracle samples kept per client; past it the client stops sampling.
_MAX_CHECKS = 48
#: Every Nth advice of the live rounds is sampled (there are few of them).
_LIVE_EVERY = 5
#: The engine operation tallies summed into the count metrics.
ENGINE_TALLIES = (
    "evaluations",
    "count_calls",
    "median_calls",
    "batch_calls",
    "skipped_partitions",
    "total_database_operations",
)


@dataclass
class Check:
    """One reply kept for the oracle.

    ``applied`` is how many ingest batches the table held when the reply
    was computed.  ``expected`` is the context the reply must be about: a
    column list for a root advise, else the SDL query the session was
    standing on.
    """

    kind: str
    applied: int
    expected: Any
    advice: Advice
    request: str


class Client:
    """One closed-loop connection and everything it observed."""

    def __init__(
        self,
        index: int,
        spec: Workload,
        rpc: Callable[[Request], Response],
        seed: int,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.index = index
        self.spec = spec
        self.rpc = rpc
        self.tracer = tracer
        self.predicates = scripts.count_predicates(seed)
        self._paths = (
            []
            if spec.hot_contexts is None
            else scripts.shared_paths(
                seed, spec.name, spec.hot_contexts, spec.distinct_paths or 1,
                predicates=len(self.predicates),
            )
        )
        self.users: Iterator[scripts.User] = scripts.user_stream(
            seed,
            spec.name,
            client=index,
            clients=spec.clients,
            hot_contexts=spec.hot_contexts,
            distinct_paths=spec.distinct_paths,
            predicates=len(self.predicates),
        )
        #: Ingest batches the table holds (the run tells every client).
        self.applied = 0
        self.refresh_sessions: Dict[str, Any] = {}
        self.interactive_sessions: Dict[str, Any] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything observed so far (called after the warm-up)."""
        self.latencies: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.checks: List[Check] = []
        #: (predicate, reply, ingest batches applied) of every count.
        self.counts: List[Tuple[scripts.CountPredicate, Any, int]] = []
        self.ingested_rows = 0
        self.engine_ops: Dict[str, int] = dict.fromkeys(ENGINE_TALLIES, 0)
        self.error_bounds: List[float] = []
        self._advice_seen = 0

    # -- one request ---------------------------------------------------------

    def fail(self, reason: str) -> None:
        """Count one failed request (or failed check) and keep its story."""
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(reason)

    def call(self, kind: str, op: str, session: str = "", **params: Any) -> Any:
        """Issue one request; returns its result, or ``None`` when it failed."""
        request = Request(op=op, session=session, params=params)
        self.attempted += 1
        started = time.perf_counter()
        try:
            if self.tracer is None:
                response = self.rpc(request)
            else:
                with self.tracer.step(request.request_id, kind):
                    response = self.rpc(request)
        except Exception as exc:  # transport failure or timeout: a failed request
            self.fail(f"{_describe(kind, request)} raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - started
        if not response.ok:
            self.fail(
                f"{_describe(kind, request)} answered "
                f"[{response.error_code}] {response.error}"
            )
            return None
        self.latencies.setdefault(kind, []).append(elapsed)
        return response.result

    def advice(
        self,
        kind: str,
        op: str,
        session: str,
        expected: Any,
        every: Optional[int],
        must_answer: bool = False,
        **params: Any,
    ) -> Optional[Advice]:
        """A request answered with an advice, plus the in-phase checks.

        Every ``every``-th advice is kept for the oracle (``None`` keeps
        none) together with ``expected``, the context it must be about.
        """
        result = self.call(kind, op, session, **params)
        if result is None:
            return None
        problem = None
        if not isinstance(result, Advice):
            problem = f"answered a {type(result).__name__}, not an advice"
        elif must_answer and not result.answers:
            problem = "answered advice without answers"
        elif result.degraded:
            problem = "answered advice flagged degraded"
        if problem is not None:
            self.fail(f"{kind} {op} session={session!r} {_brief(params)} {problem}")
            return None
        self._advice_seen += 1
        if every and self._advice_seen % every == 0 and len(self.checks) < _MAX_CHECKS:
            self.checks.append(
                Check(kind, self.applied, expected, result, f"{op} {session} {_brief(params)}")
            )
        return result

    # -- users ---------------------------------------------------------------

    def run_user(self, user: scripts.User) -> None:
        """One analyst: open, advise, the scripted steps, close."""
        every = self.spec.oracle_every
        self.call("open", "open_session", user.name)
        advice = self.advice(
            "advise", "advise", user.name, list(user.context), every,
            must_answer=True, context=list(user.context),
        )
        trail: List[Advice] = []  # the advice of every level above the current one
        for step in user.steps if advice is not None else ():
            if step.kind == "count":
                predicate = self.predicates[step.predicate]
                count = self.call("count", "count", context=predicate.text)
                if count is not None:
                    self.counts.append((predicate, count, self.applied))
            elif step.kind == "drill" and advice.answers:
                answer = step.answer % len(advice.answers)
                segmentation = advice.answers[answer].segmentation
                segment = step.segment % segmentation.depth
                deeper = self.advice(
                    "drill", "drill", user.name,
                    segmentation.segments[segment].query, every,
                    answer_index=answer, segment_index=segment,
                )
                if deeper is not None:
                    trail.append(advice)
                    advice = deeper
            elif trail:
                # A scripted back, or a drill that found nothing to drill into.
                restored = self.advice(
                    "back", "back", user.name, trail[-1].context, every
                )
                if restored is not None:
                    trail.pop()
                    advice = restored
        closed = self.call("close", "close_session", user.name)
        if isinstance(closed, dict):
            operations = closed.get("engine_operations") or {}
            for tally in ENGINE_TALLIES:
                self.engine_ops[tally] += int(operations.get(tally, 0))

    # -- live rounds ---------------------------------------------------------

    def open_live_sessions(self) -> None:
        """Long-lived sessions, each advised and drilled one level."""
        total = self.spec.refresh_sessions + self.spec.interactive_sessions
        contexts = scripts.live_session_contexts(self.index, total)
        for number, context in enumerate(contexts):
            name = f"live{self.index}-{number}"
            self.call("open", "open_session", name)
            root = self.call("advise", "advise", name, context=list(context))
            drilled = self.call("drill", "drill", name, answer_index=0, segment_index=0)
            if root is None or drilled is None:
                raise RuntimeError(
                    f"could not open live session {name}: {self.failures[-1:]}"
                )
            group = (
                self.refresh_sessions
                if number < self.spec.refresh_sessions
                else self.interactive_sessions
            )
            group[name] = drilled.context

    def ingest(self, batch: List[Dict[str, Any]]) -> bool:
        """Append one batch; ``True`` when the system acknowledged it."""
        summary = self.call("ingest", "ingest", rows=batch)
        if not isinstance(summary, dict):
            return False
        self.ingested_rows += int(summary.get("appended", 0))
        return True

    def refresh_round(self) -> None:
        """After an ingest: refresh exactly, refresh interactively and refine."""
        for name, context in self.refresh_sessions.items():
            self.advice(
                "refresh", "advise", name, context, _LIVE_EVERY,
                context=None, refresh=True,
            )
        for name, context in self.interactive_sessions.items():
            started = time.perf_counter()
            first = self.advice(
                "first_advice", "advise", name, None, None,
                context=None, refresh=True, mode="interactive",
            )
            if first is not None:
                bound = first.error_bound
                if not first.approximate or bound is None or not math.isfinite(bound):
                    self.fail(
                        f"interactive advice on {name} is not approximate with a "
                        f"finite error bound (approximate={first.approximate}, "
                        f"error_bound={bound})"
                    )
                else:
                    self.error_bounds.append(float(bound))
            exact = self.advice("refine", "refine", name, context, _LIVE_EVERY)
            if first is not None and exact is not None:
                if exact.approximate:
                    self.fail(f"refine on {name} returned approximate advice")
                self.latencies.setdefault("refined", []).append(
                    time.perf_counter() - started
                )

    # -- loops ---------------------------------------------------------------

    def explore(self, deadline: Optional[float], quota: Optional[int]) -> None:
        """Users, one after another, until the deadline or the quota is met."""
        for user in itertools.islice(self.users, quota):
            self.run_user(user)
            if deadline is not None and time.perf_counter() >= deadline:
                break

    def warm_up(self) -> None:
        """The unmeasured pass before the phase.

        Every workload runs a few users over contexts outside the script,
        so lazy set-up (imports, first-use structures) is done.  A shared
        workload also replays each of its few paths once: its point is
        traffic that *hits* the caches, and filling them is set-up a
        service pays once, not something every measured user waits for
        (`explore_cold` is where cold computation is measured).
        """
        users = [
            scripts.User(
                name=f"warm{self.index}-{number}",
                context=context,
                steps=(scripts.Step("drill"), scripts.Step("count"), scripts.Step("back")),
            )
            for number, context in enumerate(scripts.WARMUP_CONTEXTS)
        ]
        if self.spec.hot_contexts is not None:
            users += [
                scripts.User(f"warm{self.index}-path{number}", context, steps)
                for number, (context, steps) in enumerate(self._paths)
            ]
        for user in users:
            self.run_user(user)
        for name in self.interactive_sessions:
            self.call("first_advice", "advise", name, context=None, refresh=True,
                      mode="interactive")
            self.call("refine", "refine", name)


def _describe(kind: str, request: Request) -> str:
    return (
        f"{kind}: {request.op} session={request.session!r} "
        f"params={_brief(request.params)}"
    )


def _brief(params: Dict[str, Any]) -> str:
    shown = {
        key: (f"<{len(value)} rows>" if key == "rows" else value)
        for key, value in params.items()
    }
    return repr(shown)


class Run:
    """One set-up system plus its clients, through one measured phase."""

    def __init__(
        self,
        spec: Workload,
        system: System,
        pool: Sequence[Dict[str, Any]],
        seed: int,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.spec = spec
        self.system = system
        self._batches = [
            list(pool[start : start + spec.ingest_batch])
            for start in range(0, len(pool), spec.ingest_batch)
        ]
        #: Every acknowledged ingest batch, in the order they were applied.
        self.applied_batches: List[List[Dict[str, Any]]] = []
        self.clients = [
            Client(index, spec, system.connect(), seed, tracer)
            for index in range(spec.clients)
        ]
        #: ``(start, end)`` of the measured phase.
        self.window: Tuple[float, float] = (0.0, 0.0)
        #: Peak RSS of the system's processes (see ``Workload.rss_rounds``).
        self.peak_rss_mb = 0.0

    def prepare(self) -> None:
        """Open the long-lived sessions and run the unmeasured warm-up."""
        for client in self.clients:
            client.open_live_sessions()
            client.warm_up()
            if client.failed:
                raise RuntimeError(f"the warm-up pass failed: {client.failures}")
            client.reset()

    def _together(self, work: Callable[[Client], None]) -> None:
        """Run ``work`` on every client at once, one thread each."""
        if len(self.clients) == 1:
            work(self.clients[0])
            return
        errors: List[BaseException] = []

        def guarded(client: Client) -> None:
            try:
                work(client)
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(client,), daemon=True)
            for client in self.clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def live_round(self) -> None:
        """One ingest, then every client refreshes its long-lived sessions.

        Nothing else is in flight meanwhile: the router flags advice a
        node serves while a broadcast has reached only the other node as
        ``degraded``, which counts as a failed request, and a table at
        rest is what lets the oracle know the version every reply saw.
        """
        batch = self._batches[len(self.applied_batches) % len(self._batches)]
        if self.clients[0].ingest(batch):
            self.applied_batches.append(batch)
            for client in self.clients:
                client.applied = len(self.applied_batches)
        for client in self.clients:
            client.refresh_round()

    def measure(self, seconds: Optional[float] = None, work: Optional[int] = None) -> None:
        """The measured phase: for ``seconds``, or exactly ``work`` units.

        ``work`` (the traced run) counts users per client — live rounds
        when the workload has no users — so that two runs of one seed do
        the same work and their counts can be compared exactly.
        """
        started = time.perf_counter()
        deadline = None if seconds is None else started + seconds
        per_round = self.spec.users_per_round
        self.peak_rss_mb = 0.0
        if per_round is None:
            self._together(lambda client: client.explore(deadline, work))
        else:
            done = 0
            while (work is None or done < work) and (
                deadline is None or time.perf_counter() < deadline
            ):
                if per_round:
                    self._together(lambda client: client.explore(None, per_round))
                self.live_round()
                done += per_round or 1
                if len(self.applied_batches) == self.spec.rss_rounds:
                    self.peak_rss_mb = peak_rss_mb(self.system.pids())
        self.window = (started, time.perf_counter())
        if not self.peak_rss_mb:
            self.peak_rss_mb = peak_rss_mb(self.system.pids())

    @property
    def measured_seconds(self) -> float:
        return self.window[1] - self.window[0]

    def samples(self, kind: str) -> List[float]:
        """Every client's latencies of one kind, in seconds."""
        return [value for client in self.clients for value in client.latencies.get(kind, ())]

    @property
    def steps(self) -> int:
        """Correct requests of the measured phase (``refined`` is a composite)."""
        return sum(
            len(values)
            for client in self.clients
            for kind, values in client.latencies.items()
            if kind != "refined"
        )
