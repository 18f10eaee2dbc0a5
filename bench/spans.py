"""Timing wrappers installed at run time, and the self-time fold.

The traced run must not need a single change under ``src/``: spans are
recorded by wrapping each layer's public entry points from here
(:data:`TARGETS`), for the duration of the traced phase only.  A span is
``name, layer, thread, start, end, parent, request id``; spans stay in
memory (one small list each) and are written out when the run ends.

Folding (:func:`fold`) is separate from recording and works on plain
span lists, so it is unit-tested on synthetic input:

* a span's parent is the span open on its own thread when it started; a
  span that starts a thread (a server handling a request) is attached to
  the client call with the same request id whose interval contains it;
* a span's **self-time** is its duration minus the part of that interval
  its children cover (children on other threads may overlap, so the
  union of their intervals is subtracted, not the sum);
* a layer metric is the summed self-time of the spans mapped to it.

A wrap target that no longer exists is skipped with a warning and its
metric reads ``None`` — a refactor under ``src/`` must never turn into a
failed benchmark run.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "STEP",
    "TARGETS",
    "Span",
    "Target",
    "Tracer",
    "fold",
    "link_threads",
    "self_times",
    "to_spans",
]

#: Name of the root span the benchmark opens around each request.
STEP = "bench.step"


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``path`` is ``module:attribute`` or ``module:Class.method``; ``metric``
    is the per-layer metric its self-time is summed into.  ``request_arg``
    marks callables whose first argument is a wire payload carrying the
    request id (server-side entry points, where a new thread picks the
    request up); ``remote`` marks client calls that block on another
    thread's span; ``reply_size`` records the encoded size of each reply
    (measured after the span has ended).
    """

    path: str
    metric: str
    request_arg: bool = False
    remote: bool = False
    reply_size: bool = False


TARGETS: Tuple[Target, ...] = (
    Target("repro.api.client:RemoteAdvisor.rpc", "api.client.self_ms", remote=True),
    Target("repro.api.client:RemoteAdvisor.forward", "cluster.router.self_ms",
           request_arg=True, remote=True),
    Target("repro.api.server:_Handler.do_POST", "api.http.self_ms"),
    Target("repro.api.server:AdvisorHTTPServer.handle_rpc", "api.http.self_ms",
           request_arg=True),
    Target("repro.cluster.router:RouterHTTPServer.handle_rpc", "api.http.self_ms",
           request_arg=True),
    Target("repro.cluster.router:ClusterRouter.handle_wire", "cluster.router.self_ms",
           request_arg=True),
    Target("repro.api.dispatcher:Dispatcher.handle_wire", "api.dispatcher.self_ms",
           request_arg=True, reply_size=True),
    Target("repro.api.codec:to_wire", "api.codec.encode_ms"),
    Target("repro.api.codec:dumps", "api.codec.encode_ms"),
    Target("repro.api.codec:from_wire", "api.codec.decode_ms"),
    Target("repro.api.codec:loads", "api.codec.decode_ms"),
    Target("repro.service.service:AdvisorService.submit", "service.self_ms"),
    Target("repro.service.service:AdvisorService.ingest", "service.self_ms"),
    Target("repro.service.batching:BatchCoordinator.counts", "service.batching.wait_ms"),
    Target("repro.core.session:ExplorationSession.advise", "core.session.self_ms"),
    Target("repro.core.session:ExplorationSession.drill", "core.session.self_ms"),
    Target("repro.core.session:ExplorationSession.back", "core.session.self_ms"),
    Target("repro.core.session:ExplorationSession.refine", "core.session.self_ms"),
    Target("repro.core.advisor:Charles.advise", "core.advisor.self_ms"),
    Target("repro.core.hbcuts:HBCuts.run", "core.hbcuts.self_ms"),
    Target("repro.storage.engine:QueryEngine.count", "storage.engine.count_ms"),
    Target("repro.storage.engine:QueryEngine.count_batch", "storage.engine.count_batch_ms"),
    Target("repro.storage.engine:QueryEngine.median", "storage.engine.median_ms"),
    Target("repro.storage.engine:QueryEngine.value_frequencies",
           "storage.engine.frequencies_ms"),
    Target("repro.storage.engine:QueryEngine.minmax", "storage.engine.minmax_ms"),
    Target("repro.storage.cache:ResultCache.get", "storage.cache.self_ms"),
    Target("repro.storage.cache:ResultCache.put", "storage.cache.self_ms"),
    Target("repro.storage.cache:ResultCache.get_or_compute", "storage.cache.self_ms"),
    Target("repro.storage.zonemap:SkippingIndexes.query_mask", "storage.zonemap.self_ms"),
    Target("repro.storage.zonemap:SkippingIndexes.count", "storage.zonemap.self_ms"),
    Target("repro.storage.sketches:TableSketches.quantile_sketch",
           "storage.sketches.build_ms"),
    Target("repro.storage.sketches:TableSketches.nominal_sketch",
           "storage.sketches.build_ms"),
    Target("repro.backends.approx:ApproxEngine.count", "backends.approx.self_ms"),
    Target("repro.backends.approx:ApproxEngine.median", "backends.approx.self_ms"),
    Target("repro.live.versioned:VersionedTable.append_batch", "live.versioned.append_ms"),
    Target("repro.live.versioned:VersionedTable.partitioned",
           "live.versioned.repartition_ms"),
    Target("repro.sdl.parser:parse_query", "sdl.parse_ms"),
    Target("repro.storage.sql:parse_where", "sdl.parse_ms"),
    Target("repro.backends.registry:open_backend", "backends.open_ms"),
    Target("repro.workloads.voc:generate_voc", "workloads.generate_s"),
)


@dataclass
class Span:
    """One recorded interval (the fold's input and ``bench_trace.json``'s rows)."""

    id: int
    name: str
    metric: str
    thread: int
    start: float
    end: float
    parent: Optional[int] = None
    request_id: Optional[str] = None
    remote: bool = False
    op: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Marks an undo entry whose attribute did not exist on the class itself.
_INHERITED = object()

# Record layout while tracing (a list per span keeps the hot path cheap):
# [target index or -1 for a step, thread id, start, end, parent record,
#  request id, op].
_TARGET, _THREAD, _START, _END, _PARENT, _REQUEST, _OP = range(7)


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers again."""

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.missing: List[str] = []
        #: Encoded bytes of every reply of the ``reply_size`` targets.
        self.reply_sizes: List[int] = []
        self._records: List[List[Any]] = []
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[List[Any]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, index: int, original: Callable[..., Any]) -> Callable[..., Any]:
        target = self.targets[index]
        records, stack_of, clock = self._records, self._stack, time.perf_counter
        thread_id, request_arg = threading.get_ident, target.request_arg
        sizes = self.reply_sizes if target.reply_size else None
        # Positional index of the wire payload: methods take it after self.
        payload_at = 1 if "." in target.path.split(":", 1)[1] else 0

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else None
            if parent is not None and parent[_TARGET] == index:
                # Recursive entry (to_wire walking a nested value): the
                # outer span already covers it.
                return original(*args, **kwargs)
            request_id = parent[_REQUEST] if parent is not None else None
            op = parent[_OP] if parent is not None else None
            if request_arg and len(args) > payload_at:
                payload = args[payload_at]
                if isinstance(payload, dict):
                    request_id = payload.get("request_id", request_id)
                    op = payload.get("op", op)
            record = [index, thread_id(), clock(), 0.0, parent, request_id, op]
            records.append(record)
            stack.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if sizes is not None:
                sizes.append(len(json.dumps(result, ensure_ascii=False)))
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        return wrapper

    def step(self, request_id: str, op: str) -> "_Step":
        """Root span around one benchmark request (a context manager)."""
        return _Step(self, request_id, op)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for index, target in enumerate(self.targets):
            module_name, attribute = target.path.split(":", 1)
            try:
                module = importlib.import_module(module_name)
                owner: Any = module
                *owners, leaf = attribute.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                warnings.warn(
                    f"bench: wrap target {target.path} no longer exists; "
                    f"{target.metric} will miss its share",
                    stacklevel=2,
                )
                continue
            wrapped = self._wrap(index, original)
            if owners:
                # An inherited method is overridden on the named class and
                # the override deleted again on uninstall.
                inherited = leaf not in vars(owner)
                self._replace(owner, leaf, _INHERITED if inherited else original, wrapped)
                continue
            # A function may have been imported by name into other modules
            # (``from repro.api.codec import to_wire``): patch every alias.
            for name, candidate in list(sys.modules.items()):
                if candidate is None or not name.startswith(("repro", "bench")):
                    continue
                for alias, value in list(vars(candidate).items()):
                    if value is original:
                        self._replace(candidate, alias, original, wrapped)

    def _replace(self, owner: Any, name: str, original: Any, wrapped: Any) -> None:
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------------

    def spans(self) -> List[Span]:
        """The recorded spans (unfinished ones dropped), ready to fold."""
        return to_spans(self._records, self.targets)


class _Step:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: Tracer, request_id: str, op: str) -> None:
        self._tracer = tracer
        self._record = [-1, threading.get_ident(), 0.0, 0.0, None, request_id, op]

    def __enter__(self) -> None:
        self._record[_START] = time.perf_counter()
        self._tracer._records.append(self._record)
        self._tracer._stack().append(self._record)

    def __exit__(self, *exc_info: Any) -> None:
        self._record[_END] = time.perf_counter()
        self._tracer._stack().pop()


def to_spans(records: Iterable[List[Any]], targets: Sequence[Target]) -> List[Span]:
    """Turn raw records into :class:`Span` rows with integer ids."""
    finished = [record for record in records if record[_END] > 0.0]
    ids = {id(record): number for number, record in enumerate(finished)}
    spans = []
    for number, record in enumerate(finished):
        index = record[_TARGET]
        target = targets[index] if index >= 0 else None
        parent = record[_PARENT]
        metric = target.metric if target else "bench.unattributed_ms"
        if metric == "cluster.router.self_ms" and record[_OP] == "ingest":
            # The replicated path (every node, under the order lock) is
            # reported apart from plain forwarding.
            metric = "cluster.router.broadcast_ms"
        spans.append(
            Span(
                id=number,
                name=target.path.split(":", 1)[1] if target else STEP,
                metric=metric,
                thread=record[_THREAD],
                start=record[_START],
                end=record[_END],
                parent=ids.get(id(parent)) if parent is not None else None,
                request_id=record[_REQUEST],
                remote=bool(target and target.remote),
                op=record[_OP],
            )
        )
    return spans


def _covered(intervals: List[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def link_threads(spans: Sequence[Span]) -> None:
    """Attach each thread-root span to the client call that caused it.

    A span with no parent on its own thread (a server thread picking a
    request up) belongs under the innermost ``remote`` span with the same
    request id whose interval contains it.  A root without a request id
    of its own (the HTTP handler reads it only after parsing the body)
    borrows the first one found beneath it.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    callers: Dict[str, List[Span]] = {}
    for span in spans:
        if span.remote and span.request_id is not None:
            callers.setdefault(span.request_id, []).append(span)

    def request_of(span: Span) -> Optional[str]:
        pending = [span]
        while pending:
            current = pending.pop()
            if current.request_id is not None:
                return current.request_id
            pending.extend(children.get(current.id, ()))
        return None

    for span in spans:
        if span.parent is not None or span.name == STEP:
            continue
        request_id = request_of(span)
        if request_id is None:
            continue
        containing = [
            caller
            for caller in callers.get(request_id, ())
            # The server may finish writing just after the client has
            # finished reading: only the start must fall inside the call.
            if caller.start <= span.start <= caller.end
            and caller.thread != span.thread
        ]
        if containing:
            span.parent = max(containing, key=lambda caller: caller.start).id
            span.request_id = request_id


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self-time in seconds of every span, by span id."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - _covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


def fold(
    spans: Sequence[Span], window: Optional[Tuple[float, float]] = None
) -> Dict[str, float]:
    """Summed self-time in seconds per metric name.

    ``window`` keeps only the spans that started inside the measured
    phase (set-up spans such as table generation fall outside it).
    Cross-thread parents are resolved first, on the whole list.
    """
    link_threads(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        if window is not None and not window[0] <= span.start <= window[1]:
            continue
        totals[span.metric] = totals.get(span.metric, 0.0) + own[span.id]
    return totals
