"""Request tracing: span trees with an ambient context-var span.

A *span* is one timed piece of work — a service request, a session step,
one engine operation — with a name, wall-clock anchor, monotonic
duration, free-form attributes and child spans.  Spans form one tree per
request, stitched across processes by a shared ``trace_id``: the cluster
router opens the root, forwards its trace context in the request
envelope's ``trace`` field, the owning node builds its own subtree and
returns it in the response, and the router *adopts* that subtree back
under its forwarding span (:meth:`Span.adopt`).

Zero overhead by default
------------------------

Tracing costs nothing until the first trace starts in a process:

* :func:`tracing_active` short-circuits on a module-level boolean that
  is flipped (permanently) by the first :func:`start_trace` call — hot
  paths guard on one global read, not a context-var lookup;
* :func:`span` returns the shared no-op singleton when no trace is
  active, so instrumented blocks need no conditional of their own;
* leaf operations (engine count/median) use the *retroactive* child API
  — :meth:`Span.record` — measuring with a plain ``perf_counter`` pair
  and attaching the finished child afterwards, so the hot path never
  touches the context var.

Spans are built and finished on the request thread; work handed to
other threads (batch leaders) is not traced — the ambient
span deliberately does not cross threads.  A ``refine`` runs on the
request thread, so its exact advise is traced under ``session.refine``.
"""

from __future__ import annotations

import itertools
import os
import time
from contextvars import ContextVar, Token
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "current_span",
    "format_span_tree",
    "span",
    "start_trace",
    "tracing_active",
]

_IDS = itertools.count(1)

#: Flipped (permanently) by the first ``start_trace`` in the process:
#: the one-global-read fast path of ``tracing_active``.
_SEEN = False

_ACTIVE: ContextVar[Optional["Span"]] = ContextVar("charles_active_span", default=None)


def _new_id(prefix: str) -> str:
    """A process-unique identifier (``<prefix><pid>-<n>``, hex)."""
    return f"{prefix}{os.getpid():x}-{next(_IDS):x}"


def tracing_active() -> bool:
    """Whether a span is ambient on the calling thread.

    The disabled path is one module-global boolean read — cheap enough
    for per-engine-operation guards.
    """
    return _SEEN and _ACTIVE.get() is not None


def current_span() -> Optional["Span"]:
    """The ambient span of the calling thread, or ``None``."""
    if not _SEEN:
        return None
    return _ACTIVE.get()


class Span:
    """One timed node of a trace tree.

    Use as a context manager: entering makes the span ambient (children
    created via :func:`span` nest under it), exiting records the
    duration — and the exception type, if one is in flight — and
    restores the previous ambient span.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "started_at",
        "duration_seconds",
        "attributes",
        "children",
        "error",
        "_perf_start",
        "_token",
    )

    def __init__(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> None:
        self.name = name
        self.trace_id = trace_id if trace_id else _new_id("t")
        self.span_id = _new_id("s")
        self.parent_id = parent_id
        self.started_at = time.time()
        self.duration_seconds: Optional[float] = None
        self.attributes: Dict[str, Any] = attributes
        #: Finished child ``Span`` objects and adopted remote span
        #: documents, in creation order.
        self.children: List[Any] = []
        self.error: Optional[str] = None
        self._perf_start = time.perf_counter()
        self._token: Optional[Token[Optional[Span]]] = None

    # -- building the tree ---------------------------------------------------

    def child(self, name: str, **attributes: Any) -> "Span":
        """A new child span (not yet finished), appended to this one."""
        node = Span(name, trace_id=self.trace_id, parent_id=self.span_id, **attributes)
        self.children.append(node)
        return node

    def record(
        self, name: str, seconds: float, **attributes: Any
    ) -> "Span":
        """Attach an already-measured leaf child (the retroactive API).

        Hot paths measure with a bare ``perf_counter`` pair and call
        this once at the end, so nothing trace-related happens inside
        the measured region.
        """
        node = self.child(name, **attributes)
        node.started_at = time.time() - seconds
        node.duration_seconds = float(seconds)
        return node

    def adopt(self, document: Dict[str, Any]) -> None:
        """Attach a span tree *document* produced by another process.

        The remote subtree shares this span's ``trace_id`` (the wire
        trace context carried it over), so plain adoption yields one
        coherent tree for the whole routed request.
        """
        self.children.append(dict(document))

    def annotate(self, **attributes: Any) -> None:
        """Merge attributes into the span (latest value wins)."""
        self.attributes.update(attributes)

    def finish(self) -> "Span":
        """Freeze the duration (idempotent; keeps the first measurement)."""
        if self.duration_seconds is None:
            self.duration_seconds = time.perf_counter() - self._perf_start
        return self

    # -- ambient activation ----------------------------------------------------

    def __enter__(self) -> "Span":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        if exc_type is not None and self.error is None:
            self.error = f"{exc_type.__name__}: {exc}"
        self.finish()
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None

    def __bool__(self) -> bool:
        return True

    # -- wire form -------------------------------------------------------------

    def to_document(self) -> Dict[str, Any]:
        """The span tree as a plain JSON-safe document (wire ``trace``)."""
        document: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "duration_seconds": self.finish().duration_seconds,
        }
        if self.attributes:
            document["attributes"] = dict(self.attributes)
        if self.error is not None:
            document["error"] = self.error
        if self.children:
            document["children"] = [
                child.to_document() if isinstance(child, Span) else child
                for child in self.children
            ]
        return document

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span(name={self.name!r}, trace_id={self.trace_id!r}, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """The falsy do-nothing span served while tracing is inactive."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        return None

    def __bool__(self) -> bool:
        return False

    def child(self, name: str, **attributes: Any) -> "_NoopSpan":
        return self

    def record(self, name: str, seconds: float, **attributes: Any) -> "_NoopSpan":
        return self

    def adopt(self, document: Dict[str, Any]) -> None:
        return None

    def annotate(self, **attributes: Any) -> None:
        return None

    def finish(self) -> "_NoopSpan":
        return self


NO_SPAN = _NoopSpan()


def start_trace(
    name: str,
    trace_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    **attributes: Any,
) -> Span:
    """Open a trace root (arms :func:`tracing_active` for the process).

    ``trace_id``/``parent_id`` join an existing distributed trace — the
    wire trace context a router put on the request envelope; omitted,
    a fresh trace id is issued.
    """
    global _SEEN
    _SEEN = True
    return Span(name, trace_id=trace_id, parent_id=parent_id, **attributes)


def span(name: str, **attributes: Any) -> Any:
    """A child of the ambient span, or the no-op singleton when inactive.

    Use as ``with span("session.advise", mode=mode) as sp:`` — the child
    becomes ambient inside the block (so nested instrumentation attaches
    under it) and ``sp`` is falsy when tracing is off.
    """
    parent = current_span()
    if parent is None:
        return NO_SPAN
    return parent.child(name, **attributes)


def format_span_tree(document: Dict[str, Any], indent: int = 0) -> str:
    """Render a span tree document as an indented text tree.

    One line per span: name, duration, then ``key=value`` attributes —
    the ``charles call --trace`` output.
    """
    duration = document.get("duration_seconds")
    timing = f"{duration * 1000.0:9.3f} ms" if isinstance(duration, (int, float)) else "        ? ms"
    line = f"{'  ' * indent}{timing}  {document.get('name', '?')}"
    attributes = document.get("attributes")
    if isinstance(attributes, dict) and attributes:
        rendered = " ".join(
            f"{key}={attributes[key]}" for key in sorted(attributes)
        )
        line += f"  [{rendered}]"
    if document.get("error"):
        line += f"  !error={document['error']}"
    lines = [line]
    for child in document.get("children", []) or []:
        if isinstance(child, dict):
            lines.append(format_span_tree(child, indent + 1))
    return "\n".join(lines)
