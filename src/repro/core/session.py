"""Interactive exploration sessions (the Figure 1 loop).

The intended usage of Charles is iterative: the user submits a context,
inspects the ranked segmentations, selects one segment, and submits it as
the next context — "answering queries with queries" until the data region
of interest is isolated.  :class:`ExplorationSession` captures that loop
programmatically: it keeps a navigation stack of contexts, records every
advice produced along the way, and supports going back.

The session itself is a *thin client*: it owns no engine and no cache,
only the navigation stack.  Advice is obtained through the advisor — or,
when the session is managed by :class:`repro.service.AdvisorService`,
through the service's ``advise_fn`` hook, which routes the request into
the shared per-table result cache and the batched engine passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import SessionError
from repro.obs.trace import span
from repro.sdl.formatter import format_segment_label
from repro.sdl.query import SDLQuery
from repro.core.advisor import Advice, Charles, ContextLike

__all__ = ["ExplorationSession"]


@dataclass
class ExplorationStep:
    """One level of the exploration stack.

    ``data_version`` records the engine's monotonic data version at the
    moment the step's advice was computed; comparing it with the current
    version is how the session detects stale advice after an ingest.
    """

    context: SDLQuery
    advice: Optional[Advice] = None
    chosen_answer: Optional[int] = None
    chosen_segment: Optional[int] = None
    label: str = "(root)"
    cached_count: Optional[int] = None
    data_version: Optional[int] = None

    @property
    def row_count(self) -> Optional[int]:
        if self.advice is None:
            return None
        return self.advice.answers[0].segmentation.context_count if self.advice.answers else None


@dataclass
class ExplorationSession:
    """A drill-down session over one table.

    Parameters
    ----------
    advisor:
        The :class:`~repro.core.advisor.Charles` instance to consult.
    max_answers:
        Number of ranked answers requested at each step.
    advise_fn:
        Optional override for producing advice from a context.  When set
        (the service layer sets it), :meth:`advise` calls
        ``advise_fn(context, max_answers, mode)`` instead of the advisor,
        so advice can be served from a cache shared across sessions.
    count_fn:
        Optional override for counting a context's rows.  The service
        layer points it at the table runtime's shared engine so
        :meth:`describe` never bypasses the shared-cache routing the way
        a direct ``advisor.count`` call would.
    """

    advisor: Charles
    max_answers: int = 10
    advise_fn: Optional[Callable[[SDLQuery, int, Optional[str]], Advice]] = None
    count_fn: Optional[Callable[[SDLQuery], int]] = None
    _stack: List[ExplorationStep] = field(default_factory=list)

    # -- navigation -------------------------------------------------------------

    def start(self, context: ContextLike = None, mode: Optional[str] = None) -> Advice:
        """Begin (or restart) the session at the given context."""
        resolved = self.advisor.resolve_context(context)
        self._stack = [ExplorationStep(context=resolved)]
        return self.advise(mode=mode)

    @property
    def started(self) -> bool:
        return bool(self._stack)

    @property
    def current(self) -> ExplorationStep:
        """The step the session is currently at."""
        if not self._stack:
            raise SessionError("the session has not been started; call start() first")
        return self._stack[-1]

    @property
    def depth(self) -> int:
        """Number of drill-down levels below the root."""
        return max(0, len(self._stack) - 1)

    @property
    def context(self) -> SDLQuery:
        """The current exploration context."""
        return self.current.context

    def advise(self, refresh: bool = False, mode: Optional[str] = None) -> Advice:
        """Ask Charles for segmentations of the current context (cached per step).

        With ``refresh=True`` the step's cached advice (and row count) is
        discarded and recomputed against the engine's **newest** data
        version — the way to bring a session up to date after an ingest
        marked its advice stale (see :meth:`is_stale`).

        ``mode`` is :meth:`Charles.advise`'s (``None``: the advisor's
        default).  With ``mode="interactive"`` a fresh advice is computed
        on the sampled view (``advice.approximate`` is set, with its
        ``error_bound``); :meth:`refine` replaces it with the exact advice
        when asked.
        """
        with span("session.advise", mode=mode, refresh=refresh) as current:
            step = self.current
            if refresh:
                step.advice = None
                step.cached_count = None
            if step.advice is None:
                # Capture the version *before* computing: if an ingest lands
                # mid-advise, the advice is tagged with the pre-ingest version
                # and correctly reports stale, instead of masquerading as
                # computed against data it never saw.
                version = self.data_version
                step.advice = self._compute_advice(step.context, mode)
                step.data_version = version
            elif current:
                current.annotate(cached=True)
            if current:
                current.annotate(
                    answers=len(step.advice.answers),
                    approximate=bool(step.advice.approximate),
                    depth=self.depth,
                )
            return step.advice

    def _compute_advice(self, context: SDLQuery, mode: Optional[str]) -> Advice:
        if self.advise_fn is not None:
            return self.advise_fn(context, self.max_answers, mode)
        return self.advisor.advise(context, max_answers=self.max_answers, mode=mode)

    def refine(self) -> Advice:
        """Exact advice for the current step, replacing an approximate one.

        Returns immediately when the step's advice is already exact.
        Otherwise the exact advice is computed on the calling thread —
        through ``advise_fn`` when the service set it, so a context any
        session already refined or advised exactly is an advice-cache hit
        — and swapped into the step, so subsequent :meth:`advise`/
        :meth:`drill` calls see exact numbers.  If the exact advise
        raises, the error propagates and the step keeps its approximate
        advice.
        """
        with span("session.refine"):
            approximate = self.advise()
            if not approximate.approximate:
                return approximate
            step = self.current
            version = self.data_version
            exact = self._compute_advice(step.context, "exact")
            if step.advice is approximate:
                step.advice = exact
                step.data_version = version
                step.cached_count = None
            return exact

    # -- live data ----------------------------------------------------------------

    @property
    def data_version(self) -> Optional[int]:
        """The engine's current data version (``None`` for unversioned engines)."""
        return getattr(self.advisor.engine, "data_version", None)

    def _step_stale(self, step: ExplorationStep) -> bool:
        current = self.data_version
        return (
            step.data_version is not None
            and current is not None
            and step.data_version != current
        )

    def is_stale(self) -> bool:
        """Whether the current step's advice predates the newest data version.

        ``False`` before the session starts or before the first advice.
        Stale advice is still served (navigation stays consistent); call
        :meth:`advise` with ``refresh=True`` to recompute it.
        """
        if not self._stack:
            return False
        return self._step_stale(self.current)

    def drill(self, answer_index: int, segment_index: int) -> Advice:
        """Select one segment of one ranked answer and make it the new context.

        Parameters
        ----------
        answer_index:
            0-based index into the current advice's answer list.
        segment_index:
            0-based index of the segment within that answer's segmentation.
        """
        with span(
            "session.drill", answer_index=answer_index, segment_index=segment_index
        ):
            advice = self.advise()
            if not 0 <= answer_index < len(advice.answers):
                raise SessionError(
                    f"answer index {answer_index} out of range "
                    f"(the advice has {len(advice.answers)} answers)"
                )
            answer = advice.answers[answer_index]
            segmentation = answer.segmentation
            if not 0 <= segment_index < segmentation.depth:
                raise SessionError(
                    f"segment index {segment_index} out of range "
                    f"(the segmentation has {segmentation.depth} segments)"
                )
            step = self.current
            step.chosen_answer = answer_index
            step.chosen_segment = segment_index
            segment = segmentation.segments[segment_index]
            label = format_segment_label(segment.query, segmentation.context)
            # Hand the mask-reuse tier its breadcrumb: the new context refines
            # the current one, so its selection vector is the parent's ANDed
            # with the segment's extra predicate (engines without the feature
            # simply have no hint_parent).
            hint = getattr(self.advisor.engine, "hint_parent", None)
            if hint is not None:
                hint(segment.query, step.context)
            self._stack.append(ExplorationStep(context=segment.query, label=label))
            return self.advise()

    def back(self) -> SDLQuery:
        """Pop one level off the exploration stack and return the restored context."""
        with span("session.back"):
            if len(self._stack) <= 1:
                raise SessionError("already at the root of the exploration")
            self._stack.pop()
            step = self.current
            step.chosen_answer = None
            step.chosen_segment = None
            return step.context

    # -- reporting ---------------------------------------------------------------

    def breadcrumbs(self) -> List[str]:
        """The labels of the path from the root to the current context."""
        return [step.label for step in self._stack]

    def history(self) -> List[ExplorationStep]:
        """A copy of the exploration stack, root first."""
        return list(self._stack)

    def _step_count(self, step: ExplorationStep) -> int:
        """Row count of a step's context, cached on the step.

        The advice produced at the step already knows the context's
        cardinality, so no engine call is needed at all in the common
        case; otherwise the count is routed through ``count_fn`` (the
        service's shared-cache path) before falling back to the advisor.
        """
        if step.cached_count is None:
            if step.row_count is not None:
                step.cached_count = step.row_count
            elif self.count_fn is not None:
                step.cached_count = self.count_fn(step.context)
            else:
                step.cached_count = self.advisor.count(step.context)
        return step.cached_count

    def describe(self) -> str:
        """Multi-line summary of the session state.

        On a live table the header reports the current data version and
        stale steps — advice computed before the latest ingest — are
        flagged.
        """
        if not self._stack:
            return "exploration session (not started)"
        version = self.data_version
        header = "exploration session:"
        if version is not None and version > 1:
            header = f"exploration session (data version {version}):"
        lines = [header]
        for level, step in enumerate(self._stack):
            marker = "→" if level == len(self._stack) - 1 else " "
            count = self._step_count(step)
            suffix = ""
            if self._step_stale(step):
                suffix = f"  [stale: advice from data version {step.data_version}]"
            lines.append(
                f" {marker} level {level}: {step.label}  ({count} rows){suffix}"
            )
        return "\n".join(lines)
