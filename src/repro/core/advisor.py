"""The Charles facade: answer a query with ranked segmentations.

This is the public entry point a downstream user interacts with.  It ties
together the storage engine, the HB-cuts generator, the ranking policies
and the formatting helpers, mirroring the interaction loop of Figure 1:
the user provides a context (an SDL statement, a SQL WHERE clause, a list
of columns, or nothing at all for the whole table), Charles generates
several segmentations, ranks them, and returns them as an
:class:`Advice` object ready for display or drill-down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.backends.base import ExecutionBackend
from repro.backends.registry import open_backend
from repro.errors import AdvisorError, SDLSyntaxError
from repro.sdl.formatter import format_segment_label, format_segmentation
from repro.sdl.parser import parse_query
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation
from repro.storage.table import Table
from repro.core.hbcuts import HBCuts, HBCutsConfig, HBCutsResult, HBCutsTrace
from repro.core.metrics import SegmentationScores
from repro.core.ranking import EntropyRanker, Ranker

if TYPE_CHECKING:  # typing only: profiling runs for ``charles profile`` alone
    from repro.storage.statistics import TableProfile

__all__ = ["ContextLike", "RankedAnswer", "Advice", "Charles"]

#: The ways a caller can express an exploration context.
ContextLike = Union[None, str, SDLQuery, Sequence[str]]


@dataclass(frozen=True)
class RankedAnswer:
    """One entry of Charles' ranked answer list.

    Attributes
    ----------
    rank:
        1-based position in the answer list.
    segmentation:
        The segmentation itself.
    scores:
        Its quality metrics (entropy, breadth, simplicity, balance, ...).
    score:
        The scalar ranking score assigned by the active ranker.
    """

    rank: int
    segmentation: Segmentation
    scores: SegmentationScores
    score: float

    @property
    def attributes(self) -> tuple:
        """The attributes the segmentation cuts on (the pie chart's title)."""
        return self.segmentation.cut_attributes or self.segmentation.attributes

    def labels(self) -> List[str]:
        """Short per-segment labels as shown on Figure 1's pie slices."""
        return [
            format_segment_label(segment.query, self.segmentation.context)
            for segment in self.segmentation.segments
        ]

    def describe(self) -> str:
        """Multi-line description of this answer."""
        title = ", ".join(self.attributes) or "(no attribute)"
        header = (
            f"#{self.rank} [{title}]  entropy={self.scores.entropy:.3f}  "
            f"breadth={self.scores.breadth}  simplicity={self.scores.simplicity}  "
            f"depth={self.scores.depth}"
        )
        return header + "\n" + format_segmentation(self.segmentation)


@dataclass
class Advice:
    """Charles' full answer to one context query.

    ``approximate`` advice was computed on a uniform row sample
    (:class:`~repro.backends.approx.ApproxEngine`); ``error_bound`` is
    then the bound every count and median of the run carries — a
    fraction of ``|T|``, at the view's fixed confidence.  Exact advice
    carries the defaults (``False`` / ``None``), so pre-existing payloads
    decode unchanged.

    ``degraded`` advice was served by a cluster node whose table copy is
    known to lag the newest data version (a failover target that missed
    an ingest while dead): the answers are internally consistent but may
    predate the latest mutations.  Local advisors never set it.
    """

    context: SDLQuery
    answers: List[RankedAnswer]
    trace: HBCutsTrace
    ranker_name: str = "entropy"
    engine_operations: Dict[str, int] = field(default_factory=dict)
    approximate: bool = False
    error_bound: Optional[float] = None
    degraded: bool = False

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[RankedAnswer]:
        return iter(self.answers)

    def __getitem__(self, index: int) -> RankedAnswer:
        return self.answers[index]

    def best(self) -> RankedAnswer:
        """The top-ranked answer."""
        if not self.answers:
            raise AdvisorError("Charles produced no answer for this context")
        return self.answers[0]

    def segmentations(self) -> List[Segmentation]:
        return [answer.segmentation for answer in self.answers]

    def describe(self, limit: Optional[int] = 5) -> str:
        """Multi-line report of the top answers (all of them when ``limit`` is None)."""
        shown = self.answers if limit is None else self.answers[:limit]
        lines = [
            f"Charles' advice for {self.context.to_sdl()} — "
            f"{len(self.answers)} segmentation(s), ranked by {self.ranker_name}"
        ]
        for answer in shown:
            lines.append("")
            lines.append(answer.describe())
        return "\n".join(lines)


class Charles:
    """The query advisor.

    Parameters
    ----------
    table:
        The relation to explore — a :class:`~repro.storage.table.Table`
        (executed through the backend selected by ``backend``) or an
        already-built :class:`~repro.backends.base.ExecutionBackend`
        (useful to share caches, or to plug a
        :class:`~repro.backends.sqlite.SQLiteBackend` directly).
    config:
        HB-cuts parameters; defaults follow the paper (``max_indep=0.99``,
        ``max_depth=12``).
    ranker:
        Ranking policy; defaults to the paper's entropy ordering.
    backend:
        Backend spec resolved through
        :func:`repro.backends.open_backend` when ``table`` is a
        :class:`Table`, and the one place execution is configured: e.g.
        ``"memory"`` (default), ``"memory?partitions=4"``,
        ``"sqlite"``, or ``"memory?sample=0.1&seed=7"``, whose uniform
        sample is the default data (§5.2; ``mode="exact"`` still reaches
        the unsampled backend).  A prebuilt engine is sampled by wrapping
        it in :class:`~repro.backends.approx.ApproxEngine`.

    Examples
    --------
    >>> from repro.workloads import generate_voc
    >>> advisor = Charles(generate_voc(rows=2000, seed=7))
    >>> advice = advisor.advise(["type_of_boat", "departure_harbour", "tonnage"])
    >>> advice.best().attributes  # doctest: +SKIP
    ('departure_harbour', 'tonnage')
    """

    def __init__(
        self,
        table: Union[Table, ExecutionBackend],
        config: Optional[HBCutsConfig] = None,
        ranker: Optional[Ranker] = None,
        backend: Optional[str] = None,
    ):
        if isinstance(table, Table):
            self.engine = open_backend(backend or "memory", table)
        elif backend is not None:
            raise AdvisorError(
                "pass either a backend spec or a backend instance, not both"
            )
        else:
            self.engine = open_backend(table)
        self.config = config or HBCutsConfig()
        self.ranker = ranker or EntropyRanker()
        self._generator = HBCuts(self.config)
        # The view advise(mode="interactive") runs on, built on first use.
        self._view: Optional[ExecutionBackend] = None

    @property
    def table(self) -> Optional[Table]:
        """The backend's current in-memory snapshot (``None`` for pure SQL).

        A property rather than a captured reference: live backends swap
        snapshots on ingest, and a reader must see the newest one.
        """
        return getattr(self.engine, "table", None)

    # -- live data --------------------------------------------------------------

    @property
    def data_version(self) -> int:
        """The backend's monotonic data version."""
        return self.engine.data_version

    def ingest(self, rows: Sequence[Any]) -> int:
        """Append a batch of row mappings through the backend (new version)."""
        return self.engine.ingest(rows)

    def delete_where(self, context: ContextLike) -> int:
        """Delete the rows a context selects; returns the number removed."""
        return self.engine.delete_where(self.resolve_context(context))

    # -- context handling -------------------------------------------------------

    def resolve_context(self, context: ContextLike) -> SDLQuery:
        """Turn any supported context form into an :class:`SDLQuery`.

        * ``None`` — the whole table over every column;
        * a list of column names — an unconstrained context over them;
        * an :class:`SDLQuery` — used as-is;
        * a string — parsed as SDL first, then as a SQL WHERE clause.
        """
        if context is None:
            return SDLQuery.over(self.engine.column_names)
        if isinstance(context, SDLQuery):
            return context
        if isinstance(context, str):
            return self._parse_text_context(context)
        if isinstance(context, Sequence):
            names = list(context)
            available = set(self.engine.column_names)
            unknown = [name for name in names if str(name) not in available]
            if unknown:
                raise AdvisorError(
                    f"unknown column(s) in context: {unknown}; "
                    f"available: {self.engine.column_names}"
                )
            return SDLQuery.over([str(name) for name in names])
        raise AdvisorError(f"unsupported context type: {type(context).__name__}")

    def _parse_text_context(self, text: str) -> SDLQuery:
        try:
            return parse_query(text)
        except SDLSyntaxError:
            pass
        from repro.storage.sql import parse_where

        try:
            return parse_where(text)
        except Exception as exc:
            raise AdvisorError(
                f"could not parse context {text!r} as SDL or as a SQL WHERE clause"
            ) from exc

    # -- main entry points -------------------------------------------------------

    @property
    def default_mode(self) -> str:
        """The mode an advise without one runs in: ``interactive`` when the
        configured backend is itself the sampled view, else ``exact``."""
        return "interactive" if hasattr(self.engine, "take_error_bound") else "exact"

    def _advice_engine(self, mode: str) -> ExecutionBackend:
        """The data one advise run executes against.

        ``exact`` is the unsampled backend, ``interactive`` the sampled
        view of it (:class:`~repro.backends.approx.ApproxEngine`): the
        configured backend when it already is one of the two, else the
        view's ``base_engine``, or a view of
        :data:`~repro.backends.approx.INTERACTIVE_SAMPLE_ROWS` rows built
        on first use.  The view scans its own sample through its own
        cache and counter, so a later exact run is byte-identical to one
        that never went approximate.
        """
        if mode == self.default_mode:
            return self.engine
        if mode == "exact":
            return self.engine.base_engine
        if self._view is None:
            from repro.backends.approx import ApproxEngine

            self._view = ApproxEngine(self.engine)
        return self._view

    def advise(
        self,
        context: ContextLike = None,
        max_answers: Optional[int] = 10,
        attributes: Optional[Sequence[str]] = None,
        mode: Optional[str] = None,
    ) -> Advice:
        """Answer a context query with ranked segmentations.

        Parameters
        ----------
        context:
            The exploration context (see :meth:`resolve_context`).
        max_answers:
            Keep only the best ``max_answers`` segmentations (None = all;
            a negative count is an :class:`AdvisorError`).
        attributes:
            Restrict exploration to these attributes instead of every
            attribute the context mentions.
        mode:
            ``"exact"`` runs on the unsampled backend; ``"interactive"``
            on a uniform sample of it, stamping the advice
            ``approximate`` with its ``error_bound`` — the fast first
            answer an exact refinement then replaces.  ``None`` is
            :attr:`default_mode`.
        """
        if mode is None:
            mode = self.default_mode
        if mode not in ("exact", "interactive"):
            raise AdvisorError(
                f"unknown advise mode {mode!r}; expected 'exact' or 'interactive'"
            )
        if max_answers is not None and max_answers < 0:
            raise AdvisorError(f"max_answers cannot be negative, got {max_answers}")
        resolved = self.resolve_context(context)
        engine = self._advice_engine(mode)
        approximate = mode == "interactive"
        operations_before = engine.counter.snapshot()
        result: HBCutsResult = self._generator.run(engine, resolved, attributes)
        ranked = self.ranker.rank(result.segmentations)
        if max_answers is not None:
            ranked = ranked[:max_answers]
        answers = [
            RankedAnswer(
                rank=position,
                segmentation=segmentation,
                scores=scores,
                score=self.ranker.score_for(segmentation, scores),
            )
            for position, (segmentation, scores) in enumerate(ranked, start=1)
        ]
        operations_after = engine.counter.snapshot()
        operations = {
            key: operations_after[key] - operations_before.get(key, 0)
            for key in operations_after
        }
        return Advice(
            context=resolved,
            answers=answers,
            trace=result.trace,
            ranker_name=self.ranker.name,
            engine_operations=operations,
            approximate=approximate,
            error_bound=engine.take_error_bound() if approximate else None,
        )

    def segment(
        self, context: ContextLike, attributes: Sequence[str]
    ) -> Segmentation:
        """Directly build one segmentation by cutting on the given attributes.

        Bypasses the dependence-driven search: the attributes are composed
        in the given order.  Useful for reproducing hand-picked answers
        such as Figure 1's ``departure_harbour × tonnage`` view.  Counts
        are exact, on a sampled advisor too.
        """
        from repro.core.cut import cut_query, cut_segmentation

        resolved = self.resolve_context(context)
        if not attributes:
            raise AdvisorError("segment() requires at least one attribute")
        engine = self._advice_engine("exact")
        segmentation = cut_query(engine, resolved, attributes[0])
        for attribute in attributes[1:]:
            segmentation = cut_segmentation(engine, segmentation, attribute)
        return segmentation

    def profile(self, context: ContextLike = None) -> TableProfile:
        """Statistical profile of the context's result set (CLI ``profile``),
        exact on a sampled advisor too."""
        from repro.storage.statistics import profile_backend

        return profile_backend(
            self._advice_engine("exact"), context=self.resolve_context(context)
        )

    def count(self, context: ContextLike) -> int:
        """Exact cardinality of a context, on a sampled advisor too."""
        return self._advice_engine("exact").count(self.resolve_context(context))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Charles(table={self.engine.name!r}, rows={self.engine.num_rows}, "
            f"max_indep={self.config.max_indep}, max_depth={self.config.max_depth})"
        )
