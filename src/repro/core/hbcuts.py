"""HB-cuts: Hierarchical Binary cuts (paper, Section 4 and Figure 4).

The heuristic that generates Charles' answers:

1. cut the context query on each of its attributes, producing one binary
   candidate segmentation per attribute;
2. repeatedly find the *most dependent* pair of candidates (smallest
   ``INDEP``), compose them, and replace the pair by the composition;
3. stop when the smallest ``INDEP`` exceeds ``max_indep`` (the paper found
   0.99 satisfying) or the composition would exceed ``max_depth`` queries
   (a pie chart with more than a dozen slices is hard to read);
4. return every intermediate segmentation encountered, sorted by entropy.

This module follows the Figure 4 listing closely while adding the
robustness a real dataset needs (attributes that cannot be cut are skipped
and recorded in the trace) and the computation-reuse optimisation the
paper hints at in Section 5.1 (INDEP values of unchanged candidate pairs
are cached across iterations).

Step 2 — finding the most dependent pair — needs ``E(S1 × S2)`` for every
pair whose INDEP is not cached (the Section 5.1 reading: the cost of
HB-cuts is counts over product cells).  The product's cell counts are its
contingency table, one
:meth:`~repro.backends.base.ExecutionBackend.crosstab` call per pair: the
memory engine reads it off one piece label per row of each operand, so
no cell query is built and no cell mask is computed or cached.

The loop is written once, as the generator :meth:`HBCuts.steps`;
:meth:`HBCuts.run` drains it and :class:`~repro.core.lazy.LazyAdvisor`
hands its segmentations out one at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import AdvisorError, CannotCutError
from repro.sdl.query import SDLQuery
from repro.sdl.segmentation import Segmentation
from repro.backends.base import ExecutionBackend
from repro.core.compose import compose
from repro.core.cut import cut_query
from repro.core.metrics import crosstab_indep, entropy

__all__ = ["HBCutsConfig", "HBCutsTrace", "HBCutsResult", "HBCuts"]

#: The INDEP threshold the paper reports as satisfying for most datasets.
DEFAULT_MAX_INDEP = 0.99

#: "We consider that a pie chart with more than a dozen slices is hard to
#: read" — the default bound on the number of queries per segmentation.
DEFAULT_MAX_DEPTH = 12

#: Significance level of the chi-square stopping rule.
CHI2_ALPHA = 0.01


@dataclass(frozen=True)
class HBCutsConfig:
    """Tunable parameters of the HB-cuts heuristic.

    Attributes
    ----------
    max_indep:
        Stop composing when the most dependent remaining pair has an INDEP
        value at or above this threshold (paper default 0.99).
    max_depth:
        Stop composing when the composition would contain at least this
        many queries (paper: about a dozen).
    stopping:
        ``"threshold"`` uses the fixed ``max_indep`` bound; ``"chi2"``
        additionally requires the pair to be significantly dependent
        according to a chi-square test at level :data:`CHI2_ALPHA` before
        composing (the hypothesis-testing variant mentioned in Section 4.2).
    reuse_indep:
        Cache INDEP values of candidate pairs across iterations (the
        Section 5.1 optimisation).  Disabling it is the E5 ablation.
    """

    max_indep: float = DEFAULT_MAX_INDEP
    max_depth: int = DEFAULT_MAX_DEPTH
    stopping: str = "threshold"
    reuse_indep: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.max_indep <= 1.0:
            raise AdvisorError(f"max_indep must lie in (0, 1], got {self.max_indep}")
        if self.max_depth < 2:
            raise AdvisorError(f"max_depth must be at least 2, got {self.max_depth}")
        if self.stopping not in ("threshold", "chi2"):
            raise AdvisorError(f"unknown stopping rule {self.stopping!r}")


@dataclass
class HBCutsTrace:
    """Execution trace of one HB-cuts run, used by the scalability benches.

    Attributes
    ----------
    initial_candidates:
        Attributes successfully cut during initialisation.
    uncuttable_attributes:
        Attributes skipped because they could not be cut.
    iterations:
        Number of composition iterations executed (including the final
        rejected one, matching Figure 4's loop).
    pair_evaluations:
        Number of INDEP evaluations actually computed (cache misses).
    pair_cache_hits:
        Number of INDEP evaluations answered from the cache.
    batched_passes:
        Number of INDEP passes: iterations that evaluated at least one
        uncached pair.
    compositions:
        Attribute sets composed, in order.
    indep_values:
        The INDEP value of each selected pair, in order.
    stop_reason:
        ``"indep"``, ``"depth"``, ``"exhausted"`` (fewer than two
        candidates remained) or ``"no_candidates"``.
    runtime_seconds:
        Wall-clock time of the run.
    """

    initial_candidates: List[str] = field(default_factory=list)
    uncuttable_attributes: List[str] = field(default_factory=list)
    iterations: int = 0
    pair_evaluations: int = 0
    pair_cache_hits: int = 0
    batched_passes: int = 0
    compositions: List[Tuple[str, ...]] = field(default_factory=list)
    indep_values: List[float] = field(default_factory=list)
    stop_reason: str = ""
    runtime_seconds: float = 0.0


@dataclass
class HBCutsResult:
    """The segmentations produced by one HB-cuts run, sorted by the ranking."""

    context: SDLQuery
    segmentations: List[Segmentation]
    trace: HBCutsTrace

    def __len__(self) -> int:
        return len(self.segmentations)

    def __iter__(self):
        return iter(self.segmentations)

    def __getitem__(self, index: int) -> Segmentation:
        return self.segmentations[index]

    def best(self) -> Segmentation:
        """The top-ranked segmentation."""
        if not self.segmentations:
            raise AdvisorError("HB-cuts produced no segmentation")
        return self.segmentations[0]


#: ``ExecutionBackend.crosstab``'s answer: one row of cell counts per piece
#: of the first operand.
CrossTab = Tuple[Tuple[int, ...], ...]

#: One event of the Figure 4 loop: a new candidate and the two candidates it
#: replaces (none for the initial single-attribute cuts).
Step = Tuple[Segmentation, Tuple[Segmentation, ...]]


class HBCuts:
    """The HB-cuts segmentation generator (Figure 4).

    Parameters
    ----------
    config:
        Heuristic parameters; defaults follow the paper.
    """

    def __init__(self, config: Optional[HBCutsConfig] = None):
        self.config = config or HBCutsConfig()

    # -- public API -----------------------------------------------------------

    def run(
        self,
        engine: ExecutionBackend,
        context: SDLQuery,
        attributes: Optional[Sequence[str]] = None,
    ) -> HBCutsResult:
        """Generate segmentations of ``context`` over the engine's table.

        Parameters
        ----------
        attributes:
            Restrict the exploration to these attributes; defaults to every
            attribute mentioned by the context (the paper's convention).
        """
        started = time.perf_counter()
        trace = HBCutsTrace()
        produced: List[Segmentation] = []
        replaced: List[Segmentation] = []
        for segmentation, parents in self.steps(engine, context, attributes, trace):
            produced.append(segmentation)
            replaced.extend(parents)
        # Figure 4's output order — each composed pair as it is replaced,
        # then the surviving candidates — breaks entropy ties in the sort.
        replaced_ids = set(map(id, replaced))
        output = replaced + [s for s in produced if id(s) not in replaced_ids]
        trace.runtime_seconds = time.perf_counter() - started
        ordered = sorted(output, key=entropy, reverse=True)
        return HBCutsResult(context=context, segmentations=ordered, trace=trace)

    def steps(
        self,
        engine: ExecutionBackend,
        context: SDLQuery,
        attributes: Optional[Sequence[str]] = None,
        trace: Optional[HBCutsTrace] = None,
    ) -> Iterator[Step]:
        """The Figure 4 loop, one :data:`Step` per segmentation it creates.

        Each initial cut is yielded before the next is computed and before
        any pair is evaluated; each accepted composition follows as soon
        as it exists, until a stopping rule fires.  ``trace`` is filled as
        the loop advances.
        """
        trace = trace if trace is not None else HBCutsTrace()
        explored = list(attributes) if attributes is not None else list(context.attributes)
        if not explored:
            raise AdvisorError("the context mentions no attribute to explore")

        # Lines 2-5 of Figure 4: one binary cut per context attribute.
        candidates: List[Segmentation] = []
        for attribute in explored:
            try:
                candidate = cut_query(engine, context, attribute)
            except CannotCutError:
                trace.uncuttable_attributes.append(attribute)
                continue
            candidates.append(candidate)
            trace.initial_candidates.append(attribute)
            yield candidate, ()

        # The INDEP cache is keyed by candidate ids, so replaced candidates
        # stay referenced for the whole run: a freed one's id could be
        # reused by a later composition and hit a stale entry.
        indep_cache: Dict[frozenset, Tuple[float, CrossTab]] = {}
        retired: List[Segmentation] = []
        while len(candidates) >= 2:
            trace.iterations += 1
            first, second, indep_value, table = self._most_dependent_pair(
                engine, candidates, indep_cache, trace
            )
            composed = compose(engine, first, second)
            trace.indep_values.append(indep_value)
            if self._should_stop(indep_value, table, composed):
                trace.stop_reason = (
                    "depth" if composed.depth >= self.config.max_depth else "indep"
                )
                return
            trace.compositions.append(composed.cut_attributes)
            retired += (first, second)
            candidates = [
                candidate
                for candidate in candidates
                if candidate is not first and candidate is not second
            ]
            candidates.append(composed)
            yield composed, (first, second)
        trace.stop_reason = "exhausted" if candidates else "no_candidates"

    # -- internals ---------------------------------------------------------------

    def _most_dependent_pair(
        self,
        engine: ExecutionBackend,
        candidates: Sequence[Segmentation],
        cache: Dict[frozenset, Tuple[float, CrossTab]],
        trace: HBCutsTrace,
    ) -> Tuple[Segmentation, Segmentation, float, CrossTab]:
        """Line 11 of Figure 4: argmin over candidate pairs of INDEP.

        Each pair whose INDEP is not cached costs one ``crosstab``, kept
        next to its INDEP for the chi-square stopping rule
        (:func:`~repro.core.metrics.crosstab_indep`: a pair whose product
        holds no row reads 1.0, so it is never the most dependent).  With
        ``reuse_indep`` off nothing carries over between iterations.
        """
        if not self.config.reuse_indep:
            cache.clear()

        def key(pair: Tuple[Segmentation, Segmentation]) -> frozenset:
            return frozenset(map(id, pair))

        pairs = [
            (candidates[i], candidates[j])
            for i in range(len(candidates))
            for j in range(i + 1, len(candidates))
        ]
        uncached = [pair for pair in pairs if key(pair) not in cache]
        trace.pair_cache_hits += len(pairs) - len(uncached)
        if uncached:
            trace.batched_passes += 1
            trace.pair_evaluations += len(uncached)
            for pair in uncached:
                table = engine.crosstab(*pair)
                cache[key(pair)] = (crosstab_indep(table, *pair), table)
        # min() keeps the first of equal values: ties go to the earlier pair.
        first, second = min(pairs, key=lambda pair: cache[key(pair)][0])
        return (first, second, *cache[key((first, second))])

    def _should_stop(
        self, indep_value: float, table: CrossTab, new_segmentation: Segmentation
    ) -> bool:
        """Line 15 of Figure 4: ``ind >= maxIndep || dep >= maxDepth``."""
        if new_segmentation.depth >= self.config.max_depth:
            return True
        if indep_value >= self.config.max_indep:
            return True
        if self.config.stopping == "chi2":
            from repro.core.dependence import chi_square_test

            _, p_value, _ = chi_square_test(table)
            if p_value >= CHI2_ALPHA:
                # The pair is not significantly dependent: stop composing.
                return True
        return False
