"""Ranked-answer reports: the textual equivalent of the Figure 1 interface.

The Charles GUI shows three panels: the context (left), the ranked list of
candidate segmentations (top), and the currently selected segmentation
(centre).  :func:`render_advice` produces the same three blocks as text,
using the pie chart and tree map renderers for the detail view.
"""

from __future__ import annotations

from typing import Optional

from repro.core.advisor import Advice, RankedAnswer
from repro.viz.piechart import compact_pie, pie_chart
from repro.viz.treemap import treemap

__all__ = ["render_advice"]


def render_context(advice: Advice) -> str:
    """The left panel: the context query, one predicate per line."""
    lines = ["context:"]
    for predicate in advice.context.predicates:
        lines.append(f"  {predicate.to_sdl()}")
    if advice.engine_operations:
        operations = advice.engine_operations.get("total_database_operations")
        if operations is not None:
            lines.append(f"  ({operations} database operations issued)")
    return "\n".join(lines)


def render_answer_list(advice: Advice, width: int = 24) -> str:
    """The top panel: one line per ranked answer with a compact pie strip."""
    lines = [f"ranked answers ({advice.ranker_name}):"]
    for answer in advice.answers:
        title = ", ".join(answer.attributes) or "(no attribute)"
        lines.append(
            f"  #{answer.rank:<2} {compact_pie(answer.segmentation, width=width)} "
            f"E={answer.scores.entropy:5.2f}  breadth={answer.scores.breadth}  "
            f"depth={answer.scores.depth:<3} {title}"
        )
    return "\n".join(lines)


def render_answer(
    answer: RankedAnswer,
    style: str = "pie",
    width: int = 40,
    height: int = 10,
) -> str:
    """The main panel: the selected segmentation in detail.

    ``style`` selects the renderer: ``"pie"`` (default), ``"treemap"``, or
    ``"table"`` (plain per-segment listing).
    """
    if style == "treemap":
        return treemap(answer.segmentation, width=width, height=height)
    if style == "table":
        return answer.describe()
    return pie_chart(answer.segmentation, width=width)


def render_advice(
    advice: Advice,
    selected: int = 0,
    style: str = "pie",
    width: int = 40,
    height: int = 10,
    max_answers: Optional[int] = None,
) -> str:
    """Render the full three-panel view for one advice.

    Parameters
    ----------
    selected:
        Index of the answer shown in the detail panel.
    style:
        Detail renderer (``"pie"``, ``"treemap"`` or ``"table"``).
    max_answers:
        Truncate the answer list (None shows everything).
    """
    shown = advice
    if max_answers is not None and len(advice.answers) > max_answers:
        shown = Advice(
            context=advice.context,
            answers=advice.answers[:max_answers],
            trace=advice.trace,
            ranker_name=advice.ranker_name,
            engine_operations=advice.engine_operations,
        )
    blocks = [render_context(shown), "", render_answer_list(shown)]
    if shown.answers:
        selected = max(0, min(selected, len(shown.answers) - 1))
        blocks.extend(["", f"selected answer #{shown.answers[selected].rank}:",
                       render_answer(shown.answers[selected], style=style,
                                     width=width, height=height)])
    return "\n".join(blocks)
