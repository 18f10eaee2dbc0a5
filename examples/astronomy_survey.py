#!/usr/bin/env python3
"""Exploring a sky-survey catalogue (the demo proposal's astronomy database).

Shows the advisor on scientific data and two of the paper's Section 5.2
extensions:

* dependence analysis between attributes (which pairs would Charles compose?);
* quantile cuts isolating the dense part of a skewed attribute;
* sampling for interactive response times on a larger catalogue.

Run with::

    python examples/astronomy_survey.py [--rows 20000]
"""

from __future__ import annotations

import argparse
import time

from repro import Charles, QueryEngine
from repro.core import (
    all_facet_segmentations,
    analyse_dependence,
    cut_query,
    quantile_cut_query,
)
from repro.sdl import SDLQuery
from repro.viz import pie_chart, render_advice
from repro.workloads import generate_astronomy

CONTEXT = ["object_class", "magnitude", "redshift", "ra", "dec"]


def dependence_overview(engine: QueryEngine) -> None:
    """Which attribute pairs are dependent enough to compose?"""
    context = SDLQuery.over(CONTEXT)
    cuts = {attribute: cut_query(engine, context, attribute) for attribute in CONTEXT}
    print("Pairwise dependence (INDEP < 0.99 means Charles may compose the pair):")
    names = list(cuts)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            report = analyse_dependence(engine, cuts[first], cuts[second])
            marker = "*" if report.indep < 0.99 else " "
            print(f"  {marker} {first:<14} x {second:<14} INDEP={report.indep:.3f}  "
                  f"V={report.cramers_v:.2f}  p={report.p_value:.1e}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    table = generate_astronomy(rows=args.rows, seed=args.seed)
    print(f"Generated a catalogue of {table.num_rows} objects.")
    print()

    engine = QueryEngine(table)
    dependence_overview(engine)

    # -- Exact advisor ------------------------------------------------------------
    advisor = Charles(table)
    started = time.perf_counter()
    advice = advisor.advise(CONTEXT, max_answers=5)
    exact_elapsed = time.perf_counter() - started
    print(render_advice(advice, style="table"))
    print()

    # -- Sampled advisor (Section 5.2) ---------------------------------------------
    sampled_advisor = Charles(table, backend="memory?sample=0.1&seed=1")
    started = time.perf_counter()
    sampled_advice = sampled_advisor.advise(CONTEXT, max_answers=5)
    sampled_elapsed = time.perf_counter() - started
    print(f"Exact advise():   {exact_elapsed * 1000:7.1f} ms")
    print(f"Sampled advise(): {sampled_elapsed * 1000:7.1f} ms "
          f"(10% sample, top answer: {', '.join(sampled_advice.best().attributes)})")
    print()

    # -- Quantile cuts on the redshift distribution --------------------------------
    context = SDLQuery.over(["object_class", "redshift"])
    terciles = quantile_cut_query(engine, context, "redshift", quantiles=(1 / 3, 2 / 3))
    print("Tercile cut of the redshift distribution (median cuts cannot isolate "
          "the dense low-redshift bulk):")
    print(pie_chart(terciles, width=50))
    print()

    # -- Faceted-search style single-attribute views for comparison ----------------
    print("Faceted-search style views (one attribute each):")
    for facet in all_facet_segmentations(engine, SDLQuery.over(["object_class", "field"])):
        print(f"  facet on {facet.cut_attributes[0]}: {facet.depth} groups")


if __name__ == "__main__":
    main()
