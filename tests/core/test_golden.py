"""Paper fidelity: E1–E4 outputs pinned as golden files.

``golden/e1_figure1.json`` holds the VOC Figure-1 answer list and the
selected ``departure_harbour × tonnage`` segmentation (queries, counts,
scores); ``golden/e2_operators.json`` the CUT / COMPOSE / product results
on the Figure-2 fleet; ``golden/e3_hbcuts_trace.json`` the HB-cuts trace
and segmentations of the Figure-3 table; ``golden/e4_independence.json``
the Proposition-1 INDEP values and contingency tables per planted
dependence strength.  Each uses exactly the data of its
``benchmarks/bench_e<N>_*.py`` at experiment scale.  Every backend below
must reproduce them: which access path the engine takes may never move
what the operators return or what HB-cuts advises.

Regenerate (only when the advisor's output is *meant* to change)::

    PYTHONPATH=src python tests/core/test_golden.py
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict

import numpy as np
import pytest

from repro.backends import open_backend
from repro.core import (
    Charles,
    HBCuts,
    HBCutsConfig,
    analyse_dependence,
    compose,
    contingency_table,
    cut_query,
    cut_segmentation,
    entropy,
    indep,
    product,
)
from repro.sdl import SDLQuery
from repro.storage import Table
from repro.workloads import (
    FIGURE1_CONTEXT_COLUMNS,
    generate_voc,
    make_dependent_pair_table,
    make_rng,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: The engine's own choice, the plain scan forced, every index forced.
BACKENDS = (
    "memory",
    "memory?index=none&partitions=1",
    "memory?index=all&partitions=4",
)


def _segmentation(segmentation) -> Dict[str, Any]:
    return {
        "cut_attributes": list(segmentation.cut_attributes),
        "queries": [segment.query.to_sdl() for segment in segmentation.segments],
        "counts": list(segmentation.counts),
        "entropy": entropy(segmentation),
    }


def e1_document(backend: str) -> Dict[str, Any]:
    advisor = Charles(generate_voc(rows=5000, seed=42), backend=backend)
    context = list(FIGURE1_CONTEXT_COLUMNS)
    advice = advisor.advise(context, max_answers=6)
    selected = advisor.segment(context, ["departure_harbour", "tonnage"])
    return {
        "answers": [
            {
                "rank": answer.rank,
                "score": answer.score,
                "scores": answer.scores.as_dict(),
                **_segmentation(answer.segmentation),
            }
            for answer in advice
        ],
        "selected": _segmentation(selected),
    }


def _figure2_table(rows: int = 4000, seed: int = 2) -> Table:
    """The Figure-2 fleet: the boat type determines tonnage band and era."""
    rng = make_rng(seed)
    data: Dict[str, list] = {"type_of_boat": [], "tonnage": [], "departure_date": []}
    for _ in range(rows):
        if rng.random() < 0.5:
            data["type_of_boat"].append("fluit")
            data["tonnage"].append(int(rng.uniform(1000, 2000)))
            data["departure_date"].append(int(rng.uniform(1700, 1750)))
        else:
            data["type_of_boat"].append("jacht")
            data["tonnage"].append(int(rng.uniform(3000, 5000)))
            data["departure_date"].append(int(rng.uniform(1750, 1780)))
    return Table.from_dict(data, name="figure2")


def e2_document(backend: str) -> Dict[str, Any]:
    engine = open_backend(backend, _figure2_table())
    context = SDLQuery.over(["type_of_boat", "tonnage", "departure_date"])
    by_type = cut_query(engine, context, "type_of_boat")
    by_date = cut_query(engine, context, "departure_date")
    return {
        "cut": _segmentation(cut_segmentation(engine, by_type, "tonnage")),
        "compose": _segmentation(compose(engine, by_type, by_date)),
        "product": _segmentation(product(engine, by_type, by_date, drop_empty=False)),
        "indep": indep(engine, by_type, by_date),
    }


def _figure3_table(rows: int = 4000, seed: int = 5) -> Table:
    """Five attributes: {a1,a2,a3} mutually dependent, {a4,a5} dependent."""
    rng = np.random.default_rng(seed)
    base_first = rng.integers(0, 2, size=rows)
    base_second = rng.integers(0, 2, size=rows)

    def noisy_copy(base, flip=0.08):
        noise = rng.random(rows) < flip
        return np.where(noise, 1 - base, base)

    return Table.from_dict(
        {
            "att1": [f"a{v}" for v in base_first],
            "att2": [f"b{v}" for v in noisy_copy(base_first)],
            "att3": [f"c{v}" for v in noisy_copy(base_first)],
            "att4": [f"d{v}" for v in base_second],
            "att5": [f"e{v}" for v in noisy_copy(base_second)],
        },
        name="figure3",
    )


def e3_document(backend: str) -> Dict[str, Any]:
    engine = open_backend(backend, _figure3_table())
    context = SDLQuery.over(["att1", "att2", "att3", "att4", "att5"])
    result = HBCuts(HBCutsConfig(max_indep=0.99, max_depth=12)).run(engine, context)
    trace = result.trace
    return {
        "trace": {
            "initial_candidates": list(trace.initial_candidates),
            "uncuttable_attributes": list(trace.uncuttable_attributes),
            "iterations": trace.iterations,
            "pair_evaluations": trace.pair_evaluations,
            "pair_cache_hits": trace.pair_cache_hits,
            "compositions": [list(c) for c in trace.compositions],
            "indep_values": list(trace.indep_values),
            "stop_reason": trace.stop_reason,
        },
        "segmentations": [_segmentation(s) for s in result],
    }


def e4_document(backend: str) -> Dict[str, Any]:
    document: Dict[str, Any] = {}
    for strength in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        table = make_dependent_pair_table(
            rows=6000, strength=strength, cardinality=2, seed=11
        )
        engine = open_backend(backend, table)
        context = SDLQuery.over(["x", "y"])
        first = cut_query(engine, context, "x")
        second = cut_query(engine, context, "y")
        report = analyse_dependence(engine, first, second)
        document[f"{strength:.2f}"] = {
            "table": contingency_table(engine, first, second).tolist(),
            "indep": report.indep,
            "mutual_information": report.mutual_information,
            "chi_square": report.chi_square,
            "p_value": report.p_value,
            "sum_entropy": entropy(first) + entropy(second),
            "product_entropy": entropy(
                product(engine, first, second, drop_empty=False)
            ),
        }
    return document


DOCUMENTS = {
    "e1_figure1": e1_document,
    "e2_operators": e2_document,
    "e3_hbcuts_trace": e3_document,
    "e4_independence": e4_document,
}


def _assert_same(actual: Any, expected: Any, where: str) -> None:
    """Exact on structure, strings and integers; 1e-12 relative on floats."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{index}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12), where
    else:
        assert actual == expected, where


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_output_matches_the_golden_file(name: str, backend: str) -> None:
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    _assert_same(DOCUMENTS[name](backend), expected, name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, document in DOCUMENTS.items():
        path = GOLDEN / f"{name}.json"
        path.write_text(
            json.dumps(document("memory"), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path}")
