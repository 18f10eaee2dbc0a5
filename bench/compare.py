#!/usr/bin/env python3
"""Compare two sets of benchmark result files, metric by metric.

``python3 bench/compare.py A.json B.json``
``python3 bench/compare.py --base A1.json A2.json A3.json --new B1.json B2.json B3.json``

Each file is a result file written by ``bench/run.py`` (all-workloads
mode).  For every workload × end-to-end metric the table shows both
sides (the median, and the quartiles when a side has several runs), the
ratio *with its base*, the regression bound from ``BENCHMARK.json`` and a
verdict:

* ``ok`` — the new median is no worse than the base median by more than
  the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the spread between repeated runs of one side (the
  distance between its quartiles, as a share of its median) is wider
  than the bound, so the two medians cannot be told apart at that
  resolution.  Run more or longer; do not read it as "unchanged".

Each workload also gets a ``failed_share`` row (failed ÷ attempted
requests; a failed oracle check counts).  Its bound is absolute: any run
of the new side above 0 reads ``regressed``.  The client-observed timings
(``client.*`` of the per-layer list) follow as ``not gated`` rows: on the
machine the benchmark was written on they do not repeat within a tenth,
so they carry no bound; read their quartiles.

The output is a markdown table.  The exit code is 1 when any row is
``regressed``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Row", "compare", "render", "spread", "verdict"]

_CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    base: List[float]
    new: List[float]
    bound: Optional[float]
    better: str
    verdict: str


def quartiles(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """First and third quartile, or ``None`` with fewer than two values."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return first, third


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (``None``: unknown)."""
    found = quartiles(values)
    median = statistics.median(values) if values else 0.0
    if found is None or not median:
        return None
    return (found[1] - found[0]) / abs(median)


def verdict(
    base: Sequence[float], new: Sequence[float], bound: float, better: str
) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one workload × metric."""
    if not base or not new:
        return "missing"
    spreads = [value for value in (spread(base), spread(new)) if value is not None]
    if spreads and max(spreads) > bound:
        return "unresolved"
    before, after = statistics.median(base), statistics.median(new)
    worse_by = (after - before) if better == "lower" else (before - after)
    return "regressed" if worse_by > bound * abs(before) else "ok"


def _values(documents: Sequence[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    values = []
    for document in documents:
        parts = document.get("workloads", {}).get(workload, {})
        if metric == "failed_share":
            value = parts.get("end_to_end", {}).get(metric)
        else:
            part = "per_layer" if metric.startswith("client.") else "end_to_end"
            value = (parts.get(part, {}).get("metrics") or {}).get(metric)
        if isinstance(value, (int, float)):
            values.append(float(value))
    return values


def _failures(workload: str, base: List[float], new: List[float]) -> Row:
    """The ``failed_share`` row: must be 0, whatever the base was."""
    if not base or not new:
        found = "missing"
    else:
        found = "regressed" if max(new) > 0 else "ok"
    return Row(workload, "failed_share", "ratio", base, new, 0.0, "lower", found)


def compare(
    base: Sequence[Dict[str, Any]], new: Sequence[Dict[str, Any]], contract: Dict[str, Any]
) -> List[Row]:
    """One row per workload × end-to-end metric of the contract, plus failures."""
    rows = []
    for workload in contract["workloads"]:
        for metric in contract["end_to_end"]:
            before = _values(base, workload["name"], metric["name"])
            after = _values(new, workload["name"], metric["name"])
            rows.append(
                Row(
                    workload["name"], metric["name"], metric["unit"], before, after,
                    float(metric["bound"]), metric["better"],
                    verdict(before, after, float(metric["bound"]), metric["better"]),
                )
            )
        rows.append(
            _failures(
                workload["name"],
                _values(base, workload["name"], "failed_share"),
                _values(new, workload["name"], "failed_share"),
            )
        )
        for metric in contract.get("per_layer", ()):
            before = _values(base, workload["name"], metric["name"])
            after = _values(new, workload["name"], metric["name"])
            if metric["name"].startswith("client.") and (before or after):
                rows.append(
                    Row(workload["name"], metric["name"], metric["unit"], before, after,
                        None, metric["better"], "not gated")
                )
    return rows


def _side(values: Sequence[float]) -> str:
    if not values:
        return "—"
    text = f"{statistics.median(values):.4g}"
    found = quartiles(values)
    if found is not None:
        text += f" [{found[0]:.4g}–{found[1]:.4g}] (n={len(values)})"
    return text


def render(rows: Sequence[Row]) -> str:
    """The comparison as a markdown table."""
    lines = [
        "| workload | metric | base | new | ratio | bound | verdict |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        if row.base and row.new and statistics.median(row.base):
            before = statistics.median(row.base)
            ratio = f"{statistics.median(row.new) / before:.3f}× of {before:.4g} {row.unit}"
        else:
            ratio = "—"
        direction = "↓" if row.better == "lower" else "↑"
        lines.append(
            f"| {row.workload} | {row.metric} {direction} | {_side(row.base)} | "
            f"{_side(row.new)} | {ratio} | "
            f"{'—' if row.bound is None else format(row.bound, '.2f')} | {row.verdict} |"
        )
    return "\n".join(lines)


def _load(paths: Sequence[str]) -> List[Dict[str, Any]]:
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="two result files: BASE NEW")
    parser.add_argument("--base", nargs="+", default=[], help="result files of the base side")
    parser.add_argument("--new", nargs="+", default=[], help="result files of the new side")
    parser.add_argument("--contract", default=str(_CONTRACT),
                        help="the BENCHMARK.json holding the bounds")
    args = parser.parse_args(argv)
    if args.files:
        if len(args.files) != 2 or args.base or args.new:
            parser.error("give either BASE NEW, or --base FILES --new FILES")
        args.base, args.new = [args.files[0]], [args.files[1]]
    if not args.base or not args.new:
        parser.error("both sides need at least one result file")
    with open(args.contract, encoding="utf-8") as handle:
        contract = json.load(handle)
    rows = compare(_load(args.base), _load(args.new), contract)
    print(render(rows))
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row.verdict] = counts.get(row.verdict, 0) + 1
    print("\n" + ", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
