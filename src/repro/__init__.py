"""charles-repro: reproduction of "Meet Charles, big data query advisor" (CIDR 2013).

Charles answers a query with more queries: given a context over one
relation, it generates *segmentations* — partitions of the context into
conjunctive-predicate (SDL) queries — ranks them by entropy, breadth and
simplicity, and lets the user drill into any piece.

Package layout
--------------
* :mod:`repro.sdl` — the Segmentation Description Language (predicates,
  queries, segmentations, parser/formatter, the partition check);
* :mod:`repro.storage` — the in-memory column-store substrate (standing in
  for MonetDB): tables, the query engine, profiling, sampling, SQL glue;
* :mod:`repro.backends` — the :class:`ExecutionBackend` protocol, the
  SQLite backend and the backend specs (``"memory"``, ``"sqlite"``, …)
  that make Charles a true front-end for SQL systems;
* :mod:`repro.core` — the paper's contribution: CUT / COMPOSE / product,
  quality metrics, the HB-cuts heuristic, ranking, the Charles facade and
  interactive sessions, plus the §5.2 extensions a user reaches (the
  surprise ranker, lazy advice, quantile cuts) and E9's baselines;
* :mod:`repro.live` — the live data subsystem: versioned mutable tables
  (:class:`VersionedTable`) and the data-version plumbing behind cache
  invalidation and advice staleness;
* :mod:`repro.service` — the multi-user service layer: named sessions,
  shared per-table result caches, batched engine passes;
* :mod:`repro.api` — the wire-level advisor API: versioned JSON codec,
  request/response envelopes, the stdlib HTTP server and the
  :class:`RemoteAdvisor` client mirroring the in-process sessions;
* :mod:`repro.workloads` — synthetic datasets (VOC shipping, astronomy,
  weblog, parametric ground-truth tables, concurrent user scenarios);
* :mod:`repro.viz` — terminal pie charts, tree maps and advice reports;
* :mod:`repro.cli` — the ``charles`` command-line interface.

Importing the package is cheap
------------------------------
``import repro`` (and so ``import repro.cluster``, ``repro.api``,
``repro.obs``, ``repro.cli``) loads no NumPy and no engine: every public
name below is resolved from its home module on first access (PEP 562).
``from repro import Charles`` loads what ``Charles`` needs; the cluster
router, which only moves wire envelopes, never does.

Quickstart
----------
>>> from repro import Charles, generate_voc
>>> advisor = Charles(generate_voc(rows=2000, seed=7))
>>> advice = advisor.advise(["type_of_boat", "departure_harbour", "tonnage"])
>>> print(advice.best().describe())          # doctest: +SKIP
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Tuple

__version__ = "1.0.0"


def _lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package whose public
    names (``exports``: name → module) are imported on first access."""

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)  # later lookups never get here
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__


#: Each public name → the module it is imported from on first access.
_EXPORTS: Dict[str, str] = {
    name: module
    for module, names in (
        ("repro.errors", ("CharlesError",)),
        ("repro.sdl", (
            "Predicate", "NoConstraint", "RangePredicate", "SetPredicate",
            "ExclusionPredicate", "SDLQuery", "Segment", "Segmentation",
            "parse_query",
        )),
        ("repro.backends", (
            "ExecutionBackend", "BackendWrapper", "ExecutorPool", "SQLiteBackend",
            "open_backend",
        )),
        ("repro.storage", (
            "DataType", "Table", "PartitionedTable", "QueryEngine", "ResultCache",
            "load_csv", "parse_where", "query_to_sql",
        )),
        ("repro.live", ("VersionedTable",)),
        ("repro.core", (
            "Charles", "Advice", "RankedAnswer", "HBCuts", "HBCutsConfig",
            "cut_query", "cut_segmentation", "compose", "product", "entropy", "indep",
            "EntropyRanker", "WeightedRanker", "ExplorationSession", "LazyAdvisor",
        )),
        ("repro.service", ("AdvisorService", "ServiceSession")),
        ("repro.api", ("AdvisorHTTPServer", "RemoteAdvisor", "RemoteSession")),
        ("repro.workloads", (
            "generate_voc", "generate_astronomy", "generate_weblog",
            "generate_concurrent_workload",
        )),
        ("repro.viz", ("pie_chart", "treemap", "render_advice")),
    )
    for name in names
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
