"""charles-repro: reproduction of "Meet Charles, big data query advisor" (CIDR 2013).

Charles answers a query with more queries: given a context over one
relation, it generates *segmentations* — partitions of the context into
conjunctive-predicate (SDL) queries — ranks them by entropy, breadth and
simplicity, and lets the user drill into any piece.

Package layout
--------------
* :mod:`repro.sdl` — the Segmentation Description Language (predicates,
  queries, segmentations, parser/formatter, partition validation);
* :mod:`repro.storage` — the in-memory column-store substrate (standing in
  for MonetDB): tables, the query engine, profiling, sampling, SQL glue;
* :mod:`repro.backends` — the :class:`ExecutionBackend` protocol, the
  SQLite backend and the spec registry (``"memory"``, ``"sqlite"``, …)
  that make Charles a true front-end for SQL systems;
* :mod:`repro.core` — the paper's contribution: CUT / COMPOSE / product,
  quality metrics, the HB-cuts heuristic, ranking, the Charles facade,
  interactive sessions, quantile/lazy extensions and baselines;
* :mod:`repro.live` — the live data subsystem: versioned mutable tables
  (:class:`VersionedTable`), incremental statistics maintenance and the
  data-version plumbing behind cache invalidation and advice staleness;
* :mod:`repro.service` — the multi-user service layer: named sessions,
  shared per-table result caches, batched engine passes;
* :mod:`repro.api` — the wire-level advisor API: versioned JSON codec,
  request/response envelopes, the stdlib HTTP server and the
  :class:`RemoteAdvisor` client mirroring the in-process sessions;
* :mod:`repro.workloads` — synthetic datasets (VOC shipping, astronomy,
  weblog, parametric ground-truth tables, concurrent user scenarios);
* :mod:`repro.viz` — terminal pie charts, tree maps and advice reports;
* :mod:`repro.cli` — the ``charles`` command-line interface.

Quickstart
----------
>>> from repro import Charles, generate_voc
>>> advisor = Charles(generate_voc(rows=2000, seed=7))
>>> advice = advisor.advise(["type_of_boat", "departure_harbour", "tonnage"])
>>> print(advice.best().describe())          # doctest: +SKIP
"""

from repro.errors import CharlesError
from repro.sdl import (
    ExclusionPredicate,
    NoConstraint,
    Predicate,
    RangePredicate,
    SDLQuery,
    Segment,
    Segmentation,
    SetPredicate,
    parse_query,
)
from repro.backends import (
    BackendRegistry,
    BackendWrapper,
    ExecutionBackend,
    ExecutorPool,
    SQLiteBackend,
    open_backend,
    register_backend,
)
from repro.storage import (
    DataType,
    PartitionedTable,
    QueryEngine,
    ResultCache,
    Table,
    load_csv,
    parse_where,
    profile_table,
    query_to_sql,
)
from repro.core import (
    Advice,
    Charles,
    EntropyRanker,
    ExplorationSession,
    HBCuts,
    HBCutsConfig,
    LazyAdvisor,
    RankedAnswer,
    WeightedRanker,
    compose,
    cut_query,
    cut_segmentation,
    entropy,
    hb_cuts,
    indep,
    product,
)
from repro.service import AdvisorService, ServiceSession
from repro.api import (
    AdvisorHTTPServer,
    RemoteAdvisor,
    RemoteSession,
)
from repro.live import IncrementalTableProfile, VersionedTable
from repro.workloads import (
    ServiceReport,
    generate_astronomy,
    generate_concurrent_workload,
    generate_voc,
    generate_weblog,
)
from repro.viz import pie_chart, render_advice, treemap

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CharlesError",
    # SDL
    "Predicate",
    "NoConstraint",
    "RangePredicate",
    "SetPredicate",
    "ExclusionPredicate",
    "SDLQuery",
    "Segment",
    "Segmentation",
    "parse_query",
    # backends
    "ExecutionBackend",
    "BackendWrapper",
    "BackendRegistry",
    "ExecutorPool",
    "SQLiteBackend",
    "open_backend",
    "register_backend",
    # storage
    "DataType",
    "Table",
    "PartitionedTable",
    "QueryEngine",
    "ResultCache",
    "load_csv",
    "parse_where",
    "profile_table",
    "query_to_sql",
    # live data
    "VersionedTable",
    "IncrementalTableProfile",
    # core
    "Charles",
    "Advice",
    "RankedAnswer",
    "HBCuts",
    "HBCutsConfig",
    "hb_cuts",
    "cut_query",
    "cut_segmentation",
    "compose",
    "product",
    "entropy",
    "indep",
    "EntropyRanker",
    "WeightedRanker",
    "ExplorationSession",
    "LazyAdvisor",
    # service
    "AdvisorService",
    "ServiceReport",
    "ServiceSession",
    # api
    "AdvisorHTTPServer",
    "RemoteAdvisor",
    "RemoteSession",
    # workloads
    "generate_voc",
    "generate_astronomy",
    "generate_weblog",
    "generate_concurrent_workload",
    # viz
    "pie_chart",
    "treemap",
    "render_advice",
]
