"""Storage substrate: an in-memory column store standing in for MonetDB.

The original Charles prototype was a C application on top of MonetDB; the
only back-end operations it needs are counts over conjunctive predicates
and median calculations (paper, Section 5.1).  This package provides a
NumPy-backed, dictionary-encoded column store with exactly that surface:

* :mod:`repro.storage.types`, :mod:`repro.storage.column`,
  :mod:`repro.storage.table` — the physical layer;
* :mod:`repro.storage.expression`, :mod:`repro.storage.engine` — SDL
  evaluation, aggregates, batched passes and operation accounting;
* :mod:`repro.storage.partition` — row-range sharding and the
  per-partition map/merge evaluation behind parallel execution;
* :mod:`repro.storage.cache` — the shared, thread-safe result cache
  (masks and aggregates) engines and the service layer plug into;
* :mod:`repro.storage.statistics` — table profiling (``charles profile``);
* :mod:`repro.storage.index` — bitmap indexes;
* :mod:`repro.storage.zonemap` — per-partition zone maps and shard
  skipping (the aggregate hot path's skipping-index tier);
* :mod:`repro.storage.sampling` — uniform sampling primitives (paper §5.2, E8);
* :mod:`repro.storage.sql` — SDL↔SQL translation (Charles as SQL front-end);
* :mod:`repro.storage.csv_loader` — CSV ingestion.
"""

from repro.storage.types import DataType
from repro.storage.column import (
    BoolColumn,
    Column,
    NumericColumn,
    StringColumn,
    build_column,
)
from repro.storage.table import Table
from repro.storage.expression import query_mask, refinement_delta
from repro.storage.partition import PartitionedTable
from repro.storage.cache import CacheStats, ResultCache
from repro.storage.engine import (
    OperationCounter,
    QueryEngine,
    deduplicated_count_batch,
    resolve_index_features,
)
from repro.storage.index import BitmapIndex
from repro.storage.zonemap import SkippingIndexes
from repro.storage.statistics import TableProfile, column_entropy, profile_backend
from repro.storage.sampling import sample_table, uniform_sample_indices
from repro.storage.sql import count_query_sql, parse_where, query_to_sql, query_to_where
from repro.storage.csv_loader import load_csv

__all__ = [
    "DataType",
    "Column",
    "NumericColumn",
    "StringColumn",
    "BoolColumn",
    "build_column",
    "Table",
    "query_mask",
    "refinement_delta",
    "PartitionedTable",
    "QueryEngine",
    "OperationCounter",
    "resolve_index_features",
    "deduplicated_count_batch",
    "ResultCache",
    "CacheStats",
    "BitmapIndex",
    "SkippingIndexes",
    "TableProfile",
    "profile_backend",
    "column_entropy",
    "sample_table",
    "uniform_sample_indices",
    "query_to_where",
    "query_to_sql",
    "count_query_sql",
    "parse_where",
    "load_csv",
]
