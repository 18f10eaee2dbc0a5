"""Storage substrate: an in-memory column store standing in for MonetDB.

The original Charles prototype was a C application on top of MonetDB; the
only back-end operations it needs are counts over conjunctive predicates
and median calculations (paper, Section 5.1).  This package provides a
NumPy-backed, dictionary-encoded column store with exactly that surface:

* :mod:`repro.storage.types`, :mod:`repro.storage.column`,
  :mod:`repro.storage.table` — the physical layer (a nominal set or
  exclusion is one pass over a column's dictionary codes, no index);
* :mod:`repro.storage.expression`, :mod:`repro.storage.engine` — SDL
  evaluation, aggregates, batched passes and operation accounting;
* :mod:`repro.storage.partition` — row-range sharding and the
  per-partition map/merge evaluation behind parallel execution;
* :mod:`repro.storage.cache` — the shared, thread-safe result cache
  (masks and aggregates) engines and the service layer plug into;
* :mod:`repro.storage.statistics` — table profiling (``charles profile``);
* :mod:`repro.storage.zonemap` — per-partition zone maps and shard
  skipping (the aggregate hot path's skipping-index tier);
* :mod:`repro.storage.sampling` — uniform sampling primitives (paper §5.2, E8);
* :mod:`repro.storage.sql` — SDL↔SQL translation (Charles as SQL front-end);
* :mod:`repro.storage.csv_loader` — CSV ingestion.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.storage.types": ("DataType",),
    "repro.storage.column": (
        "Column", "NumericColumn", "StringColumn", "BoolColumn", "build_column",
    ),
    "repro.storage.table": ("Table",),
    "repro.storage.expression": ("query_mask",),
    "repro.storage.partition": ("PartitionedTable",),
    "repro.storage.engine": (
        "QueryEngine", "OperationCounter", "resolve_index_features",
        "deduplicated_count_batch",
    ),
    "repro.storage.cache": ("ResultCache", "CacheStats"),
    "repro.storage.zonemap": ("SkippingIndexes",),
    "repro.storage.statistics": ("TableProfile", "profile_backend", "column_entropy"),
    "repro.storage.sampling": ("sample_table", "uniform_sample_indices"),
    "repro.storage.sql": ("query_to_where", "query_to_sql", "count_query_sql", "parse_where"),
    "repro.storage.csv_loader": ("load_csv",),
})

__all__ = list(_EXPORTS)
