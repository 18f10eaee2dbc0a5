"""Synthetic workload generators.

The paper's demonstration uses domain-specific databases (Dutch East India
Company shipping records, astronomy catalogues) that are not distributed
with it; these generators produce tables with the same schema and planted
dependency structure so every figure-level experiment can be regenerated
offline.  :mod:`repro.workloads.synthetic` additionally provides
parametric tables with *known* ground truth for property tests and
benchmarks, and :mod:`repro.workloads.concurrent` generates multi-user
exploration scenarios for the service layer and benchmark E12.
"""

from repro.workloads.generators import (
    batched,
    categorical_series,
    correlated_numeric_series,
    dependent_categorical_series,
    make_rng,
    mixture_numeric_series,
    numeric_from_category,
    year_series,
    zipf_categorical_series,
)
from repro.workloads.voc import FIGURE1_CONTEXT_COLUMNS, VOC_COLUMNS, generate_voc
from repro.workloads.astronomy import ASTRONOMY_COLUMNS, generate_astronomy
from repro.workloads.weblog import WEBLOG_COLUMNS, generate_weblog
from repro.workloads.concurrent import (
    ServiceReport,
    UserAction,
    UserScript,
    generate_concurrent_workload,
    serve,
)
from repro.workloads.synthetic import (
    make_correlated_table,
    make_dependent_pair_table,
    make_gaussian_table,
    make_independent_table,
    make_numeric_table,
    make_wide_table,
    make_zipf_table,
)

__all__ = [
    "make_rng",
    "batched",
    "categorical_series",
    "zipf_categorical_series",
    "dependent_categorical_series",
    "numeric_from_category",
    "mixture_numeric_series",
    "correlated_numeric_series",
    "year_series",
    "generate_voc",
    "VOC_COLUMNS",
    "FIGURE1_CONTEXT_COLUMNS",
    "generate_astronomy",
    "ASTRONOMY_COLUMNS",
    "generate_weblog",
    "WEBLOG_COLUMNS",
    "UserAction",
    "UserScript",
    "generate_concurrent_workload",
    "ServiceReport",
    "serve",
    "make_independent_table",
    "make_dependent_pair_table",
    "make_correlated_table",
    "make_wide_table",
    "make_numeric_table",
    "make_gaussian_table",
    "make_zipf_table",
]
