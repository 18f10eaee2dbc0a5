"""Synthetic workload generators.

The paper's demonstration uses domain-specific databases (Dutch East India
Company shipping records, astronomy catalogues) that are not distributed
with it; these generators produce tables with the same schema and planted
dependency structure so every figure-level experiment can be regenerated
offline.  :mod:`repro.workloads.synthetic` additionally provides
parametric tables with *known* ground truth for the benchmarks, and
:mod:`repro.workloads.concurrent` generates multi-user exploration
scenarios for the service layer.
"""

from repro.workloads.generators import (
    dependent_categorical_series,
    make_rng,
    numeric_from_category,
    year_series,
    zipf_categorical_series,
)
from repro.workloads.voc import FIGURE1_CONTEXT_COLUMNS, generate_voc
from repro.workloads.astronomy import generate_astronomy
from repro.workloads.weblog import generate_weblog
from repro.workloads.concurrent import generate_concurrent_workload, serve
from repro.workloads.synthetic import (
    make_dependent_pair_table,
    make_gaussian_table,
    make_wide_table,
    make_zipf_table,
)

__all__ = [
    "make_rng",
    "zipf_categorical_series",
    "dependent_categorical_series",
    "numeric_from_category",
    "year_series",
    "generate_voc",
    "FIGURE1_CONTEXT_COLUMNS",
    "generate_astronomy",
    "generate_weblog",
    "generate_concurrent_workload",
    "serve",
    "make_dependent_pair_table",
    "make_wide_table",
    "make_gaussian_table",
    "make_zipf_table",
]
