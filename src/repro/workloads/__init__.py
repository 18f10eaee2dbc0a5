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

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.workloads.generators": (
        "make_rng", "zipf_categorical_series", "dependent_categorical_series",
        "numeric_from_category", "year_series",
    ),
    "repro.workloads.voc": ("generate_voc", "FIGURE1_CONTEXT_COLUMNS"),
    "repro.workloads.astronomy": ("generate_astronomy",),
    "repro.workloads.weblog": ("generate_weblog",),
    "repro.workloads.concurrent": ("generate_concurrent_workload", "serve"),
    "repro.workloads.synthetic": (
        "make_dependent_pair_table", "make_wide_table", "make_gaussian_table",
        "make_zipf_table",
    ),
})

__all__ = list(_EXPORTS)
