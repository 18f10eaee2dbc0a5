"""The weblog workload (the paper's introduction motivates web-log grinding).

A web-analytics access log with the skew and dependencies such logs have:

* **URL category popularity is Zipf-distributed**;
* the **response time depends on the URL category** (static assets are
  fast, search and checkout are slow);
* the **status code depends on the URL category** (the API errors more
  often than the landing page);
* the **device mix depends on the country**, the referrer on the device;
* the hour of day is independent of everything else.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.storage.column import NumericColumn
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.workloads.generators import (
    dependent_categorical_series,
    make_rng,
    nominal_column,
    numeric_from_category,
    serial_labels,
    zipf_categorical_series,
)

__all__ = ["generate_weblog"]

_URL_CATEGORIES = (
    "landing", "product", "search", "checkout", "api", "static", "account", "help",
)

_RESPONSE_MEANS = {
    "landing": 120.0, "product": 180.0, "search": 420.0, "checkout": 650.0,
    "api": 90.0, "static": 25.0, "account": 210.0, "help": 140.0,
}
_RESPONSE_SPREADS = {
    "landing": 40.0, "product": 60.0, "search": 160.0, "checkout": 220.0,
    "api": 35.0, "static": 8.0, "account": 70.0, "help": 45.0,
}

_STATUS_BY_CATEGORY = {
    "landing": ("200", "200", "200", "304"),
    "product": ("200", "200", "304", "404"),
    "search": ("200", "200", "500"),
    "checkout": ("200", "302", "500"),
    "api": ("200", "200", "400", "500"),
    "static": ("200", "304", "304"),
    "account": ("200", "302", "401"),
    "help": ("200", "200", "304"),
}
_ALL_STATUSES = ("200", "302", "304", "400", "401", "404", "500")

_COUNTRIES = ("NL", "DE", "US", "GB", "FR", "IN", "BR", "JP")

_DEVICES_BY_COUNTRY = {
    "NL": ("desktop", "mobile"),
    "DE": ("desktop", "mobile"),
    "US": ("mobile", "desktop", "tablet"),
    "GB": ("mobile", "desktop"),
    "FR": ("desktop", "mobile"),
    "IN": ("mobile", "mobile", "tablet"),
    "BR": ("mobile", "mobile", "desktop"),
    "JP": ("mobile", "desktop"),
}
_ALL_DEVICES = ("desktop", "mobile", "tablet")

_REFERRERS_BY_DEVICE = {
    "desktop": ("search_engine", "direct", "newsletter"),
    "mobile": ("social", "search_engine", "direct"),
    "tablet": ("social", "direct"),
}
_ALL_REFERRERS = ("search_engine", "direct", "newsletter", "social")


def generate_weblog(rows: int = 10000, seed: Optional[int] = 13) -> Table:
    """Generate the synthetic web access log, named ``weblog``."""
    if rows <= 0:
        raise WorkloadError(f"rows must be positive, got {rows}")
    rng = make_rng(seed)

    url_categories = zipf_categorical_series(rng, rows, _URL_CATEGORIES, exponent=1.1)
    response_times = numeric_from_category(
        rng, url_categories, means=_RESPONSE_MEANS, spreads=_RESPONSE_SPREADS,
        minimum=1.0, integer=True,
    )
    statuses = dependent_categorical_series(
        rng, url_categories, mapping=_STATUS_BY_CATEGORY, noise=0.05,
        all_categories=_ALL_STATUSES,
    )
    # ``int(max(200, x))``: x if above 200, truncated towards zero.
    sizes = rng.lognormal(mean=8.0, sigma=1.0, size=rows)
    bytes_sent = np.where(sizes > 200, sizes, 200).astype(np.int64)
    countries = zipf_categorical_series(rng, rows, _COUNTRIES, exponent=0.9)
    devices = dependent_categorical_series(
        rng, countries, mapping=_DEVICES_BY_COUNTRY, noise=0.1,
        all_categories=_ALL_DEVICES,
    )
    referrers = dependent_categorical_series(
        rng, devices, mapping=_REFERRERS_BY_DEVICE, noise=0.15,
        all_categories=_ALL_REFERRERS,
    )
    hours = rng.integers(0, 24, size=rows)

    return Table("weblog", [
        nominal_column("request_id", serial_labels("req-", rows, 8)),
        nominal_column("url_category", url_categories),
        # Status codes are categorical labels, not measurements.
        nominal_column("status_code", statuses),
        NumericColumn("response_time_ms", response_times, DataType.INT),
        NumericColumn("bytes_sent", bytes_sent, DataType.INT),
        nominal_column("country", countries),
        nominal_column("device", devices),
        nominal_column("referrer", referrers),
        NumericColumn("hour", hours, DataType.INT),
    ])
