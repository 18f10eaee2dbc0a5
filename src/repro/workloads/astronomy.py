"""The astronomy workload (demo proposal: "history and astronomy" databases).

A sky-survey-like object catalogue with the dependency structure a real
survey exhibits:

* the **object class drives brightness and redshift** — stars are nearby
  and spread across magnitudes, galaxies are fainter with moderate
  redshift, quasars are faint and at high redshift;
* **colour index correlates with magnitude** within each class;
* sky coordinates (``ra``, ``dec``) are independent of everything else —
  HB-cuts should leave them uncomposed;
* the **survey field** depends on the sky position (a nominal attribute
  derived from ``ra``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.storage.column import NumericColumn
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.workloads.generators import make_rng, nominal_column, numeric_from_category, serial_labels

__all__ = ["generate_astronomy"]

_CLASSES = ("star", "galaxy", "quasar")
_CLASS_WEIGHTS = (0.55, 0.35, 0.10)

_MAGNITUDE_MEANS = {"star": 14.5, "galaxy": 19.0, "quasar": 20.5}
_MAGNITUDE_SPREADS = {"star": 2.2, "galaxy": 1.4, "quasar": 1.0}

_REDSHIFT_MEANS = {"star": 0.0005, "galaxy": 0.15, "quasar": 1.8}
_REDSHIFT_SPREADS = {"star": 0.0004, "galaxy": 0.08, "quasar": 0.7}


def generate_astronomy(rows: int = 8000, seed: Optional[int] = 7) -> Table:
    """Generate the synthetic sky-survey catalogue, named ``sky_survey``."""
    if rows <= 0:
        raise WorkloadError(f"rows must be positive, got {rows}")
    rng = make_rng(seed)

    classes = (_CLASSES, rng.choice(len(_CLASSES), size=rows, p=_CLASS_WEIGHTS))

    ra = rng.uniform(0.0, 360.0, size=rows)
    dec = rng.uniform(-30.0, 60.0, size=rows)
    # The survey field is a coarse function of right ascension.
    stripes = (ra // 60.0).astype(np.int64)
    fields = ([f"field-{stripe:02d}" for stripe in range(int(stripes.max()) + 1)], stripes)

    magnitude = numeric_from_category(
        rng, classes, means=_MAGNITUDE_MEANS, spreads=_MAGNITUDE_SPREADS,
        minimum=8.0, maximum=26.0,
    )
    redshift = numeric_from_category(
        rng, classes, means=_REDSHIFT_MEANS, spreads=_REDSHIFT_SPREADS,
        minimum=0.0, maximum=6.0,
    )
    # Colour correlates with magnitude: fainter objects are redder on average.
    scatter = rng.normal(0.0, 0.25, size=rows)
    colour_index = 0.08 * (magnitude - 14.0) + scatter

    def rounded(column: str, values: np.ndarray, digits: int) -> NumericColumn:
        return NumericColumn(column, [round(v, digits) for v in values.tolist()], DataType.FLOAT)

    return Table("sky_survey", [
        nominal_column("object_id", serial_labels("obj-", rows, 7)),
        nominal_column("object_class", classes),
        rounded("ra", ra, 4),
        rounded("dec", dec, 4),
        nominal_column("field", fields),
        rounded("magnitude", magnitude, 3),
        rounded("redshift", redshift, 4),
        rounded("colour_index", colour_index, 3),
    ])
