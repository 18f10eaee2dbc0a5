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

from typing import List, Optional

from repro.errors import WorkloadError
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.workloads.generators import make_rng, numeric_from_category

__all__ = ["generate_astronomy"]

_CLASSES = ("star", "galaxy", "quasar")
_CLASS_WEIGHTS = (0.55, 0.35, 0.10)

_MAGNITUDE_MEANS = {"star": 14.5, "galaxy": 19.0, "quasar": 20.5}
_MAGNITUDE_SPREADS = {"star": 2.2, "galaxy": 1.4, "quasar": 1.0}

_REDSHIFT_MEANS = {"star": 0.0005, "galaxy": 0.15, "quasar": 1.8}
_REDSHIFT_SPREADS = {"star": 0.0004, "galaxy": 0.08, "quasar": 0.7}


def _field_for_ra(ra: float) -> str:
    """The survey field is a coarse function of right ascension."""
    stripe = int(ra // 60.0)
    return f"field-{stripe:02d}"


def generate_astronomy(
    rows: int = 8000, seed: Optional[int] = 7, name: str = "sky_survey"
) -> Table:
    """Generate the synthetic sky-survey catalogue."""
    if rows <= 0:
        raise WorkloadError(f"rows must be positive, got {rows}")
    rng = make_rng(seed)

    draws = rng.choice(len(_CLASSES), size=rows, p=_CLASS_WEIGHTS)
    classes = [_CLASSES[int(i)] for i in draws]

    ra: List[float] = [float(value) for value in rng.uniform(0.0, 360.0, size=rows)]
    dec: List[float] = [float(value) for value in rng.uniform(-30.0, 60.0, size=rows)]
    fields = [_field_for_ra(value) for value in ra]

    magnitude = numeric_from_category(
        rng, classes, means=_MAGNITUDE_MEANS, spreads=_MAGNITUDE_SPREADS,
        minimum=8.0, maximum=26.0,
    )
    redshift = numeric_from_category(
        rng, classes, means=_REDSHIFT_MEANS, spreads=_REDSHIFT_SPREADS,
        minimum=0.0, maximum=6.0,
    )
    # Colour correlates with magnitude: fainter objects are redder on average.
    colour_index = [
        float(0.08 * (m - 14.0) + rng.normal(0.0, 0.25)) for m in magnitude
    ]

    data = {
        "object_id": [f"obj-{index + 1:07d}" for index in range(rows)],
        "object_class": classes,
        "ra": [round(value, 4) for value in ra],
        "dec": [round(value, 4) for value in dec],
        "field": fields,
        "magnitude": [round(value, 3) for value in magnitude],
        "redshift": [round(value, 4) for value in redshift],
        "colour_index": [round(value, 3) for value in colour_index],
    }
    types = {
        "ra": DataType.FLOAT,
        "dec": DataType.FLOAT,
        "magnitude": DataType.FLOAT,
        "redshift": DataType.FLOAT,
        "colour_index": DataType.FLOAT,
    }
    return Table.from_dict(data, name=name, types=types)
