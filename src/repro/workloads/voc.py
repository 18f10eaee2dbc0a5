"""The VOC shipping workload (the paper's running example).

Figure 1 and the demonstration proposal explore a historical database of
Dutch East India Company (VOC) voyages with columns such as ``tonnage``,
``type_of_boat``, ``built``, ``yard``, ``departure_date``,
``departure_harbour``, ``cape_arrival``, ``trip`` and ``master``.  The
original data is not distributed with the paper, so this generator plants
the same statistical structure the screenshots rely on:

* the **boat type determines a tonnage band** (the dependency the Figure 2
  CUT example uses);
* **departure harbours cluster by era and by boat type** (the dependency
  behind the Figure 1 ``departure_harbour × tonnage`` answer);
* the ship's **yard** depends on the harbour, the **build year** precedes
  the departure date, and the Cape arrival lags the departure;
* masters and trip identifiers are high-cardinality labels with no planted
  dependency (they should *not* be composed by HB-cuts).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.workloads.generators import (
    _replay_draws,
    dependent_categorical_series,
    make_rng,
    numeric_from_category,
    year_series,
)

__all__ = ["generate_voc", "FIGURE1_CONTEXT_COLUMNS"]

#: The columns ticked in the Figure 1 screenshot's context.
FIGURE1_CONTEXT_COLUMNS = ("type_of_boat", "departure_harbour", "tonnage")

_BOAT_TYPES = ("fluit", "jacht", "spiegelretourschip", "pinas", "galjoot", "hoeker")

#: Mean tonnage and spread per boat type: the planted type -> tonnage band.
_TONNAGE_MEANS = {
    "fluit": 1150.0,
    "jacht": 1300.0,
    "spiegelretourschip": 2600.0,
    "pinas": 2100.0,
    "galjoot": 3200.0,
    "hoeker": 4200.0,
}
_TONNAGE_SPREADS = {
    "fluit": 90.0,
    "jacht": 110.0,
    "spiegelretourschip": 220.0,
    "pinas": 180.0,
    "galjoot": 260.0,
    "hoeker": 320.0,
}

#: Harbours preferred by each boat type (small vessels sail the eastern
#: routes, large vessels the Atlantic ones) — the second planted dependency.
_HARBOURS_BY_TYPE = {
    "fluit": ("Bantam", "Rammenkens", "Batavia"),
    "jacht": ("Bantam", "Rammenkens", "Texel"),
    "spiegelretourschip": ("Surat", "Zeeland", "Texel"),
    "pinas": ("Surat", "Zeeland", "Batavia"),
    "galjoot": ("Zeeland", "Amsterdam"),
    "hoeker": ("Amsterdam", "Zeeland"),
}
_ALL_HARBOURS = ("Bantam", "Rammenkens", "Batavia", "Surat", "Zeeland", "Texel", "Amsterdam")

#: Shipyard depends on the departure harbour (regional yards).
_YARDS_BY_HARBOUR = {
    "Bantam": ("Batavia yard", "Onrust"),
    "Rammenkens": ("Zeeland yard", "Middelburg"),
    "Batavia": ("Batavia yard", "Onrust"),
    "Surat": ("Surat wharf", "Onrust"),
    "Zeeland": ("Zeeland yard", "Middelburg"),
    "Texel": ("Amsterdam yard", "Hoorn"),
    "Amsterdam": ("Amsterdam yard", "Hoorn"),
}
_ALL_YARDS = ("Batavia yard", "Onrust", "Zeeland yard", "Middelburg", "Surat wharf",
              "Amsterdam yard", "Hoorn")

_MASTER_FIRST = ("Jan", "Pieter", "Willem", "Cornelis", "Dirck", "Hendrick", "Gerrit",
                 "Claes", "Adriaen", "Jacob")
_MASTER_LAST = ("Janszoon", "de Vries", "van Dam", "Bontekoe", "Tasman", "Houtman",
                "van Neck", "de Houtman", "Evertsen", "van Riebeeck")
_MASTER_NAMES = np.array([f"{a} {b}" for a in _MASTER_FIRST for b in _MASTER_LAST], dtype=object)


def generate_voc(rows: int = 5000, seed: Optional[int] = 42, name: str = "voc") -> Table:
    """Generate the synthetic VOC shipping table.

    Parameters
    ----------
    rows:
        Number of voyages to generate.
    seed:
        Random seed; identical seeds yield identical tables.
    name:
        Table name used in SQL rendering and reports.
    """
    if rows <= 0:
        raise WorkloadError(f"rows must be positive, got {rows}")
    rng = make_rng(seed)

    # Boat types: the two light types dominate, as in the historical fleet.
    type_weights = (0.30, 0.26, 0.16, 0.12, 0.09, 0.07)
    draws = rng.choice(len(_BOAT_TYPES), size=rows, p=type_weights)
    boat_types = np.array(_BOAT_TYPES, dtype=object)[draws].tolist()

    tonnage = numeric_from_category(
        rng,
        boat_types,
        means=_TONNAGE_MEANS,
        spreads=_TONNAGE_SPREADS,
        minimum=1000.0,
        maximum=5000.0,
        integer=True,
    )
    harbours = dependent_categorical_series(
        rng,
        boat_types,
        mapping=_HARBOURS_BY_TYPE,
        noise=0.12,
        all_categories=_ALL_HARBOURS,
    )
    yards = dependent_categorical_series(
        rng,
        harbours,
        mapping=_YARDS_BY_HARBOUR,
        noise=0.15,
        all_categories=_ALL_YARDS,
    )

    departure_years = year_series(rng, rows, start=1600, end=1780, skew_towards_end=0.4)
    departure = np.array(departure_years, dtype=np.int64)
    (ages,) = _replay_draws(rng, rows, [24])  # integers(1, 25) per row
    built_years = np.maximum(1580, departure - 1 - ages).tolist()
    # Voyages to the Cape took roughly four to nine months; encode the
    # arrival as a year to keep the column comparable with the paper's
    # integer date examples.
    cape_arrival = (departure + (rng.random(rows) < 0.45)).tolist()

    first, last = _replay_draws(rng, rows, [len(_MASTER_FIRST), len(_MASTER_LAST)])
    masters = _MASTER_NAMES[first * len(_MASTER_LAST) + last].tolist()
    trips = [f"trip-{index + 1:05d}" for index in range(rows)]

    data = {
        "trip": trips,
        "master": masters,
        "tonnage": tonnage,
        "type_of_boat": boat_types,
        "built": built_years,
        "yard": yards,
        "departure_date": departure_years,
        "departure_harbour": harbours,
        "cape_arrival": cape_arrival,
    }
    types = {
        "tonnage": DataType.INT,
        "built": DataType.INT,
        "departure_date": DataType.INT,
        "cape_arrival": DataType.INT,
    }
    return Table.from_dict(data, name=name, types=types)
