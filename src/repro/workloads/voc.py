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

from typing import Dict, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.storage.column import Column, NumericColumn
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.workloads.generators import (
    Nominal,
    _replay_draws,
    dependent_categorical_series,
    make_rng,
    nominal_column,
    numeric_from_category,
    serial_labels,
    year_series,
)

__all__ = ["generate_voc", "FIGURE1_CONTEXT_COLUMNS"]

#: The table's columns, in order.
_COLUMNS = (
    "trip", "master", "tonnage", "type_of_boat", "built", "yard", "departure_date",
    "departure_harbour", "cape_arrival",
)

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
_MASTER_NAMES = [f"{a} {b}" for a in _MASTER_FIRST for b in _MASTER_LAST]


def generate_voc(rows: int = 5000, seed: Optional[int] = 42) -> Table:
    """Generate the synthetic VOC shipping table, named ``voc``.

    Parameters
    ----------
    rows:
        Number of voyages to generate.
    seed:
        Random seed; identical seeds yield identical tables.
    """
    if rows <= 0:
        raise WorkloadError(f"rows must be positive, got {rows}")
    rng = make_rng(seed)
    # Each column is stored once no later draw reads its series, so the
    # draws never all wait as arrays at once.
    columns: Dict[str, Column] = {}

    def nominal(column: str, series: Nominal) -> None:
        columns[column] = nominal_column(column, series)

    def integers(column: str, values: np.ndarray) -> None:
        columns[column] = NumericColumn(column, values, DataType.INT)

    nominal("trip", serial_labels("trip-", rows, 5))
    # Boat types: the two light types dominate, as in the historical fleet.
    type_weights = (0.30, 0.26, 0.16, 0.12, 0.09, 0.07)
    boats = (_BOAT_TYPES, rng.choice(len(_BOAT_TYPES), size=rows, p=type_weights))
    integers("tonnage", numeric_from_category(
        rng, boats, _TONNAGE_MEANS, _TONNAGE_SPREADS, minimum=1000.0, maximum=5000.0, integer=True
    ))
    harbours = dependent_categorical_series(rng, boats, _HARBOURS_BY_TYPE, 0.12, _ALL_HARBOURS)
    nominal("type_of_boat", boats)
    del boats
    nominal("yard", dependent_categorical_series(rng, harbours, _YARDS_BY_HARBOUR, 0.15, _ALL_YARDS))
    nominal("departure_harbour", harbours)
    del harbours

    departure = year_series(rng, rows, start=1600, end=1780, skew_towards_end=0.4)
    (ages,) = _replay_draws(rng, rows, [24])  # integers(1, 25) per row
    integers("built", np.maximum(1580, departure - 1 - ages))
    del ages
    # Voyages to the Cape took roughly four to nine months; encode the
    # arrival as a year to keep the column comparable with the paper's
    # integer date examples.
    integers("cape_arrival", departure + (rng.random(rows) < 0.45))
    integers("departure_date", departure)
    del departure

    first, last = _replay_draws(rng, rows, [len(_MASTER_FIRST), len(_MASTER_LAST)])
    nominal("master", (_MASTER_NAMES, first * len(_MASTER_LAST) + last))
    return Table("voc", [columns[column] for column in _COLUMNS])
