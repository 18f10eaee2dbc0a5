"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings as hypothesis_settings

from repro.sdl import SDLQuery

# Hypothesis example budgets.  The fast tier runs the "dev" profile (kept
# small so property tests stay a fraction of the suite); the dedicated CI
# differential job passes --hypothesis-profile=ci for a deeper sweep.
# Tests with explicit @settings decorators are unaffected either way.
hypothesis_settings.register_profile(
    "ci",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
hypothesis_settings.register_profile(
    "dev",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
hypothesis_settings.load_profile("dev")
from builders import make_independent_table
from repro.storage import QueryEngine, Table
from repro.workloads import (
    generate_astronomy,
    generate_voc,
    generate_weblog,
    make_dependent_pair_table,
)


@pytest.fixture(scope="session")
def voc_table() -> Table:
    """A moderately sized VOC shipping table shared across tests."""
    return generate_voc(rows=2000, seed=7)


@pytest.fixture(scope="session")
def voc_engine(voc_table: Table) -> QueryEngine:
    return QueryEngine(voc_table)


@pytest.fixture(scope="session")
def astronomy_table() -> Table:
    return generate_astronomy(rows=1500, seed=11)


@pytest.fixture(scope="session")
def weblog_table() -> Table:
    return generate_weblog(rows=1500, seed=3)


@pytest.fixture(scope="session")
def independent_table() -> Table:
    return make_independent_table(rows=1500, cardinalities=(4, 4, 6), seed=5)


@pytest.fixture(scope="session")
def dependent_table() -> Table:
    return make_dependent_pair_table(rows=1500, strength=0.9, cardinality=4, seed=5)


@pytest.fixture()
def boats_table() -> Table:
    """A tiny hand-written table mirroring the paper's Figure 2 example."""
    rows = []
    # Fluits: light boats, early departures clustered before 1750.
    fluit_years = [1700, 1705, 1710, 1715, 1720, 1725, 1730, 1735, 1740, 1744]
    for index, year in enumerate(fluit_years):
        rows.append(
            {
                "type_of_boat": "fluit",
                "tonnage": 1000 + 100 * index,
                "departure_date": year,
                "departure_harbour": "Bantam" if index % 2 == 0 else "Rammenkens",
            }
        )
    # Jachts: heavier boats, later departures clustered after 1750.
    jacht_years = [1750, 1754, 1758, 1762, 1766, 1770, 1772, 1774, 1776, 1780]
    for index, year in enumerate(jacht_years):
        rows.append(
            {
                "type_of_boat": "jacht",
                "tonnage": 3000 + 200 * index,
                "departure_date": year,
                "departure_harbour": "Surat" if index % 2 == 0 else "Zeeland",
            }
        )
    return Table.from_rows(rows, name="boats")


@pytest.fixture()
def boats_engine(boats_table: Table) -> QueryEngine:
    return QueryEngine(boats_table)


@pytest.fixture()
def boats_context(boats_table: Table) -> SDLQuery:
    return SDLQuery.over(["type_of_boat", "tonnage", "departure_date", "departure_harbour"])
