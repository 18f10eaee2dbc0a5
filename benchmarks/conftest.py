"""Shared fixtures and reporting helpers for the paper-experiment suite.

E1–E9 regenerate the paper's figures and §5.1 claims, E10 and E11 its
§5.2 extensions, and E13 checks memory/SQLite parity (README.md,
Benchmarks).  Besides the pytest-benchmark timings, each test prints a
small result table — the rows the corresponding figure or claim in the
paper would show — so that ``pytest benchmarks/ --benchmark-only -s``
doubles as the experiment log.  Key figures are also attached to
``benchmark.extra_info`` so they survive in pytest-benchmark's JSON output.
The gating speed benchmark is ``bench/run.py``, not this suite.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import pytest

from repro.workloads import generate_voc

#: Set by ``--smoke`` (pytest_configure runs before bench modules import).
SMOKE = False


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run every benchmark at tiny scale (CI rot check, not a measurement)",
    )


def pytest_configure(config) -> None:
    global SMOKE
    SMOKE = bool(config.getoption("--smoke", default=False))


def scale(value: Any, smoke_value: Any) -> Any:
    """The experiment-scale value, or its tiny ``--smoke`` substitute.

    Benchmarks route every size-like constant (row counts, sweep widths,
    user counts) through this helper so the CI smoke job can execute each
    experiment end-to-end in seconds without touching the measurement
    configuration.
    """
    return smoke_value if SMOKE else value


def is_smoke() -> bool:
    """Whether the suite runs under ``--smoke`` (skip scale-sensitive asserts)."""
    return SMOKE


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a small aligned table to stdout (shown with ``-s``)."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in materialised:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


@pytest.fixture(scope="session")
def voc_table():
    """The Figure 1 workload at demo scale."""
    return generate_voc(rows=scale(5000, 600), seed=42)
