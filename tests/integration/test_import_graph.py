"""What a Charles process imports: no SciPy until the chi-square rule runs.

Start-up time and resident memory of every process (CLI, cluster node,
benchmark) are dominated by imports, and ``scipy.stats`` alone used to be
two thirds of both.  Module sets are asserted, not seconds: timings do not
repeat on a shared box, ``sys.modules`` does.  Each check runs in a fresh
interpreter, because the test process itself has SciPy loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

_SRC = Path(__file__).resolve().parents[2] / "src"

_REPORT = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"


def _scipy_modules_after(script: str) -> List[str]:
    """Run ``script`` in a fresh interpreter; the ``scipy*`` modules it left loaded."""
    completed = subprocess.run(
        [sys.executable, "-c", f"{script}\n{_REPORT}"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules_after("import repro.cli") == []


def test_a_default_advise_loads_no_scipy():
    script = """
import repro.cli
from repro import AdvisorService, generate_voc
service = AdvisorService(generate_voc(rows=200, seed=42))
service.open_session("s", context=["tonnage", "type_of_boat"])
assert service.advise("s").answers
"""
    assert _scipy_modules_after(script) == []


def test_the_chi_square_rule_loads_scipy_special_but_not_scipy_stats():
    script = """
import numpy as np
from repro.core import chi_square_test
assert chi_square_test(np.array([[400.0, 100.0], [100.0, 400.0]]))[1] < 1e-6
"""
    loaded = _scipy_modules_after(script)
    assert "scipy.special" in loaded
    assert not [name for name in loaded if name.startswith("scipy.stats")]
