"""What a Charles process imports: no SciPy until the chi-square rule runs,
and no NumPy or engine at all in the cluster's front door.

Start-up time and resident memory of every process (CLI, cluster node,
router, benchmark) are dominated by imports: ``scipy.stats`` alone used to
be two thirds of both, and the router — which only moves wire envelopes —
used to load NumPy and every engine package through the eager package
facade.  Module sets are asserted, not seconds: timings do not repeat on
a shared box, ``sys.modules`` does.  Each check runs in a fresh
interpreter, because the test process itself has SciPy and NumPy loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

import repro
from repro.api.client import RemoteAdvisor
from repro.api.server import AdvisorHTTPServer
from repro.errors import DegradedError
from repro.service import AdvisorService
from repro.workloads import generate_voc

_SRC = Path(__file__).resolve().parents[2] / "src"

_REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"

_ENV = {**os.environ, "PYTHONPATH": str(_SRC)}

#: What the wire tier (api transport and envelopes, cluster, obs, the
#: ``cluster serve`` CLI path) must never load.
_ENGINE = tuple(
    f"repro.{package}"
    for package in ("core", "sdl", "storage", "backends", "live", "service", "workloads", "viz")
)


def _modules_after(script: str) -> List[str]:
    """Run ``script`` in a fresh interpreter; every module it left loaded."""
    completed = subprocess.run(
        [sys.executable, "-c", f"{script}\n{_REPORT}"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_ENV,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _scipy_modules_after(script: str) -> List[str]:
    """Run ``script`` in a fresh interpreter; the ``scipy*`` modules it left loaded."""
    return [name for name in _modules_after(script) if name.startswith("scipy")]


def _heavy(modules: List[str]) -> List[str]:
    """The NumPy and engine modules among ``modules``."""
    return [
        name
        for name in modules
        if name.split(".")[0] == "numpy"
        or any(name == package or name.startswith(package + ".") for package in _ENGINE)
    ]


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


# -- the wire tier: stdlib and repro.errors only ---------------------------------


def test_the_wire_tier_imports_no_numpy_and_no_engine():
    loaded = _modules_after(
        "import repro.cluster, repro.api.client, repro.obs, repro.cli\n"
        "from repro.cluster import *  # every lazily exported name"
    )
    assert _heavy(loaded) == []
    assert "repro.cluster.router" in loaded and "repro.obs.metrics" in loaded


_ROUTER_SCRIPT = """
import json, sys
from repro.cluster.router import ClusterRouter, RouterHTTPServer
urls = {int(node): url for node, url in json.loads(sys.argv[1]).items()}
router = ClusterRouter(urls, replicas=1, probe_interval=60.0, timeout=10.0, retries=0)
front = RouterHTTPServer(router.start(), port=0).start()
print(front.url, flush=True)
sys.stdin.readline()
front.shutdown()
router.close()
print(json.dumps(sorted(sys.modules)), flush=True)
"""


def test_a_serving_router_loads_no_numpy_and_no_engine():
    # The router runs in its own interpreter over two threaded nodes in
    # this one; every path it takes — forwarding, journalling, tracing,
    # ingest broadcast, merging node histograms, its own degraded error —
    # must stay inside the wire tier.
    nodes = [
        AdvisorHTTPServer(
            AdvisorService(generate_voc(rows=300, seed=3), batch_window=0.0), port=0
        ).start()
        for _ in range(2)
    ]
    router = subprocess.Popen(
        [sys.executable, "-c", _ROUTER_SCRIPT, json.dumps({i: n.url for i, n in enumerate(nodes)})],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=_ENV,
    )
    try:
        url = router.stdout.readline().strip()
        client = RemoteAdvisor(url)
        session = client.open_session("alice")
        assert session.advise(["tonnage", "type_of_boat"]).answers
        traced = RemoteAdvisor(url, trace=True)
        assert traced.call("drill", session="alice").answers
        traced.close()
        assert client.count("tonnage BETWEEN 0 AND 1000") >= 0
        summary = client.ingest(rows=[{"tonnage": 900, "type_of_boat": "pinas"}])
        assert summary["cluster"]["applied_on"] == [0, 1]
        assert 'quantile="0.95"' in client.metrics_text()
        for node in nodes:
            node.shutdown()
        with pytest.raises(DegradedError):
            session.advise(refresh=True)
        client.close()
        router.stdin.write("report\n")
        router.stdin.flush()
        loaded = json.loads(router.stdout.readline())
        assert router.wait(timeout=30) == 0
    finally:
        router.kill()
        router.wait(timeout=30)
        router.stdin.close()
        router.stdout.close()
        for node in nodes:
            node.shutdown()
    assert _heavy(loaded) == []
    assert "repro.cluster.router" in loaded


def test_every_public_name_resolves():
    assert len(repro.__all__) == 52
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert set(repro.__all__) <= set(dir(repro))
