"""What a Charles process imports: no SciPy until the chi-square rule runs,
no NumPy or engine at all in the cluster's front door (nor OpenSSL's
hashes or ``dataclasses`` and the ``inspect`` it drags in), in an engine
process none of the modules its path never runs, and in a serving
process not the standard library's HTTP stack (nor ``email`` or ``ssl``).

Start-up time and resident memory of every process (CLI, cluster node,
router, benchmark) are dominated by imports: ``scipy.stats`` alone used to
be two thirds of both, and the router — which only moves wire envelopes —
used to load NumPy and every engine package through the eager package
facades, which also had every engine process load SQLite, the CSV loader
and every dataset generator.  Module sets are asserted, not seconds: timings do not repeat on
a shared box, ``sys.modules`` does.  Each check runs in a fresh
interpreter, because the test process itself has SciPy and NumPy loaded.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import urllib.request
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


#: Each package facade → the size of its ``__all__``.
_FACADES = {
    "repro": 51, "repro.api": 14, "repro.backends": 5, "repro.cluster": 10,
    "repro.core": 43, "repro.live": 1, "repro.obs": 8, "repro.sdl": 13,
    "repro.service": 4, "repro.storage": 25, "repro.viz": 5, "repro.workloads": 15,
}


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


#: What the router never runs: OpenSSL's hashes (a routing key is a CRC-32)
#: and ``dataclasses`` (the wire value types are named tuples and slotted
#: classes), which imports ``inspect``.
_ROUTER_NEVER_RUNS = ("hashlib", "_hashlib", "_blake2", "dataclasses", "inspect")


def _router_never_runs(modules: List[str]) -> List[str]:
    return [name for name in _ROUTER_NEVER_RUNS if name in modules]


def test_the_wire_tier_imports_no_numpy_and_no_engine():
    loaded = _modules_after(
        "import repro.cluster, repro.api.client, repro.obs, repro.cli\n"
        "from repro.cluster import *  # every lazily exported name"
    )
    assert _heavy(loaded) == []
    assert _router_never_runs(loaded) == []
    assert "repro.cluster.router" in loaded and "repro.obs.metrics" in loaded


def test_an_engine_process_still_loads_dataclasses():
    # Positive control for the check above: the engine's value types stay
    # dataclasses, so a service process has the module the router lacks.
    loaded = _modules_after("from repro.service import AdvisorService")
    assert "dataclasses" in loaded and "inspect" in loaded


_ROUTER_SCRIPT = """
import json, sys
from repro.cluster.router import ClusterRouter, RouterHTTPServer
urls = {int(node): url for node, url in json.loads(sys.argv[1]).items()}
router = ClusterRouter(urls, replicas=1, probe_interval=60.0)
front = RouterHTTPServer(router.start(), port=0).start()
print(front.url, flush=True)
sys.stdin.readline()
front.shutdown()
router.close()
with open("/proc/self/maps") as maps:
    libcrypto = "libcrypto" in maps.read()
print(json.dumps([sorted(sys.modules), libcrypto]), flush=True)
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
        with urllib.request.urlopen(f"{url}/v1/metrics") as reply:
            assert b'quantile="0.95"' in reply.read()
        for node in nodes:
            node.shutdown()
        with pytest.raises(DegradedError):
            session.advise(refresh=True)
        client.close()
        router.stdin.write("report\n")
        router.stdin.flush()
        loaded, libcrypto = json.loads(router.stdout.readline())
        assert router.wait(timeout=30) == 0
    finally:
        router.kill()
        router.wait(timeout=30)
        router.stdin.close()
        router.stdout.close()
        for node in nodes:
            node.shutdown()
    assert _heavy(loaded) == []
    assert _http_stack(loaded) == []
    assert _router_never_runs(loaded) == []
    assert not libcrypto  # OpenSSL is not mapped into the router
    assert "repro.cluster.router" in loaded


# -- the HTTP transport: framed in repro.api, TLS only for https ------------------

#: The standard library's HTTP stack, and what it drags in.
_HTTP_STACK = ("http.server", "http.client", "email", "ssl", "_ssl")


def _http_stack(modules: List[str]) -> List[str]:
    return [name for name in _HTTP_STACK if name in modules]


def test_a_server_and_client_round_trip_loads_no_stdlib_http():
    loaded = _modules_after("""
from repro.api.client import RemoteAdvisor
from repro.api.server import AdvisorHTTPServer
from repro.service import AdvisorService
from repro.workloads import generate_voc
with AdvisorHTTPServer(AdvisorService(generate_voc(rows=200, seed=1)), port=0) as server:
    client = RemoteAdvisor(server.url)
    assert client.count() == 200 and client.health()["status"] == "ok"
    assert client.open_session("s", context=["tonnage"]).advise().answers
""")
    assert _http_stack(loaded) == []


#: What a thread pool loads: ``concurrent.futures`` and the modules it imports.
_POOL_MODULES = ("concurrent.futures", "logging", "queue")


def test_a_small_table_server_loads_no_thread_pool():
    loaded = _modules_after("""
from repro.api.client import RemoteAdvisor
from repro.api.server import AdvisorHTTPServer
from repro.service import AdvisorService
from repro.workloads import generate_voc
with AdvisorHTTPServer(AdvisorService(generate_voc(rows=300, seed=3)), port=0) as server:
    session = RemoteAdvisor(server.url).open_session("s", context=["tonnage", "type_of_boat"])
    assert session.advise().answers
    assert session.drill(0, 0).answers
""")
    assert [name for name in _POOL_MODULES if name in loaded] == []


@pytest.mark.parametrize(
    "spec, shards",
    [
        ("memory", 1),
        ("memory?index=all&partitions=4", 4),
        ("memory?index=zonemap&partitions=8", 8),
    ],
)
def test_forced_shards_load_no_thread_pool(spec, shards):
    # Shards are zone maps' skipping units, evaluated inline: one shard or
    # forced ones, counts, medians and an advise start no pool.
    loaded = _modules_after(f"""
from repro.core import Charles
from repro.sdl import parse_query
from repro.workloads import generate_voc
advisor = Charles(generate_voc(rows=400, seed=3), backend={spec!r})
engine = advisor.engine
assert engine.partitions == {shards}
query = parse_query("(tonnage: [0, 1000])")
assert engine.count(query) > 0
assert engine.median("tonnage", query) is not None
assert advisor.advise(["tonnage", "type_of_boat"], max_answers=4)
""")
    assert [name for name in _POOL_MODULES if name in loaded] == []


def test_an_https_client_loads_ssl_at_its_first_connection():
    # A plain TCP listener answers the TLS handshake with bytes that are
    # not TLS: the client must fail as a transport error, and only then
    # have loaded ssl.
    loaded = _modules_after("""
import socket, sys, threading
from repro.api.client import RemoteAdvisor
from repro.errors import RemoteTransportError
listener = socket.create_server(("127.0.0.1", 0))
def answer():
    connection, _ = listener.accept()
    with connection:
        connection.sendall(b"HTTP/1.1 400 Bad Request\\r\\n\\r\\n")
threading.Thread(target=answer, daemon=True).start()
client = RemoteAdvisor(f"https://127.0.0.1:{listener.getsockname()[1]}", timeout=5.0)
assert "ssl" not in sys.modules
try:
    client.health()
except RemoteTransportError:
    pass
else:
    raise AssertionError("a TLS handshake with a plain listener succeeded")
assert "ssl" in sys.modules
""")
    assert "ssl" in loaded


def test_every_public_name_resolves():
    for package, size in _FACADES.items():
        facade = importlib.import_module(package)
        assert len(facade.__all__) == size, package
        for name in facade.__all__:
            assert getattr(facade, name) is not None, f"{package}.{name}"
        assert set(facade.__all__) <= set(dir(facade)), package


def test_exports_named_like_their_submodule_stay_functions():
    # ``compose``, ``product`` and ``treemap`` each name a function and its
    # submodule.  Importing a submodule binds it as a package attribute,
    # which a PEP 562 ``__getattr__`` never overrides: the facades bind the
    # functions first, so importing the submodules first changes nothing.
    _modules_after("""
import repro.core.compose, repro.core.product, repro.viz.treemap
import repro
from types import FunctionType
from repro.core import compose, product
from repro.viz import treemap
exported = (compose, product, treemap, repro.compose, repro.product, repro.treemap)
assert all(isinstance(function, FunctionType) for function in exported), exported
""")


# -- the engine tier: only what its path runs -------------------------------------

#: What an exact ``memory`` engine process (a node, ``serve``, an in-process
#: service, a benchmark process) never runs: SQLite, the CSV loader, the
#: sampled view, the profiler, the chi-square rule, the §5.2 side modules,
#: E9's baselines, the partition check, the other generators and
#: workloads, the remote client, ``viz``.
_NEVER_RUN = (
    "sqlite3", "sqlite3.dbapi2", "_sqlite3", "csv", "_csv",
    "repro.backends.approx", "repro.backends.sqlite",
    "repro.storage.csv_loader", "repro.storage.sql", "repro.storage.statistics",
    "repro.core.dependence", "repro.core.baselines", "repro.core.interestingness",
    "repro.core.lazy", "repro.core.quantiles", "repro.sdl.validation",
    "repro.workloads.astronomy", "repro.workloads.concurrent",
    "repro.workloads.synthetic", "repro.workloads.weblog",
    "repro.api.client", "repro.viz",
)

_ENGINE_SCRIPT = """
from repro.cluster.specs import TableSpec
from repro.service import AdvisorService
service = AdvisorService(TableSpec.dataset("voc", rows=300, seed=3).load(), backend={backend!r})
service.open_session("s", context=["tonnage", "type_of_boat"])
assert service.advise("s").answers
service.drill("s", 0, 0)
assert service.count("(tonnage : [0, 1000])") >= 0
service.ingest(rows=[{{"tonnage": 900, "type_of_boat": "pinas"}}])
service.advise("s", refresh=True)
"""


def _never_run_loaded(backend: str) -> List[str]:
    """Which of :data:`_NEVER_RUN` a service over ``backend`` loads on its way."""
    loaded = _modules_after(_ENGINE_SCRIPT.format(backend=backend))
    assert "repro.service.service" in loaded and "repro.workloads.voc" in loaded
    return [name for name in _NEVER_RUN if name in loaded]


def test_an_exact_memory_engine_process_loads_only_what_it_runs():
    assert _never_run_loaded("memory") == []


@pytest.mark.parametrize("backend, loaded", [
    pytest.param("memory?sample=0.1", ["repro.backends.approx"], id="sampled"),
    pytest.param(
        "sqlite",
        ["sqlite3", "sqlite3.dbapi2", "_sqlite3", "repro.backends.sqlite", "repro.storage.sql"],
        id="sqlite",
    ),
])
def test_a_spec_loads_the_backend_it_asks_for(backend, loaded):
    assert _never_run_loaded(backend) == loaded
