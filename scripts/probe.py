"""Committed probes: each finding of ROADMAP.md as a command that prints one JSON line.

Usage::

    PYTHONPATH=src python scripts/probe.py {m9,m13,m14,m15,m16,m17} --rows 2000 --seed 1 [--capacity 4096]

A probe prints the hash of every answer it was served, the work counters
behind them, the process's peak resident set (``VmHWM``, kB), the wall
seconds and the argv that reproduces the line.  Two runs of one argv on
one commit print the same hash and counters; a change that moves them
moved the program.  Probes use only the public ``repro`` API.

``m9``: what the whole-table default context costs.  Over
``generate_voc(rows, seed)`` (``--seed`` is the table's seed here) on the
plain ``memory`` spec, one ``Charles`` advises ``None`` — every column,
the identifier ``trip`` included — cold, under a ``repro.obs.start_trace``
root; the probe prints what ``m15`` prints for its one advise.

``m13``: a drill-down service over a time-ordered table, its peak
resident set read after every context.  VOC sorted by ``departure_date``
(as a shipping log is written) is served sharded and indexed
(``memory?index=all&partitions=8``, five answers an advise); each of 12
contexts is ``departure_date`` plus two of the other columns, drilled
twice at a random answer and segment.

``m14``: the shared result cache under cold traffic.  Every user
explores its own context and drill path (``repro.workloads.concurrent``
scripts), replayed sequentially on one ``AdvisorService`` over VOC, so
the cache holds each user's work and evicts the last one's.

``m15``: what a cold advise costs per engine operation.  Over
``generate_voc(rows, seed)`` (``--seed`` is the table's seed here) on the
plain ``memory`` spec, one ``Charles`` advises ``tonnage, type_of_boat,
departure_harbour, built`` and then ``departure_date, tonnage, master``,
each under a ``repro.obs.start_trace`` root.  The probe prints each
advise's seconds, the engine's operation tallies, and the calls and
seconds of every ``engine.<op>`` span (count, median, frequency, minmax,
crosstab) summed over both.

``m16``: what a loaded table costs.  ``generate_voc(rows, seed)`` runs
alone (``--seed`` is the table's seed here); the probe prints the load
seconds, ``VmRSS`` right after it and ``VmHWM``, and per column the bytes
of its row arrays and of its dictionary (what a string column holds
besides its codes, measured through the column's attributes), the
dictionary's size, and one digest of every column's physical encoding —
codes and dictionary order included — which a change to how columns are
stored must leave unmoved.

``m17``: what each process of a cluster holds.  ``python -m repro.cli
cluster serve --dataset voc --rows N --seed S --nodes 2`` starts in its
own process group (``--seed`` is the table's seed here); one session
through :class:`~repro.api.client.RemoteAdvisor` advises, drills, ingests
a row and advises again with ``refresh``.  The probe prints the answer
hash, the ``VmHWM`` of the router and of each node, and whether the
router has OpenSSL's ``libcrypto`` mapped; the group is killed on every
exit path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

import repro
from repro import AdvisorService, Charles, Table, generate_voc
from repro.api.client import RemoteAdvisor
from repro.obs import start_trace
from repro.workloads.concurrent import generate_concurrent_workload

#: Users a probe replays, and drill/back steps each takes after its advise.
USERS = 24
STEPS = 8
#: Seed of the generated table: ``--seed`` varies the requests, not the data.
TABLE_SEED = 42
#: ``m13``'s contexts, and drills each takes after its advise.
CONTEXTS = 12
DRILLS = 2
#: The engine tallies a probe sums over every session and the primary engine.
_WORK = ("evaluations", "count_calls", "batch_calls")
#: ``m15``'s two contexts, advised cold one after the other.
M15_CONTEXTS = (
    ["tonnage", "type_of_boat", "departure_harbour", "built"],
    ["departure_date", "tonnage", "master"],
)
#: The engine tallies ``m9`` and ``m15`` report.
_ADVISE_WORK = (
    "evaluations", "count_calls", "median_calls", "frequency_calls", "minmax_calls",
    "crosstab_calls",
)


def peak_rss_kb(field: str = "VmHWM", pid: str = "self") -> Optional[int]:
    """A process's ``VmHWM`` (or another ``/proc/<pid>/status`` field) in
    kB, ``None`` where /proc is absent."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith(f"{field}:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _work_and_cache(
    service: AdvisorService, table: Table, work: Dict[str, int]
) -> Dict[str, Any]:
    """``work`` (summed over closed sessions) plus the primary engine's
    tallies, and the shared result cache's state."""
    stats = service.stats()["tables"][table.name]
    cache = stats["result_cache"]
    return {
        **{name: work[name] + stats["primary_engine"][name] for name in _WORK},
        "evictions": cache["evictions"],
        "hit_rate": round(cache["hit_rate"], 6),
        "approx_bytes": cache["approx_bytes"],
        "entries": cache["entries"],
    }


def m13(args: argparse.Namespace) -> Dict[str, Any]:
    log = generate_voc(rows=args.rows, seed=TABLE_SEED)
    dates = np.asarray(log.column("departure_date").values_list())
    table = log.take(np.argsort(dates, kind="stable"))
    service = AdvisorService(
        table,
        cache_capacity=args.capacity,
        batch_window=0.0,
        max_answers=5,
        backend="memory?index=all&partitions=8",
    )
    others = [name for name in table.column_names if name not in ("trip", "departure_date")]
    rng = random.Random(args.seed)
    digest = hashlib.sha256()
    work = dict.fromkeys(_WORK, 0)
    vmhwm_kb: List[Optional[int]] = []
    context_s: List[float] = []
    for index in range(CONTEXTS):
        started = time.perf_counter()
        user = f"user{index}"
        service.open_session(user)
        advice = service.advise(user, ["departure_date", *rng.sample(others, 2)])
        digest.update(advice.describe(limit=None).encode("utf-8"))
        for _ in range(DRILLS):
            if not advice.answers:
                break
            answer = rng.randrange(len(advice.answers))
            segment = rng.randrange(advice.answers[answer].segmentation.depth)
            advice = service.drill(user, answer, segment)
            digest.update(advice.describe(limit=None).encode("utf-8"))
        operations = service.close_session(user)["engine_operations"]
        for name in _WORK:
            work[name] += operations[name]
        context_s.append(round(time.perf_counter() - started, 3))
        vmhwm_kb.append(peak_rss_kb())
    return {
        "answer_hash": digest.hexdigest()[:16],
        **_work_and_cache(service, table, work),
        "context_s": context_s,
        "vmhwm_kb_by_context": vmhwm_kb,
    }


def m14(args: argparse.Namespace) -> Dict[str, Any]:
    table = generate_voc(rows=args.rows, seed=TABLE_SEED)
    service = AdvisorService(table, cache_capacity=args.capacity, batch_window=0.0)
    # ``trip`` is a row identifier (one value a row): a context holding it
    # costs far more than any other, and the seed would decide how many.
    columns = [name for name in table.column_names if name != "trip"]
    scripts = generate_concurrent_workload(
        columns, users=USERS, steps=STEPS, seed=args.seed, hot_contexts=USERS
    )
    digest = hashlib.sha256()
    work = dict.fromkeys(_WORK, 0)
    for script in scripts:
        session = service.open_session(script.user)
        for action in script.actions:
            if action.op == "advise":
                advice = service.advise(script.user, list(action.context or ()))
            elif action.op == "drill":
                advice = session.current_advice()
                if advice is None or not advice.answers:
                    continue
                answer = action.answer % len(advice.answers)
                segment = action.segment % advice.answers[answer].segmentation.depth
                advice = service.drill(script.user, answer, segment)
            elif session.depth > 0:
                advice = service.back(script.user)
            else:
                continue
            digest.update(advice.describe(limit=None).encode("utf-8"))
        operations = service.close_session(script.user)["engine_operations"]
        for name in _WORK:
            work[name] += operations[name]
    return {"answer_hash": digest.hexdigest()[:16], **_work_and_cache(service, table, work)}


def _engine_spans(document: Dict[str, Any], totals: Dict[str, Dict[str, Any]]) -> None:
    """Add every ``engine.<op>`` span under ``document`` to ``totals``."""
    for child in document.get("children", []):
        if child["name"].startswith("engine."):
            total = totals.setdefault(child["name"], {"calls": 0, "seconds": 0.0})
            total["calls"] += 1
            total["seconds"] += child["duration_seconds"]
        _engine_spans(child, totals)


def _traced_advises(advisor: Charles, contexts: Sequence[Optional[List[str]]]) -> Dict[str, Any]:
    """Advise each context cold, one after the other, each under a
    ``start_trace`` root: the answer hash, the engine tallies, each
    advise's seconds and the summed ``engine.<op>`` spans."""
    digest = hashlib.sha256()
    advise_s: List[float] = []
    totals: Dict[str, Dict[str, Any]] = {}
    for context in contexts:
        root = start_trace("probe.advise")
        started = time.perf_counter()
        with root:
            advice = advisor.advise(context)
        advise_s.append(round(time.perf_counter() - started, 3))
        digest.update(advice.describe(limit=None).encode("utf-8"))
        _engine_spans(root.to_document(), totals)
    counter = advisor.engine.counter
    return {
        "answer_hash": digest.hexdigest()[:16],
        **{name: getattr(counter, name) for name in _ADVISE_WORK},
        "advise_s": advise_s,
        "engine_spans": {
            name: {"calls": total["calls"], "seconds": round(total["seconds"], 4)}
            for name, total in sorted(totals.items())
        },
    }


def m9(args: argparse.Namespace) -> Dict[str, Any]:
    return _traced_advises(Charles(generate_voc(rows=args.rows, seed=args.seed)), [None])


def m15(args: argparse.Namespace) -> Dict[str, Any]:
    return _traced_advises(Charles(generate_voc(rows=args.rows, seed=args.seed)), M15_CONTEXTS)


def _held_bytes(value: Any, seen: set) -> int:
    """Bytes behind ``value``: an array's buffer (a ``StringDType`` array's
    text longer than its 15-byte inline slot counted on top), or an
    object's own size plus everything it refers to, each object once."""
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "T" or not value.size:
            return int(value.nbytes)
        lengths = np.strings.str_len(value)
        return int(value.nbytes + lengths[lengths > 15].sum())
    size = sys.getsizeof(value)
    if isinstance(value, dict):
        return size + sum(_held_bytes(k, seen) + _held_bytes(v, seen) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return size + sum(_held_bytes(item, seen) for item in value)
    if hasattr(value, "__dict__"):
        return size + _held_bytes(vars(value), seen)
    slots = getattr(type(value), "__slots__", ())
    return size + sum(_held_bytes(getattr(value, n), seen) for n in slots if hasattr(value, n))


def m16(args: argparse.Namespace) -> Dict[str, Any]:
    started = time.perf_counter()
    table = generate_voc(rows=args.rows, seed=args.seed)
    load_s = time.perf_counter() - started
    vmrss_kb = peak_rss_kb("VmRSS")
    digest = hashlib.sha256()
    columns: Dict[str, Dict[str, int]] = {}
    for name in table.column_names:
        column = table.column(name)
        rows = [v for v in (getattr(column, a, None) for a in ("_codes", "_data", "_valid"))
                if v is not None]
        held = {k: v for k, v in vars(column).items()
                if k not in ("name", "dtype", "_codes", "_data", "_valid")}
        digest.update(f"{name}:{type(column).__name__}:{column.dtype.value}".encode())
        entry = {"array_bytes": sum(int(array.nbytes) for array in rows)}
        if hasattr(column, "categories"):
            categories = column.categories
            digest.update(json.dumps(categories).encode())
            entry["dictionary_size"] = len(categories)
            entry["dictionary_bytes"] = _held_bytes(held, set()) - sys.getsizeof(held)
        for array in rows:
            digest.update(array.dtype.str.encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        columns[name] = entry
    return {
        "load_s": round(load_s, 3),
        "vmrss_after_load_kb": vmrss_kb,
        "encoding_digest": digest.hexdigest()[:16],
        "columns": columns,
    }


def _maps_libcrypto(pid: int) -> Optional[bool]:
    """Whether a process has OpenSSL's ``libcrypto`` mapped (``None``
    where /proc is absent)."""
    try:
        return "libcrypto" in Path(f"/proc/{pid}/maps").read_text()
    except OSError:
        return None


def m17(args: argparse.Namespace) -> Dict[str, Any]:
    with socket.socket() as probe_socket:
        probe_socket.bind(("127.0.0.1", 0))
        port = probe_socket.getsockname()[1]
    env = dict(os.environ)
    source = str(Path(repro.__file__).resolve().parents[1])  # the repro this probe runs
    env["PYTHONPATH"] = os.pathsep.join(p for p in (source, env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "repro.cli", "cluster", "serve", "--http", str(port),
               "--dataset", "voc", "--rows", str(args.rows), "--seed", str(args.seed),
               "--nodes", "2"]
    cluster = subprocess.Popen(command, env=env, stdin=subprocess.DEVNULL,
                               stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        assert cluster.stdout is not None  # started with stdout=PIPE
        # The banner: the router's URL, then one "node-i pid=P url" line a node.
        banner = [cluster.stdout.readline() for _ in range(3)]
        if not banner[-1]:
            raise RuntimeError(f"cluster serve exited before serving: {banner!r}")
        nodes = [int(line.split("pid=")[1].split()[0]) for line in banner[1:]]
        client = RemoteAdvisor(banner[0].split()[-1])
        digest = hashlib.sha256()
        session = client.open_session("probe")
        replies = [session.advise(["tonnage", "type_of_boat"]), session.drill(0, 0)]
        client.ingest(rows=[{"tonnage": 900, "type_of_boat": "pinas"}])
        replies.append(session.advise(refresh=True))
        for advice in replies:
            digest.update(advice.describe(limit=None).encode("utf-8"))
        client.close()
        return {
            "answer_hash": digest.hexdigest()[:16],
            "router_vmhwm_kb": peak_rss_kb(pid=str(cluster.pid)),
            "node_vmhwm_kb": [peak_rss_kb(pid=str(node)) for node in nodes],
            "router_maps_libcrypto": _maps_libcrypto(cluster.pid),
        }
    finally:
        try:
            os.killpg(cluster.pid, signal.SIGKILL)  # the router and its nodes, as one group
        except ProcessLookupError:  # the whole group has exited already
            pass
        cluster.wait(timeout=30)
        if cluster.stdout is not None:
            cluster.stdout.close()


PROBES: Dict[str, Callable[[argparse.Namespace], Dict[str, Any]]] = {
    "m9": m9, "m13": m13, "m14": m14, "m15": m15, "m16": m16, "m17": m17,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("probe", choices=sorted(PROBES))
    parser.add_argument("--rows", type=int, required=True, help="rows of the generated table")
    parser.add_argument("--seed", type=int, required=True, help="seed of the request scripts (m9, m15, m16, m17: of the table)")
    parser.add_argument("--capacity", type=int, default=4096,
                        help="entries of the shared result cache (the service default)")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    result = {"probe": args.probe, **PROBES[args.probe](args)}
    result["vmhwm_kb"] = peak_rss_kb()
    result["wall_s"] = round(time.perf_counter() - started, 3)
    result["argv"] = ["scripts/probe.py", *(sys.argv[1:] if argv is None else argv)]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
