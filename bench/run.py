#!/usr/bin/env python3
"""The gating benchmark's one command.

Two ways to call it (both from the repository root):

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process — the form the driver uses.  ``--trace 0``
    sets up three times, runs the workload for S seconds with tracing off
    and reports the end-to-end metrics; ``--trace 1`` replays a fixed
    script prefix untraced and a quarter of it traced, and reports the
    per-layer metrics.  The last line of standard output is one JSON
    object ``{correct, attempted, failed, metrics}``.

``python3 bench/run.py [--seed N] [--smoke] [--only W] [--traced] [--out FILE]``
    Every workload, each run in a fresh Python process (so caches, peak RSS
    and patched functions cannot leak from one into the next), untraced and
    then traced; prints every metric by name with its unit and writes one
    JSON result file (default ``.bench_out/result.json``).

The script puts ``src/`` on ``sys.path`` itself; without the program's
sources beside it, it exits non-zero before printing any result.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start before any import
import atexit  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import warnings  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
_OUT_DIR = str(_ROOT / ".bench_out")
#: Set-ups per untraced run; ``setup_s`` reports their median.
_SETUPS = 3
#: A workload process that runs this long is stuck (a hung server, a
#: deadlock): it tears its servers down and dies instead of hanging the run.
_HARD_LIMIT_SECONDS = 170


def _import_program() -> None:
    """Make ``repro`` and ``bench`` importable; exit non-zero if they are not."""
    for entry in (str(_ROOT / "src"), str(_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if not (_ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"bench: the program under test is not at {_ROOT / 'src'}")
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        raise SystemExit(
            f"bench: cannot import the program under test from {_ROOT / 'src'}: {exc}"
        )


# -- one workload, in this process --------------------------------------------


def _set_up(spec: Any, seed: int, threaded: bool = False, tracer: Any = None) -> Any:
    """Deploy the system, generate the inputs, open sessions, warm up."""
    from bench.runner import Run
    from bench.systems import make_tables, start_system

    if spec.system == "inprocess":
        tables = make_tables(spec)
        system = start_system(spec, tables.served)
    else:
        # The server boots while the ingest pool is generated here.
        system = start_system(spec, threaded=threaded)
        try:
            tables = make_tables(spec)
        except BaseException:
            system.close()
            raise
    try:
        system.ready()
        run = Run(spec, system, tables.pool, seed, tracer)
        run.prepare()
    except BaseException:
        system.close()
        raise
    return run, tables


def _verify(spec: Any, run: Any, tables: Any) -> Tuple[List[str], str]:
    """What the oracle says about one finished phase, and the table's digest."""
    from bench import oracle
    from bench.systems import served_table

    base = served_table(spec, tables)
    counts = [entry for client in run.clients for entry in client.counts]
    checks = [check for client in run.clients for check in client.checks]
    problems = oracle.check_counts(base, run.applied_batches, counts)
    problems += oracle.check_advice(base, run.applied_batches, checks)
    text = json.dumps(base.to_dict(), default=str, sort_keys=True)
    return problems, hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _router_trouble(
    before: Dict[str, Any], after: Dict[str, Any], prefix: str = ""
) -> List[str]:
    """Router counters that must stay still over a phase, and did not."""
    return [
        f"cluster.router.{key} rose during the phase"
        for key in ("failovers", "degraded_requests", "node_failures")
        if after.get(prefix + key, 0) > before.get(prefix + key, 0)
    ]


def _outcome(run: Any, problems: List[str]) -> Dict[str, Any]:
    attempted = sum(client.attempted for client in run.clients)
    failed = sum(client.failed for client in run.clients) + len(problems)
    failures = [text for client in run.clients for text in client.failures] + problems
    for text in failures[:20]:
        print(f"bench: FAILED {text}", file=sys.stderr)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "failed_share": failed / max(1, attempted),
        "failures": failures[:20],
    }


def client_metrics(run: Any, enforce: bool) -> Dict[str, Optional[float]]:
    """What the clients observed over one untraced phase (``client.*``).

    A percentile with too few samples behind it (``enforce``), or of an op
    the workload's script does not hold, reads ``None``.
    """
    from bench.metrics import percentile

    def ms(kind: str, quantile: float) -> Optional[float]:
        value = percentile(run.samples(kind), quantile, enforce=enforce)
        return None if value is None else value * 1e3

    ingest_seconds = sum(run.samples("ingest"))
    rows = sum(client.ingested_rows for client in run.clients)
    return {
        "client.steps_per_s": run.steps / run.measured_seconds,
        "client.advise_p50_ms": ms("advise", 0.5),
        "client.advise_p95_ms": ms("advise", 0.95),
        "client.drill_p50_ms": ms("drill", 0.5),
        "client.drill_p95_ms": ms("drill", 0.95),
        "client.count_p50_ms": ms("count", 0.5),
        "client.first_advice_p50_ms": ms("first_advice", 0.5),
        "client.refined_p50_ms": ms("refined", 0.5),
        "client.refresh_p50_ms": ms("refresh", 0.5),
        "client.ingest_rows_per_s": rows / ingest_seconds if ingest_seconds else None,
    }


def _sample_counts(run: Any) -> Dict[str, int]:
    kinds = sorted({kind for client in run.clients for kind in client.latencies})
    return {kind: len(run.samples(kind)) for kind in kinds}


def run_untraced(spec: Any, seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    """``--trace 0``: set up (several times), run ``seconds`` untraced, verify."""
    import_seconds = time.perf_counter() - _PROCESS_START
    setups: List[float] = []
    run = tables = None
    for attempt in range(1 if smoke else _SETUPS):
        if run is not None:
            run.system.close()
            run = tables = None
            gc.collect()
        started = time.perf_counter()
        run, tables = _set_up(spec, seed)
        setups.append(time.perf_counter() - started)
    assert run is not None and tables is not None
    try:
        before = run.system.router_counters()
        run.measure(seconds=seconds)
        trouble = _router_trouble(before, run.system.router_counters())
    finally:
        run.system.close()
    problems, digest = _verify(spec, run, tables)
    return {
        **_outcome(run, trouble + problems),
        "metrics": {
            "setup_s": import_seconds + statistics.median(setups),
            "peak_rss_mb": run.peak_rss_mb,
        },
        # Not gated (see the README): what the clients saw over this phase.
        "client": client_metrics(run, enforce=not smoke),
        "samples": _sample_counts(run),
        "steps": run.steps,
        "measured_seconds": run.measured_seconds,
        "import_seconds": import_seconds,
        "setup_seconds": setups,
        "tables": {"served": digest},
    }


def run_traced(spec: Any, seed: int, smoke: bool, trace_path: str) -> Dict[str, Any]:
    """``--trace 1``: the per-layer metrics, from two fixed-work phases.

    First ``spec.work`` of the seeded script on the real deployment with
    tracing off: the counts the program publishes, and what the clients
    observed.  Then a quarter of it on one process (servers on threads)
    with the wrappers of :mod:`bench.spans` installed: self-time per layer.
    Fixed work, not fixed time, so that two runs of one seed do the same
    requests and the counts of the one-client workloads repeat exactly.
    """
    from bench import layers
    from bench.spans import Tracer

    run, tables = _set_up(spec, seed)
    try:
        before = layers.published(run)
        run.measure(work=spec.work)
        after = layers.published(run)
    finally:
        run.system.close()
    problems, _ = _verify(spec, run, tables)
    problems += _router_trouble(before, after, prefix="router.")
    values: Dict[str, Optional[float]] = dict(layers.count_metrics(run, before, after))
    values.update(client_metrics(run, enforce=not smoke))
    counted = _outcome(run, problems)

    gc.collect()
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install()
    for warning in caught:
        print(f"bench: WARNING {warning.message}", file=sys.stderr)
    try:
        traced, traced_tables = _set_up(spec, seed, threaded=True, tracer=tracer)
        try:
            traced.measure(work=spec.traced_work)
        finally:
            traced.system.close()
    finally:
        tracer.uninstall()
    timed = _outcome(traced, _verify(spec, traced, traced_tables)[0])
    spans = tracer.spans()
    values.update(
        layers.time_metrics(tracer, spans, traced, len(traced.samples("ingest")))
    )
    traced_rate = traced.steps / traced.measured_seconds
    values["bench.trace_overhead_share"] = 1.0 - traced_rate / values["client.steps_per_s"]
    os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
    layers.write_trace(trace_path, spans)
    attempted = counted["attempted"] + timed["attempted"]
    failed = counted["failed"] + timed["failed"]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "failed_share": failed / max(1, attempted),
        "failures": counted["failures"] + timed["failures"],
        "metrics": values,
        "samples": _sample_counts(run),
        "steps": {"untraced": run.steps, "traced": traced.steps},
        "traced_steps_per_s": traced_rate,
        "spans": len(spans),
        "missing_targets": tracer.missing,
        "trace_file": trace_path,
    }


def _driver_line(result: Dict[str, Any], declared: Any, traced: bool) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    metrics = {}
    for metric in declared:
        value = result["metrics"].get(metric.name)
        if value is None and traced:
            # Not measurable on this workload or at this commit: the op is
            # not in its script or has too few samples for its percentile,
            # or a wrap target is gone (see stderr).
            value = -1.0
        if value is None or not math.isfinite(value):
            raise SystemExit(f"bench: {metric.name} could not be measured")
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": max(1, int(result["attempted"])),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def _guard_exits() -> None:
    """Make every way out of this process tear the server trees down."""
    from bench.systems import close_all

    def give_up() -> None:
        print(f"bench: still running after {_HARD_LIMIT_SECONDS}s; giving up",
              file=sys.stderr, flush=True)
        close_all()
        os._exit(3)

    def terminated(signum: int, frame: Any) -> None:
        raise SystemExit(f"bench: terminated by signal {signum}")

    atexit.register(close_all)
    signal.signal(signal.SIGTERM, terminated)
    watchdog = threading.Timer(_HARD_LIMIT_SECONDS, give_up)
    watchdog.daemon = True
    watchdog.start()


def run_one(args: argparse.Namespace) -> int:
    """``--workload`` mode: one workload, here, now."""
    _import_program()
    from bench.metrics import END_TO_END, PER_LAYER
    from bench.workloads import workload

    _guard_exits()

    spec = workload(args.workload, smoke=args.smoke)
    if args.trace:
        # A fixed amount of work (so counts repeat), whatever --seconds says.
        trace_path = os.path.join(_OUT_DIR, f"bench_trace_{spec.name}.json")
        result = run_traced(spec, args.seed, args.smoke, trace_path)
        declared = PER_LAYER
    else:
        result = run_untraced(spec, args.seed, float(args.seconds), args.smoke)
        declared = END_TO_END
    # Exactly the declared metrics, in the declared order.
    result["metrics"] = {m.name: result["metrics"].get(m.name) for m in declared}
    for metric in declared:
        value = result["metrics"][metric.name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{spec.name:20s} {metric.name:36s} {shown:>12s} {metric.unit}")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    print(_driver_line(result, declared, bool(args.trace)), flush=True)
    return 0


# -- every workload, each in a fresh process -----------------------------------


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _child(workload: str, args: argparse.Namespace, trace: int, seconds: float) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter and read its result file."""
    out = os.path.join(_OUT_DIR, f"{workload}.trace{trace}.json")
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", out,
    ]
    if args.smoke:
        command.append("--smoke")
    if os.path.exists(out):
        os.remove(out)
    try:
        done = subprocess.run(command, cwd=_ROOT, timeout=_HARD_LIMIT_SECONDS + 10,
                              check=False)
    except subprocess.TimeoutExpired:
        return {"error": f"{workload} (trace {trace}) timed out"}
    if done.returncode != 0 or not os.path.exists(out):
        return {"error": f"{workload} (trace {trace}) exited with code {done.returncode}"}
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def run_all(args: argparse.Namespace) -> int:
    """Every workload (or ``--only`` one), untraced then traced."""
    _import_program()
    import numpy

    from bench.workloads import WORKLOADS, workload

    with open(_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else float(contract["run_seconds"])
    )
    names = [args.only] if args.only else [entry.name for entry in WORKLOADS]
    document: Dict[str, Any] = {
        "meta": {
            "git_sha": _git_sha(),
            "seed": args.seed,
            "seconds": seconds,
            "smoke": bool(args.smoke),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "workloads": {},
    }
    os.makedirs(_OUT_DIR, exist_ok=True)
    for name in names:
        workload(name)  # reject an unknown --only before running anything
    jobs = [
        (name, part, trace)
        for name in names
        for part, trace in (("end_to_end", 0), ("per_layer", 1))
        if trace or not args.traced
    ]
    # Measuring runs never share the machine; a smoke run only checks the
    # plumbing, so its children may run two at a time.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        results = list(pool.map(lambda job: _child(job[0], args, job[2], seconds), jobs))
    status = 0
    for (name, part, _), result in zip(jobs, results):
        if result.get("error") or not result.get("correct", False):
            print(f"bench: {name}: {result.get('error') or 'answers failed'}",
                  file=sys.stderr)
            status = 1
        document["workloads"].setdefault(name, {})[part] = result
    out = args.out or os.path.join(_OUT_DIR, "result.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"bench: wrote {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1, help="seed of the request scripts")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs the traced replay")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tables, one set-up, no sample-count rule")
    parser.add_argument("--only", metavar="WORKLOAD", help="all-workloads mode: just this one")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: only the traced runs")
    parser.add_argument("--out", metavar="FILE", help="write the JSON result here")
    args = parser.parse_args(argv)
    if args.workload:
        if args.seconds is None:
            parser.error("--workload needs --seconds")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
