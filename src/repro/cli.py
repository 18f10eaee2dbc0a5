"""Command-line interface: ``charles`` / ``python -m repro.cli``.

Sub-commands:

* ``demo``     — run the Figure 1 scenario on the synthetic VOC dataset;
* ``advise``   — answer a context query over a CSV file or built-in dataset;
* ``profile``  — print the statistical profile of a table (or of a context);
* ``segment``  — build one segmentation by cutting on explicit attributes;
* ``serve``    — expose a table through the advisor service: with
  ``--http PORT`` as a real HTTP server speaking the versioned wire
  protocol, with ``--simulate`` as an in-process multi-user workload
  replay reporting throughput, cache hit rates and batching statistics;
* ``cluster``  — scale out: ``cluster serve`` spawns N advisor node
  processes behind one sharding HTTP router with replication, failover
  and graceful degradation (see ``docs/architecture.md``);
* ``call``     — speak the wire protocol from the shell: one operation
  against a running ``serve --http`` server (or a cluster router — the
  front doors are protocol-identical);
* ``ingest``   — mutate a served table live: append rows (inline JSON or
  a CSV file) and/or delete by a WHERE clause; open sessions see the
  change, their advice goes stale, and ``advise --refresh`` recomputes;
* ``datasets`` — list the built-in synthetic workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.api.protocol import OPERATIONS
from repro.errors import CharlesError

if TYPE_CHECKING:  # each command imports what it runs: `cluster serve` no engine
    from repro.backends.base import ExecutionBackend
    from repro.cluster.specs import TableSpec
    from repro.core.advisor import Charles
    from repro.service import AdvisorService
    from repro.storage.table import Table

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    from repro.cluster.specs import dataset_names

    parser = argparse.ArgumentParser(
        prog="charles",
        description="Charles, big data query advisor (CIDR 2013 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command")

    def add_source_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--csv", help="path of a CSV file to explore")
        sub.add_argument(
            "--dataset",
            choices=dataset_names(),
            help="built-in synthetic dataset to explore",
        )
        sub.add_argument("--rows", type=int, default=None,
                         help="number of rows for built-in datasets")
        sub.add_argument("--seed", type=int, default=42, help="random seed")

    def add_advisor_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--max-indep", type=float, default=0.99,
                         help="INDEP stopping threshold (paper default: 0.99)")
        sub.add_argument("--max-depth", type=int, default=12,
                         help="maximum number of queries per segmentation")
        sub.add_argument("--max-answers", type=int, default=8,
                         help="number of ranked answers to display")
        sub.add_argument("--ranker",
                         choices=("entropy", "weighted", "lexicographic", "surprise"),
                         default="entropy", help="ranking policy")
        sub.add_argument("--backend", default="memory",
                         help="execution backend spec: memory (default; the "
                              "engine picks its access path per query), "
                              "memory?sample=0.1&seed=7 (advise on a uniform "
                              "sample), memory?partitions=4 (4 shards; identical "
                              "answers), sqlite, "
                              "sqlite:///path.db#table; index=... forces a path")
        sub.add_argument("--style", choices=("pie", "treemap", "table"), default="pie",
                         help="detail renderer for the selected answer")

    demo = subparsers.add_parser("demo", help="run the Figure 1 VOC scenario")
    demo.add_argument("--rows", type=int, default=5000)
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--style", choices=("pie", "treemap", "table"), default="pie")

    advise = subparsers.add_parser("advise", help="answer a context query")
    add_source_arguments(advise)
    add_advisor_arguments(advise)
    advise.add_argument("--context", help="SDL query or SQL WHERE clause")
    advise.add_argument("--columns", nargs="*", help="columns forming the context")
    advise.add_argument("--approximate", action="store_true",
                        help="advise on a uniform sample of the rows instead "
                             "of every row: answers arrive faster and carry an "
                             "explicit error bound")
    advise.add_argument("--show-distribution", metavar="ATTR",
                        help="also plot this attribute's distribution per segment "
                             "of the best answer")

    explore = subparsers.add_parser(
        "explore", help="scripted drill-down: advise, pick a segment, repeat"
    )
    add_source_arguments(explore)
    add_advisor_arguments(explore)
    explore.add_argument("--context", help="SDL query or SQL WHERE clause")
    explore.add_argument("--columns", nargs="*", help="columns forming the context")
    explore.add_argument(
        "--path",
        nargs="*",
        default=[],
        metavar="ANSWER:SEGMENT",
        help="drill path, e.g. '0:0 1:2' picks segment 0 of answer 0, "
             "then segment 2 of answer 1",
    )

    profile = subparsers.add_parser("profile", help="profile a table or a context")
    add_source_arguments(profile)
    profile.add_argument("--context", help="SDL query or SQL WHERE clause")

    segment = subparsers.add_parser("segment", help="cut a context on explicit attributes")
    add_source_arguments(segment)
    segment.add_argument("--context", help="SDL query or SQL WHERE clause")
    segment.add_argument("--on", nargs="+", required=True,
                         help="attributes to cut on, in order")
    segment.add_argument("--style", choices=("pie", "treemap", "table"), default="pie")

    serve = subparsers.add_parser(
        "serve",
        help="serve a table through the advisor service "
             "(--http PORT for a real server, --simulate for a workload replay)",
    )
    add_source_arguments(serve)
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="run a real HTTP server speaking the wire protocol "
                            "on this port (0 = pick a free port)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --http (default: loopback)")
    serve.add_argument("--simulate", action="store_true",
                       help="replay a synthetic multi-user workload in-process "
                            "and report throughput")
    serve.add_argument("--users", type=int, default=4,
                       help="number of simulated concurrent users")
    serve.add_argument("--steps", type=int, default=3,
                       help="drill/back actions per user after the first advise")
    serve.add_argument("--workers", type=int, default=1,
                       help="with --simulate: threads replaying the users "
                            "(1 = sequential)")
    serve.add_argument("--distinct-paths", type=int, default=None,
                       help="unique exploration paths shared round-robin "
                            "(default: one per user)")
    serve.add_argument("--hot-contexts", type=int, default=2,
                       help="size of the popular starting-context pool")
    serve.add_argument("--cache-capacity", type=int, default=4096,
                       help="entries of the shared per-table result cache")
    serve.add_argument("--backend", default="memory",
                       help="execution backend spec for the table runtime "
                            "(memory, sqlite, memory?partitions=4, ...)")

    cluster = subparsers.add_parser(
        "cluster",
        help="run a multi-node advisor cluster behind a sharding router",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command")
    cluster_serve = cluster_sub.add_parser(
        "serve",
        help="spawn N advisor node processes behind one HTTP router "
             "(sessions shard across nodes; ingest replicates to all)",
    )
    add_source_arguments(cluster_serve)
    cluster_serve.add_argument("--http", type=int, required=True, metavar="PORT",
                               help="router front-door port "
                                    "(0 = pick a free port)")
    cluster_serve.add_argument("--host", default="127.0.0.1",
                               help="bind address for router and nodes "
                                    "(default: loopback)")
    cluster_serve.add_argument("--nodes", type=int, default=2,
                               help="advisor node processes to spawn")
    cluster_serve.add_argument("--replicas", type=int, default=1,
                               help="failover candidates per shard")
    cluster_serve.add_argument("--probe-interval", type=float, default=0.5,
                               help="seconds between node health probes")
    cluster_serve.add_argument("--backend", default="memory",
                               help="execution backend spec per node "
                                    "(memory, sqlite, ...)")

    call = subparsers.add_parser(
        "call", help="execute one wire-protocol operation against a running server"
    )
    call.add_argument("--url", required=True,
                      help="base URL of a serve --http server, "
                           "e.g. http://127.0.0.1:8765")
    call.add_argument("--op", required=True, choices=sorted(OPERATIONS),
                      help="operation to execute")
    call.add_argument("--session", default="", help="session name the op addresses")
    call.add_argument("--table", default=None, help="table name (open_session, count)")
    call.add_argument("--context", default=None,
                      help="SDL query or SQL WHERE clause (open_session, advise, count)")
    call.add_argument("--answer-index", type=int, default=None,
                      help="ranked-answer index (drill)")
    call.add_argument("--segment-index", type=int, default=None,
                      help="segment index within the answer (drill)")
    call.add_argument("--max-answers", type=int, default=None,
                      help="ranked answers per advise (open_session)")
    call.add_argument("--rows-json", default=None, metavar="JSON",
                      help="JSON array of row objects to append (ingest)")
    call.add_argument("--delete", default=None, metavar="WHERE",
                      help="SDL query or SQL WHERE clause selecting rows "
                           "to delete (ingest)")
    call.add_argument("--refresh", action="store_true",
                      help="recompute the current context's advice against "
                           "the newest data version (advise)")
    call.add_argument("--mode", choices=("exact", "interactive"), default=None,
                      help="advise mode: interactive serves approximate "
                           "advice from a uniform sample; the refine op "
                           "computes the exact advice on request (advise)")
    call.add_argument("--limit", type=int, default=None,
                      help="max entries per operation (slow_ops)")
    call.add_argument("--timeout", type=float, default=30.0,
                      help="HTTP timeout in seconds")
    call.add_argument("--retries", type=int, default=0,
                      help="extra transport attempts after a connection-level "
                           "failure (exponential backoff; HTTP errors are "
                           "never retried)")
    call.add_argument("--trace", action="store_true",
                      help="request an end-to-end trace and print the "
                           "span tree (router and engine timings) after "
                           "the result")
    call.add_argument("--json", action="store_true", dest="raw_json",
                      help="print the raw wire result as JSON instead of "
                           "a human-readable rendering")

    ingest = subparsers.add_parser(
        "ingest",
        help="append rows to (and/or delete rows from) a table served by a "
             "running serve --http server",
    )
    ingest.add_argument("--url", required=True,
                        help="base URL of a serve --http server")
    ingest.add_argument("--table", default=None,
                        help="table to mutate (when several are registered)")
    ingest.add_argument("--rows-json", default=None, metavar="JSON",
                        help="JSON array of row objects to append")
    ingest.add_argument("--csv", default=None, metavar="FILE",
                        help="CSV file whose rows are appended")
    ingest.add_argument("--delete", default=None, metavar="WHERE",
                        help="SDL query or SQL WHERE clause selecting rows "
                             "to delete (appends apply first)")
    ingest.add_argument("--timeout", type=float, default=30.0,
                        help="HTTP timeout in seconds")
    ingest.add_argument("--retries", type=int, default=0,
                        help="extra transport attempts after a "
                             "connection-level failure")

    subparsers.add_parser("datasets", help="list the built-in synthetic datasets")
    return parser


def _table_spec(args: argparse.Namespace) -> TableSpec:
    from repro.cluster.specs import TableSpec

    if getattr(args, "csv", None):
        return TableSpec.csv(args.csv)
    dataset = getattr(args, "dataset", None)
    if dataset:
        # --rows 0, like no --rows, means the dataset's default size.
        rows = getattr(args, "rows", None) or None
        return TableSpec.dataset(dataset, rows=rows, seed=args.seed)
    raise CharlesError("provide either --csv or --dataset")


def _load_table(args: argparse.Namespace) -> Table:
    return _table_spec(args).load()


def _make_ranker(name: str, engine: ExecutionBackend):
    from repro.core.ranking import EntropyRanker, LexicographicRanker, WeightedRanker

    if name == "weighted":
        return WeightedRanker()
    if name == "lexicographic":
        return LexicographicRanker()
    if name == "surprise":
        from repro.core.interestingness import SurpriseRanker

        return SurpriseRanker(engine=engine)
    return EntropyRanker()


def _make_advisor(table: Table, args: argparse.Namespace) -> Charles:
    """The advisor the advise/explore/segment commands run; a ranker that
    issues queries (``--ranker surprise``) runs them on the advisor's own
    backend."""
    from repro.backends.registry import open_backend
    from repro.core.advisor import Charles
    from repro.core.hbcuts import HBCutsConfig

    config = HBCutsConfig(
        max_indep=getattr(args, "max_indep", 0.99),
        max_depth=getattr(args, "max_depth", 12),
    )
    engine = open_backend(getattr(args, "backend", None) or "memory", table)
    return Charles(
        engine,
        config=config,
        ranker=_make_ranker(getattr(args, "ranker", "entropy"), engine),
    )


def _resolve_context(args: argparse.Namespace):
    context = getattr(args, "context", None)
    if context:
        return context
    columns = getattr(args, "columns", None)
    if columns:
        return list(columns)
    return None


def _command_demo(args: argparse.Namespace) -> int:
    from repro.core.advisor import Charles
    from repro.viz.report import render_advice
    from repro.workloads import FIGURE1_CONTEXT_COLUMNS, generate_voc

    table = generate_voc(rows=args.rows, seed=args.seed)
    advisor = Charles(table)
    advice = advisor.advise(list(FIGURE1_CONTEXT_COLUMNS), max_answers=6)
    print(render_advice(advice, style=args.style))
    return 0


def _command_advise(args: argparse.Namespace) -> int:
    from repro.viz.histogram import segment_distributions
    from repro.viz.report import render_advice

    table = _load_table(args)
    advisor = _make_advisor(table, args)
    mode = "interactive" if getattr(args, "approximate", False) else None
    advice = advisor.advise(
        _resolve_context(args), max_answers=args.max_answers, mode=mode
    )
    print(render_advice(advice, style=args.style))
    if advice.approximate:
        note = "approximate advice (uniform sample)"
        if advice.error_bound is not None:
            note += f": counts within ±{advice.error_bound:.1%} of the table's rows"
        print()
        print(note + "; re-run without --approximate for exact numbers")
    probe = getattr(args, "show_distribution", None)
    if probe and advice.answers:
        print()
        if advisor.table is None:
            print(f"(distribution of {probe!r} unavailable: the "
                  f"{args.backend!r} backend exposes no in-memory columns)")
        else:
            print(segment_distributions(advisor.engine, advice.best().segmentation, probe))
    return 0


def _parse_drill_path(raw_path):
    steps = []
    for token in raw_path:
        answer_text, _, segment_text = token.partition(":")
        try:
            steps.append((int(answer_text), int(segment_text)))
        except ValueError:
            raise CharlesError(
                f"invalid drill step {token!r}; expected ANSWER:SEGMENT, e.g. 0:1"
            ) from None
    return steps


def _command_explore(args: argparse.Namespace) -> int:
    from repro.core.session import ExplorationSession
    from repro.viz.report import render_advice

    table = _load_table(args)
    advisor = _make_advisor(table, args)
    session = ExplorationSession(advisor, max_answers=args.max_answers)
    advice = session.start(_resolve_context(args))
    print(render_advice(advice, style=args.style, max_answers=args.max_answers))
    for answer_index, segment_index in _parse_drill_path(args.path):
        advice = session.drill(answer_index, segment_index)
        print()
        print(f"--- drilled into answer {answer_index}, segment {segment_index} ---")
        print(" -> ".join(session.breadcrumbs()))
        print(render_advice(advice, style=args.style, max_answers=args.max_answers))
    print()
    print(session.describe())
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    from repro.core.advisor import Charles

    table = _load_table(args)
    advisor = Charles(table)
    profile = advisor.profile(getattr(args, "context", None))
    print(profile.describe())
    return 0


def _command_segment(args: argparse.Namespace) -> int:
    from repro.viz.piechart import pie_chart
    from repro.viz.treemap import treemap

    table = _load_table(args)
    advisor = _make_advisor(table, args)
    segmentation = advisor.segment(_resolve_context(args), args.on)
    if args.style == "treemap":
        print(treemap(segmentation))
    elif args.style == "table":
        print(segmentation.describe())
    else:
        print(pie_chart(segmentation))
    return 0


def _serve_service(args: argparse.Namespace, table: Table) -> AdvisorService:
    from repro.service import AdvisorService

    return AdvisorService(
        table,
        cache_capacity=args.cache_capacity,
        backend=getattr(args, "backend", None) or "memory",
    )


def _command_serve(args: argparse.Namespace) -> int:
    if args.http is not None and args.simulate:
        raise CharlesError("pass either --http PORT or --simulate, not both")
    if args.http is None and not args.simulate:
        raise CharlesError(
            "pass --http PORT to run the HTTP server, "
            "or --simulate to replay a synthetic workload"
        )
    table = _load_table(args)
    service = _serve_service(args, table)
    if args.http is not None:
        from repro.api.server import AdvisorHTTPServer

        server = AdvisorHTTPServer(service, host=args.host, port=args.http)
        print(f"advisor service listening on {server.url}")
        print(f"  table {table.name!r} ({table.num_rows} rows); "
              f"POST {server.url}/v1/rpc, GET {server.url}/v1/health")
        sys.stdout.flush()
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            print("shutting down")
        finally:
            server.shutdown()
        return 0
    from repro.workloads.concurrent import generate_concurrent_workload
    from repro.workloads.concurrent import serve as serve_workload

    scripts = generate_concurrent_workload(
        table.column_names,
        users=args.users,
        steps=args.steps,
        seed=args.seed,
        hot_contexts=args.hot_contexts,
        distinct_paths=args.distinct_paths,
    )
    report = serve_workload(service, scripts, workers=args.workers)
    print(report.describe())
    print()
    print(service.describe())
    return 0


def _render_call_result(result) -> str:
    from repro.api.codec import to_wire
    from repro.core.advisor import Advice

    if isinstance(result, Advice):
        return result.describe()
    if isinstance(result, (dict, list)):
        return json.dumps(to_wire(result), indent=2, ensure_ascii=False, sort_keys=True)
    return str(result)


def _parse_rows_json(raw: Optional[str]):
    if raw is None:
        return None
    try:
        rows = json.loads(raw)
    except ValueError as exc:
        raise CharlesError(f"--rows-json is not valid JSON: {exc}") from None
    if not isinstance(rows, list) or not all(
        isinstance(row, dict) for row in rows
    ):
        raise CharlesError(
            "--rows-json must be a JSON array of row objects, "
            'e.g. \'[{"tonnage": 900, "type_of_boat": "pinas"}]\''
        )
    return rows


def _command_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import AdvisorCluster

    if getattr(args, "cluster_command", None) != "serve":
        raise CharlesError("usage: charles cluster serve --nodes N --http PORT ...")
    specs = [_table_spec(args)]
    cluster = AdvisorCluster(
        specs,
        nodes=args.nodes,
        replicas=args.replicas,
        host=args.host,
        port=args.http,
        probe_interval=args.probe_interval,
        service_options={"backend": args.backend},
    )
    cluster.start()
    try:
        assert cluster.server is not None and cluster.router is not None
        print(f"cluster router listening on {cluster.url}")
        for handle in cluster.handles():
            print(f"  {handle.name} pid={handle.pid} {handle.url}")
        print(f"  {len(specs)} table(s): "
              f"{', '.join(spec.describe() for spec in specs)}; "
              f"replicas={args.replicas}")
        print(f"  POST {cluster.url}/v1/rpc, GET {cluster.url}/v1/health, "
              f"GET {cluster.url}/v1/cluster")
        sys.stdout.flush()
        cluster.server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        print("shutting down cluster")
    finally:
        cluster.stop()
    return 0


def _command_call(args: argparse.Namespace) -> int:
    from repro.api.client import RemoteAdvisor
    from repro.api.codec import to_wire

    advisor = RemoteAdvisor(
        args.url, timeout=args.timeout, retries=args.retries, trace=args.trace
    )
    params = {
        key: value
        for key, value in (
            ("table", args.table),
            ("context", args.context),
            ("answer_index", args.answer_index),
            ("segment_index", args.segment_index),
            ("max_answers", args.max_answers),
            ("rows", _parse_rows_json(args.rows_json)),
            ("delete", args.delete),
            ("refresh", True if args.refresh else None),
            ("mode", args.mode),
            ("limit", args.limit),
        )
        if value is not None
    }
    result = advisor.call(args.op, session=args.session, **params)
    if args.raw_json:
        print(json.dumps(to_wire(result), indent=2, ensure_ascii=False, sort_keys=True))
    else:
        print(_render_call_result(result))
    if args.trace:
        from repro.obs import format_span_tree

        if advisor.last_trace is not None:
            print("trace:")
            print(format_span_tree(advisor.last_trace))
        else:
            print("trace: (server returned no trace)")
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    from repro.api.client import RemoteAdvisor
    from repro.api.codec import to_wire
    from repro.storage.csv_loader import load_csv

    rows: List[dict] = list(_parse_rows_json(args.rows_json) or [])
    if args.csv:
        rows.extend(load_csv(args.csv).iter_rows())
    if not rows and args.delete is None:
        raise CharlesError(
            "nothing to ingest: provide --rows-json, --csv and/or --delete"
        )
    advisor = RemoteAdvisor(args.url, timeout=args.timeout, retries=args.retries)
    result = advisor.ingest(
        rows=rows or None, delete=args.delete, table=args.table
    )
    print(json.dumps(to_wire(result), indent=2, ensure_ascii=False, sort_keys=True))
    return 0


def _command_datasets(_: argparse.Namespace) -> int:
    print("built-in synthetic datasets:")
    print("  voc        VOC shipping voyages (Figure 1 schema, planted dependencies)")
    print("  astronomy  sky-survey object catalogue (class drives magnitude/redshift)")
    print("  weblog     web access log (Zipf URL mix, category drives latency/status)")
    return 0


_COMMANDS = {
    "demo": _command_demo,
    "advise": _command_advise,
    "explore": _command_explore,
    "profile": _command_profile,
    "segment": _command_segment,
    "serve": _command_serve,
    "cluster": _command_cluster,
    "call": _command_call,
    "ingest": _command_ingest,
    "datasets": _command_datasets,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if not args.command:
        parser.print_help()
        return 1
    handler = _COMMANDS[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed reader surfaces here, not at exit
        return code
    except CharlesError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader left (`… | head`): Python's documented idiom points
        # stdout at devnull, so the flush at interpreter exit is silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised through subprocess tests
    sys.exit(main())
