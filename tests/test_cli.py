"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("demo", "advise", "profile", "segment", "serve", "datasets"):
            args = parser.parse_args(
                [command] + (["--on", "tonnage"] if command == "segment" else [])
            )
            assert args.command == command

    def test_advise_defaults_follow_the_paper(self):
        args = build_parser().parse_args(["advise", "--dataset", "voc"])
        assert args.max_indep == pytest.approx(0.99)
        assert args.max_depth == 12


class TestCommands:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out

    def test_datasets_lists_builtins(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "voc" in output and "weblog" in output and "astronomy" in output

    def test_demo_runs_figure1_scenario(self, capsys):
        assert main(["demo", "--rows", "400", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "ranked answers" in output
        assert "tonnage" in output

    def test_advise_on_builtin_dataset(self, capsys):
        exit_code = main(
            [
                "advise",
                "--dataset", "voc",
                "--rows", "400",
                "--columns", "type_of_boat", "tonnage",
                "--max-answers", "3",
            ]
        )
        assert exit_code == 0
        assert "selected answer" in capsys.readouterr().out

    def test_advise_with_sql_context(self, capsys):
        exit_code = main(
            [
                "advise",
                "--dataset", "voc",
                "--rows", "400",
                "--context", "tonnage BETWEEN 1000 AND 3000 AND type_of_boat IN ('fluit', 'jacht')",
                "--max-answers", "2",
            ]
        )
        assert exit_code == 0

    def test_advise_requires_a_source(self, capsys):
        assert main(["advise", "--columns", "x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_advise_on_csv_file(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        rows = ["x,category"]
        for index in range(60):
            rows.append(f"{index},{'a' if index < 30 else 'b'}")
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        exit_code = main(["advise", "--csv", str(csv_path), "--max-answers", "2"])
        assert exit_code == 0
        assert "ranked answers" in capsys.readouterr().out

    def test_serve_simulate_reports_throughput(self, capsys):
        exit_code = main(
            [
                "serve",
                "--simulate",
                "--dataset", "voc",
                "--rows", "400",
                "--users", "3",
                "--steps", "2",
                "--distinct-paths", "1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "req/s" in output
        assert "result cache hit rate" in output
        assert "session 'user-00'" in output

    def test_serve_requires_http_or_simulate(self, capsys):
        assert main(["serve", "--dataset", "voc", "--rows", "300"]) == 2
        err = capsys.readouterr().err
        assert "--http" in err and "--simulate" in err

    def test_serve_rejects_http_and_simulate_together(self, capsys):
        exit_code = main(
            ["serve", "--dataset", "voc", "--rows", "300",
             "--http", "0", "--simulate"]
        )
        assert exit_code == 2
        assert "not both" in capsys.readouterr().err

    def test_profile_command(self, capsys):
        assert main(["profile", "--dataset", "weblog", "--rows", "300"]) == 0
        output = capsys.readouterr().out
        assert "url_category" in output

    def test_segment_command(self, capsys):
        exit_code = main(
            [
                "segment",
                "--dataset", "voc",
                "--rows", "400",
                "--on", "departure_harbour", "tonnage",
                "--style", "table",
            ]
        )
        assert exit_code == 0
        assert "Segmentation" in capsys.readouterr().out

    def test_segment_treemap_style(self, capsys):
        exit_code = main(
            ["segment", "--dataset", "voc", "--rows", "400", "--on", "tonnage",
             "--style", "treemap"]
        )
        assert exit_code == 0

    def test_error_is_reported_with_exit_code_two(self, capsys):
        exit_code = main(
            ["segment", "--dataset", "voc", "--rows", "400", "--on", "not_a_column"]
        )
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_advise_with_distribution_probe(self, capsys):
        exit_code = main(
            [
                "advise",
                "--dataset", "voc",
                "--rows", "400",
                "--columns", "type_of_boat", "departure_harbour",
                "--show-distribution", "tonnage",
                "--max-answers", "2",
            ]
        )
        assert exit_code == 0
        assert "distribution of 'tonnage'" in capsys.readouterr().out

    def test_explore_with_drill_path(self, capsys):
        exit_code = main(
            [
                "explore",
                "--dataset", "voc",
                "--rows", "400",
                "--columns", "type_of_boat", "tonnage",
                "--path", "0:0", "0:0",
                "--max-answers", "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "drilled into answer 0" in output
        assert "level 2" in output

    def test_explore_with_invalid_path_token(self, capsys):
        exit_code = main(
            [
                "explore",
                "--dataset", "voc",
                "--rows", "400",
                "--columns", "type_of_boat", "tonnage",
                "--path", "nonsense",
            ]
        )
        assert exit_code == 2
        assert "invalid drill step" in capsys.readouterr().err

    def test_surprise_ranker_option(self, capsys):
        exit_code = main(
            [
                "advise",
                "--dataset", "voc",
                "--rows", "400",
                "--columns", "type_of_boat", "tonnage", "departure_harbour",
                "--ranker", "surprise",
                "--max-answers", "2",
            ]
        )
        assert exit_code == 0
        assert "surprise" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_surprise_ranker_queries_the_advisors_backend(self, backend):
        from repro.cli import _load_table, _make_advisor

        args = build_parser().parse_args(
            ["advise", "--dataset", "voc", "--rows", "400", "--ranker", "surprise",
             "--backend", backend]
        )
        advisor = _make_advisor(_load_table(args), args)
        assert advisor.ranker.engine is advisor.engine
        assert type(advisor.engine).__name__ == {
            "memory": "QueryEngine", "sqlite": "SQLiteBackend",
        }[backend]

    def test_weighted_ranker_option(self, capsys):
        exit_code = main(
            [
                "advise",
                "--dataset", "voc",
                "--rows", "400",
                "--columns", "type_of_boat", "tonnage",
                "--ranker", "weighted",
                "--max-answers", "2",
            ]
        )
        assert exit_code == 0
        assert "weighted" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--approximate"],
            ["--approximate", "--backend", "sqlite"],
            ["--backend", "memory?sample=0.5&seed=42"],
            ["--backend", "memory?sample=0.5"],
        ],
    )
    def test_sampled_advice_is_announced_with_its_bound(self, capsys, flags):
        arguments = [
            "advise",
            "--dataset", "voc",
            "--rows", "2400",
            "--columns", "type_of_boat", "tonnage",
            "--max-answers", "2",
        ]
        assert main([*arguments, *flags]) == 0
        output = capsys.readouterr().out
        assert "approximate advice (uniform sample): counts within ±" in output
        assert "±0.0%" not in output
        assert main(arguments) == 0
        assert "approximate advice" not in capsys.readouterr().out

    def test_advise_with_parallel_flags_matches_sequential(self, capsys):
        arguments = [
            "advise",
            "--dataset", "voc",
            "--rows", "400",
            "--columns", "type_of_boat", "tonnage",
            "--max-answers", "3",
        ]
        assert main(arguments) == 0
        sequential = capsys.readouterr().out
        assert main([*arguments, "--backend", "memory?partitions=3"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == sequential
        # Threads follow the table: workers is no spec parameter.
        assert main([*arguments, "--backend", "memory?workers=2"]) == 2
        assert "[storage_backend]" in capsys.readouterr().err

    def test_cluster_serve_has_no_workers_flag(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["cluster", "serve", "--http", "0", "--workers", "2"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_serve_rejects_a_negative_cache_capacity(self, capsys):
        arguments = ["serve", "--simulate", "--dataset", "voc", "--rows", "200"]
        assert main([*arguments, "--cache-capacity", "-1"]) == 2
        assert "cache_capacity cannot be negative" in capsys.readouterr().err

    def test_serve_with_workers_and_a_sharded_spec(self, capsys):
        exit_code = main(
            [
                "serve",
                "--simulate",
                "--dataset", "voc",
                "--rows", "400",
                "--users", "3",
                "--steps", "2",
                "--workers", "2",
                "--backend", "memory?partitions=2",
            ]
        )
        assert exit_code == 0
        assert "req/s" in capsys.readouterr().out


class TestCallCommand:
    """The `call` sub-command against a live HTTP server."""

    @pytest.fixture()
    def server(self):
        from repro.api.server import AdvisorHTTPServer
        from repro.service import AdvisorService
        from repro.workloads import generate_voc

        service = AdvisorService(generate_voc(rows=400, seed=3), batch_window=0.0)
        with AdvisorHTTPServer(service) as running:
            yield running

    def test_call_count_round_trip(self, server, capsys):
        exit_code = main(
            [
                "call",
                "--url", server.url,
                "--op", "count",
                "--context", "tonnage: [0, 100000]",
            ]
        )
        assert exit_code == 0
        assert capsys.readouterr().out.strip() == "400"

    def test_call_open_then_advise_renders_advice(self, server, capsys):
        assert main(
            ["call", "--url", server.url, "--op", "open_session",
             "--session", "shell"]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["call", "--url", server.url, "--op", "advise",
             "--session", "shell",
             "--context", "(tonnage:, type_of_boat:)"]
        )
        assert exit_code == 0
        assert "Charles' advice" in capsys.readouterr().out

    def test_call_json_output_is_wire_encoded(self, server, capsys):
        import json as json_module

        assert main(
            ["call", "--url", server.url, "--op", "stats", "--json"]
        ) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert "tables" in payload and "requests" in payload

    def test_call_surfaces_typed_remote_errors(self, server, capsys):
        exit_code = main(
            ["call", "--url", server.url, "--op", "drill", "--session", "ghost"]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "ghost" in err and "core_session" in err

    def test_call_unreachable_server_reports_remote_error(self, capsys):
        exit_code = main(
            ["call", "--url", "http://127.0.0.1:9", "--op", "stats",
             "--timeout", "0.5"]
        )
        assert exit_code == 2
        assert "[remote_unreachable]" in capsys.readouterr().err


class TestIngestCommand:
    """The `ingest` sub-command (and `call --op ingest`) against a server."""

    @pytest.fixture()
    def server(self):
        from repro.api.server import AdvisorHTTPServer
        from repro.service import AdvisorService
        from repro.workloads import generate_voc

        service = AdvisorService(generate_voc(rows=400, seed=3), batch_window=0.0)
        with AdvisorHTTPServer(service) as running:
            yield running

    def test_ingest_rows_json_appends(self, server, capsys):
        import json as json_module

        exit_code = main(
            [
                "ingest",
                "--url", server.url,
                "--rows-json", '[{"tonnage": 901, "type_of_boat": "pinas"}]',
            ]
        )
        assert exit_code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["appended"] == 1
        assert payload["rows"] == 401
        assert payload["data_version"] == 2

    def test_ingest_csv_and_delete(self, server, tmp_path, capsys):
        import json as json_module

        csv_path = tmp_path / "batch.csv"
        csv_path.write_text("tonnage,type_of_boat\n902,pinas\n903,fluit\n")
        exit_code = main(
            [
                "ingest",
                "--url", server.url,
                "--csv", str(csv_path),
                "--delete", "tonnage BETWEEN 902 AND 903",
            ]
        )
        assert exit_code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["appended"] == 2
        assert payload["deleted"] == 2  # appends apply before deletes
        assert payload["rows"] == 400

    def test_ingest_requires_something_to_do(self, server, capsys):
        exit_code = main(["ingest", "--url", server.url])
        assert exit_code == 2
        assert "nothing to ingest" in capsys.readouterr().err

    def test_ingest_rejects_malformed_rows_json(self, server, capsys):
        exit_code = main(
            ["ingest", "--url", server.url, "--rows-json", '{"not": "a list"}']
        )
        assert exit_code == 2
        assert "array of row objects" in capsys.readouterr().err

    def test_call_ingest_then_refresh_clears_staleness(self, server, capsys):
        import json as json_module

        assert main(
            ["call", "--url", server.url, "--op", "open_session",
             "--session", "live", "--context", "(tonnage:, type_of_boat:)"]
        ) == 0
        assert main(
            ["call", "--url", server.url, "--op", "ingest",
             "--rows-json", '[{"tonnage": 901, "type_of_boat": "pinas"}]']
        ) == 0
        capsys.readouterr()
        assert main(
            ["call", "--url", server.url, "--op", "describe",
             "--session", "live", "--json"]
        ) == 0
        assert json_module.loads(capsys.readouterr().out)["stale"] is True
        assert main(
            ["call", "--url", server.url, "--op", "advise",
             "--session", "live", "--refresh"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["call", "--url", server.url, "--op", "describe",
             "--session", "live", "--json"]
        ) == 0
        assert json_module.loads(capsys.readouterr().out)["stale"] is False


class TestServeHTTPSubprocess:
    """End-to-end: `serve --http 0` as a real child process."""

    def test_serve_http_answers_a_remote_client(self, tmp_path):
        import os
        import subprocess
        import sys as sys_module

        from repro.api.client import RemoteAdvisor

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        process = subprocess.Popen(
            [
                sys_module.executable, "-u", "-m", "repro.cli",
                "serve", "--http", "0",
                "--dataset", "voc", "--rows", "300",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=root,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on http://" in banner, banner
            url = banner.strip().rsplit(" ", 1)[-1]
            client = RemoteAdvisor(url, timeout=30.0)
            assert client.health()["status"] == "ok"
            session = client.open_session(
                "sub", context=["tonnage", "type_of_boat"]
            )
            advice = session.advise(["tonnage", "type_of_boat"])
            assert advice.answers
            session.drill(0, 0)
            assert session.depth == 1
        finally:
            process.terminate()
            process.wait(timeout=10)


class TestClosedPipe:
    """A reader that closed stdout (``charles … | head``) ends the CLI quietly."""

    @pytest.mark.parametrize("argv", [
        ["advise", "--dataset", "voc", "--rows", "600", "--columns", "tonnage",
         "type_of_boat", "--style", "table"],
        ["datasets"],  # short enough to sit in the buffer until the exit flush
    ])
    def test_no_traceback_and_a_failing_status(self, argv):
        import os
        import subprocess
        import sys as sys_module

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        reader, writer = os.pipe()
        os.close(reader)  # closed before the CLI writes its first byte
        try:
            completed = subprocess.run(
                [sys_module.executable, "-m", "repro.cli", *argv],
                stdout=writer, stderr=subprocess.PIPE, text=True, env=env,
                cwd=root, timeout=120,
            )
        finally:
            os.close(writer)
        assert "Traceback" not in completed.stderr
        assert completed.stderr == ""
        assert completed.returncode == 1


class TestBuiltinDatasets:
    """``--dataset`` resolves through the cluster's ``TableSpec`` table."""

    GENERATORS = {
        "voc": ("generate_voc", 5000),
        "astronomy": ("generate_astronomy", 8000),
        "weblog": ("generate_weblog", 10000),
    }

    def test_choices_are_the_spec_datasets(self):
        from repro.cluster.specs import dataset_names

        assert dataset_names() == tuple(sorted(self.GENERATORS))
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise", "--dataset", "nope"])

    @pytest.mark.parametrize("dataset", sorted(GENERATORS))
    @pytest.mark.parametrize("rows", [None, 0, 60])
    def test_tables_equal_the_generators_output(self, dataset, rows):
        import repro.workloads
        from repro.cli import _load_table

        name, default_rows = self.GENERATORS[dataset]
        argv = ["advise", "--dataset", dataset, "--seed", "9"]
        if rows is not None:
            argv += ["--rows", str(rows)]
        table = _load_table(build_parser().parse_args(argv))
        expected = getattr(repro.workloads, name)(rows=rows or default_rows, seed=9)
        assert table.schema() == expected.schema()
        assert list(table.iter_rows()) == list(expected.iter_rows())
