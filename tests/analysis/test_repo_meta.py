"""Meta-tests: the shipped tree itself satisfies charles-lint.

These are the tests CI leans on: if a change reintroduces an unlocked
mutation, a bare counter ``+=`` or an unversioned cache call anywhere
under ``src/``, the suite fails with the lint report in the assertion
message — the same contract as the ``static-analysis`` CI job, but
reachable with plain pytest.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import get_rule, lint_paths, load_config
from repro.analysis.rules import CounterDisciplineRule, WireSyncRule

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
LINT = REPO_ROOT / "scripts" / "lint.py"


def run_script(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, str(LINT), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


class TestRepoIsClean:
    def test_src_tree_has_zero_findings_in_process(self):
        findings = lint_paths([SRC], load_config(REPO_ROOT))
        report = "\n".join(f.format() for f in findings)
        assert findings == [], f"charles-lint findings in src:\n{report}"

    def test_lint_script_exits_zero_on_src(self):
        result = run_script("src")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_lint_script_json_reports_zero_findings(self):
        result = run_script("src", "--json")
        assert result.returncode == 0, result.stdout + result.stderr
        document = json.loads(result.stdout)
        assert document["findings"] == []
        assert document["files"] > 0

    def test_cli_subcommand_matches_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "src"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestPlantedViolationsAreCaught:
    """The ISSUE's acceptance check: reintroducing a known bug class fails lint."""

    def test_unlocked_mutation_and_bare_increment_fail(self, tmp_path):
        bad = tmp_path / "regression.py"
        bad.write_text(
            "import threading\n"
            "\n"
            "\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._hits = 0\n"
            "\n"
            "    def record(self, counter):\n"
            "        self._hits += 1\n"
            "        counter.evaluations += 1\n"
        )
        result = run_script(str(bad))
        assert result.returncode == 1
        assert "CHR002" in result.stdout and f"{bad}:10" in result.stdout
        assert "CHR003" in result.stdout and f"{bad}:11" in result.stdout

    def test_versionless_cache_call_fails(self, tmp_path):
        bad = tmp_path / "regression.py"
        bad.write_text("def f(cache, key):\n    return cache.get(key)\n")
        result = run_script(str(bad))
        assert result.returncode == 1
        assert "CHR004" in result.stdout


class TestRuleDefaultsTrackTheCode:
    def test_chr003_fields_match_operation_counter(self):
        from repro.storage.engine import OperationCounter

        assert tuple(CounterDisciplineRule.DEFAULT_FIELDS) == OperationCounter._FIELDS

    def test_chr005_defaults_point_at_real_modules(self):
        import importlib

        defaults = WireSyncRule.DEFAULTS
        for key in ("errors_module", "codec_module", "protocol_module"):
            module = importlib.import_module(defaults[key])
            if key == "errors_module":
                assert hasattr(module, defaults["base_error"])
            if key == "codec_module":
                assert hasattr(module, defaults["encoders_name"])
                assert hasattr(module, defaults["decoders_name"])
            if key == "protocol_module":
                assert hasattr(module, defaults["extensions_name"])
                for name in defaults["envelope_classes"]:
                    assert hasattr(module, name)

    def test_pyproject_chr001_options_equal_rule_defaults(self):
        """The pyproject restates CHR001's defaults so Python 3.10 (no
        tomllib: config falls back to defaults) lints identically to 3.11+.
        This test guards the restatement against drift — but only where a
        toml parser exists to read it."""
        tomllib = pytest.importorskip("tomllib")
        from repro.analysis.rules import BackendPurityRule as R

        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            data = tomllib.load(handle)
        options = data["tool"]["charles-lint"]["rules"]["CHR001"]
        assert tuple(options["forbidden_modules"]) == R.DEFAULT_FORBIDDEN_MODULES
        assert tuple(options["forbidden_names"]) == R.DEFAULT_FORBIDDEN_NAMES
        assert tuple(options["allowed_packages"]) == R.DEFAULT_ALLOWED_PACKAGES
        assert tuple(options["allowed_modules"]) == R.DEFAULT_ALLOWED_MODULES


class TestStrictTypingGate:
    def test_mypy_strict_gate_passes(self):
        """Runs only where mypy is installed (the CI static-analysis job)."""
        pytest.importorskip("mypy")
        result = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
