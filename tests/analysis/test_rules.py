"""Per-rule tests against the fixture snippets in ``fixtures/``.

Each rule gets a true-positive file (exact lines asserted), a
true-negative file (no findings) and — for the per-module rules — a
suppression file (the violation is acknowledged inline).  CHR005 runs
over the ``wire_bad``/``wire_good`` mini-projects with its module
options retargeted at the fixture stems.
"""

import pathlib

from repro.analysis import LintConfig, get_rule, lint_paths

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

#: Fixture paths contain "tests/analysis/fixtures", which the *default*
#: config excludes (so the repo lint never trips over planted bugs);
#: tests must opt back in.
INCLUDE_FIXTURES = LintConfig(exclude=())


def run_rule(rule_id, target, options=None):
    rule = get_rule(rule_id)(options)
    return lint_paths([target], INCLUDE_FIXTURES, rules=[rule])


def lines(findings):
    return [f.line for f in findings]


class TestBackendPurity:
    def test_flags_concrete_engine_imports(self):
        findings = run_rule("CHR001", FIXTURES / "chr001_violation.py")
        assert [f.rule_id for f in findings] == ["CHR001", "CHR001"]
        assert lines(findings) == [3, 4]

    def test_protocol_imports_are_clean(self):
        assert run_rule("CHR001", FIXTURES / "chr001_clean.py") == []

    def test_suppression_is_honoured(self):
        assert run_rule("CHR001", FIXTURES / "chr001_suppressed.py") == []

    def test_storage_layer_is_exempt(self, tmp_path):
        pkg = tmp_path / "repro" / "storage"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        inside = pkg / "helper.py"
        inside.write_text("from repro.storage.engine import QueryEngine\n")
        assert run_rule("CHR001", inside) == []


class TestLockDiscipline:
    def test_flags_unlocked_mutations(self):
        findings = run_rule("CHR002", FIXTURES / "chr002_violation.py")
        assert {f.rule_id for f in findings} == {"CHR002"}
        assert lines(findings) == [13, 16, 19, 24]

    def test_guarded_and_lock_free_classes_are_clean(self):
        assert run_rule("CHR002", FIXTURES / "chr002_clean.py") == []

    def test_suppression_is_honoured(self):
        assert run_rule("CHR002", FIXTURES / "chr002_suppressed.py") == []


class TestCounterDiscipline:
    def test_flags_bare_augmented_assignment(self):
        findings = run_rule("CHR003", FIXTURES / "chr003_violation.py")
        assert {f.rule_id for f in findings} == {"CHR003"}
        assert lines(findings) == [5, 6]

    def test_add_merge_and_unrelated_attrs_are_clean(self):
        assert run_rule("CHR003", FIXTURES / "chr003_clean.py") == []

    def test_suppression_is_honoured(self):
        assert run_rule("CHR003", FIXTURES / "chr003_suppressed.py") == []


class TestVersionedCache:
    def test_flags_versionless_cache_traffic(self):
        findings = run_rule("CHR004", FIXTURES / "chr004_violation.py")
        assert {f.rule_id for f in findings} == {"CHR004"}
        assert lines(findings) == [5, 6, 7]

    def test_versioned_calls_and_plain_dicts_are_clean(self):
        assert run_rule("CHR004", FIXTURES / "chr004_clean.py") == []

    def test_receivers_option_retargets_the_patterns(self):
        findings = run_rule(
            "CHR004",
            FIXTURES / "chr004_violation.py",
            options={"receivers": ["*_cache"]},
        )
        assert lines(findings) == [6]  # only advice_cache still matches

    def test_suppression_is_honoured(self):
        assert run_rule("CHR004", FIXTURES / "chr004_suppressed.py") == []


class TestWireSync:
    OPTIONS = {
        "errors_module": "errors_mod",
        "base_error": "WireError",
        "codec_module": "codec_mod",
        "protocol_module": "protocol_mod",
    }

    def test_bad_wire_project_surfaces_every_drift(self):
        findings = run_rule("CHR005", FIXTURES / "wire_bad", self.OPTIONS)
        assert {f.rule_id for f in findings} == {"CHR005"}
        messages = "\n".join(f.message for f in findings)
        # errors: one missing code, one re-used code
        assert "'MissingCodeError' does not declare" in messages
        assert "'UsesTakenCodeError' re-uses wire code 'wire.timeout'" in messages
        # codec: tag-less encoder, one-sided tags both ways
        assert "'_encode_blob' is registered but emits no" in messages
        assert "'mark' has an encoder but no decoder" in messages
        assert "'point' has a decoder but no registered encoder" in messages
        # 2 error-code + 3 codec findings.  The op table is no lint's
        # business any more: tests/api/test_op_table.py holds handlers,
        # client and docs to protocol.OPERATIONS at run time.
        assert len(findings) == 5

    def test_good_wire_project_is_clean(self):
        assert run_rule("CHR005", FIXTURES / "wire_good", self.OPTIONS) == []

    def test_checks_skip_when_modules_are_absent(self):
        # Linting only the clean protocol module: no errors/codec module in
        # the set, so those cross-checks stand down on a partial run.
        findings = run_rule(
            "CHR005", FIXTURES / "wire_good" / "protocol_mod.py", self.OPTIONS
        )
        assert findings == []


class TestEnvelopeExtensions:
    OPTIONS = {"protocol_module": "protocol_mod"}

    def test_half_carried_extension_surfaces_on_each_side(self):
        findings = run_rule("CHR005", FIXTURES / "envelope_bad", self.OPTIONS)
        assert {f.rule_id for f in findings} == {"CHR005"}
        messages = "\n".join(f.message for f in findings)
        assert "Request has no 'trace' slot" in messages
        assert "Request.to_wire never names it" in messages
        assert "Response.from_wire never names it" in messages
        # missing slot + silent to_wire (Request) + silent from_wire (Response)
        assert len(findings) == 3

    def test_fully_carried_extension_is_clean(self):
        assert run_rule("CHR005", FIXTURES / "envelope_good", self.OPTIONS) == []

    def test_stands_down_without_a_declared_extension_table(self):
        # The wire_good protocol declares no ENVELOPE_EXTENSIONS at all —
        # older protocol layouts must not be forced to grow one.
        findings = run_rule(
            "CHR005",
            FIXTURES / "wire_good" / "protocol_mod.py",
            self.OPTIONS,
        )
        assert findings == []


class TestCodecDeterminism:
    OPTIONS = {"module": "chr006_violation"}

    def test_flags_unordered_iteration_in_codec(self):
        findings = run_rule("CHR006", FIXTURES / "chr006_violation.py", self.OPTIONS)
        assert {f.rule_id for f in findings} == {"CHR006"}
        assert lines(findings) == [6, 12, 14]

    def test_sorted_iteration_is_clean(self):
        findings = run_rule(
            "CHR006", FIXTURES / "chr006_clean.py", {"module": "chr006_clean"}
        )
        assert findings == []

    def test_rule_only_applies_to_the_codec_module(self):
        # Same violating file, but the rule is scoped to another module name.
        assert run_rule("CHR006", FIXTURES / "chr006_violation.py") == []
