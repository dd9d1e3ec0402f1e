"""Tests for the static-analysis gate (repro.analysis.lint).

Three layers:

- every pass-1 rule REP001–REP011 fires on its violating fixture in
  ``tests/analysis_fixtures/`` and stays silent on the clean twin;
- the framework mechanics: suppressions (line, bare, file-level), the
  unused-suppression warning REP000, the parse-error finding REP900,
  the cross-file test index, and the report/JSON surface;
- pass 2: the registry audit is clean on the real catalog and catches a
  synthetically bad spec/model;

plus the self-clean gate: ``repro lint --strict`` exits 0 on this repo.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.lint import (
    ALL_CHECKS,
    LintReport,
    all_checks,
    build_test_index,
    lint_source,
    run_lint,
)
from repro.analysis.lint.framework import Finding
from repro.analysis.lint.registry_audit import audit_registry
from repro.params import Interval
from repro.population import PopulationModel, Transition
from repro.scenarios.registry import _REGISTRY, register_scenario
from repro.scenarios.spec import Question, ScenarioSpec

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: (code, section the fixture is linted as, extra test-index names)
RULE_CASES = [
    ("REP001", "src", frozenset()),
    ("REP002", "src", frozenset()),
    ("REP003", "src", frozenset()),
    ("REP004", "src", frozenset()),
    ("REP005", "src", frozenset()),
    ("REP006", "src", frozenset()),
    ("REP007", "src", frozenset({"covered_kernel_batch"})),
    ("REP008", "src", frozenset()),
    ("REP009", "src", frozenset()),
    ("REP010", "src", frozenset()),
    ("REP011", "src", frozenset()),
]


def _lint_fixture(name, section, test_names=frozenset()):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(text, f"src/repro/{name}", section, all_checks(),
                       test_names=test_names)


class TestRulesFireOnFixtures:
    @pytest.mark.parametrize("code,section,names", RULE_CASES,
                             ids=[c for c, _, _ in RULE_CASES])
    def test_bad_fixture_fires(self, code, section, names):
        findings = _lint_fixture(f"{code.lower()}_bad.py", section, names)
        assert any(f.code == code for f in findings), \
            f"{code} did not fire: {[f.render() for f in findings]}"

    @pytest.mark.parametrize("code,section,names", RULE_CASES,
                             ids=[c for c, _, _ in RULE_CASES])
    def test_clean_fixture_is_silent(self, code, section, names):
        findings = _lint_fixture(f"{code.lower()}_clean.py", section, names)
        assert findings == [], [f.render() for f in findings]

    def test_every_declared_rule_has_fixture_pair(self):
        for cls in ALL_CHECKS:
            stem = cls.code.lower()
            assert (FIXTURES / f"{stem}_bad.py").is_file()
            assert (FIXTURES / f"{stem}_clean.py").is_file()

    def test_rule_metadata_complete(self):
        codes = [cls.code for cls in ALL_CHECKS]
        assert len(codes) == len(set(codes)) >= 10
        for cls in ALL_CHECKS:
            assert cls.title and cls.rationale
            assert set(cls.sections) <= {"src", "tests", "benchmarks"}

    def test_section_scoping(self):
        # print() is a src-only rule: the same text is legal in tests/.
        text = (FIXTURES / "rep005_bad.py").read_text(encoding="utf-8")
        assert lint_source(text, "tests/test_x.py", "tests",
                           all_checks()) == []


class TestSuppressions:
    def test_line_suppression_with_code(self):
        text = "def f(bucket=[]):  # repro: noqa[REP004]\n    return bucket\n"
        assert lint_source(text, "src/repro/x.py", "src", all_checks()) == []

    def test_bare_line_suppression(self):
        text = "def f(bucket=[]):  # repro: noqa\n    return bucket\n"
        assert lint_source(text, "src/repro/x.py", "src", all_checks()) == []

    def test_wrong_code_does_not_suppress(self):
        text = "def f(bucket=[]):  # repro: noqa[REP001]\n    return bucket\n"
        findings = lint_source(text, "src/repro/x.py", "src", all_checks())
        codes = {f.code for f in findings}
        assert "REP004" in codes          # the violation survives
        assert "REP000" in codes          # and the suppression is unused

    def test_file_level_suppression(self):
        text = ("# repro: noqa-file[REP004]\n"
                "def f(bucket=[]):\n    return bucket\n"
                "def g(items={}):\n    return items\n")
        assert lint_source(text, "src/repro/x.py", "src", all_checks()) == []

    def test_unused_suppression_is_warning(self):
        text = "x = 1  # repro: noqa[REP003]\n"
        findings = lint_source(text, "src/repro/x.py", "src", all_checks())
        assert [f.code for f in findings] == ["REP000"]
        assert findings[0].severity == "warning"

    def test_noqa_in_docstring_is_not_a_suppression(self):
        text = '"""Docs mention # repro: noqa[REP004] syntax."""\nx = 1\n'
        assert lint_source(text, "src/repro/x.py", "src", all_checks()) == []

    def test_parse_error_becomes_rep900(self):
        findings = lint_source("def broken(:\n", "src/repro/x.py", "src",
                               all_checks())
        assert [f.code for f in findings] == ["REP900"]

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="section"):
            lint_source("x = 1\n", "x.py", "docs", all_checks())


class TestTestIndex:
    def test_index_collects_names_attributes_and_strings(self, tmp_path):
        test_file = tmp_path / "test_sample.py"
        test_file.write_text(
            "def test_k():\n"
            "    model.jacobian_x_batch(x, th)\n"
            "    fn = getattr(obj, 'stringy_kernel_batch')\n",
            encoding="utf-8",
        )
        names = build_test_index([test_file])
        assert {"jacobian_x_batch", "stringy_kernel_batch"} <= names

    def test_non_test_files_ignored(self, tmp_path):
        helper = tmp_path / "helpers.py"
        helper.write_text("def helper_kernel_batch():\n    pass\n",
                          encoding="utf-8")
        assert "helper_kernel_batch" not in build_test_index([helper])


class TestReport:
    def test_json_schema(self):
        report = LintReport(
            findings=[Finding(file="src/a.py", line=3, code="REP001",
                              message="m")],
            files_checked=1, registry_audited=True,
        )
        payload = json.loads(report.render_json())
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["registry_audited"] is True
        assert payload["counts"] == {"errors": 1, "warnings": 0}
        assert payload["findings"][0] == {
            "file": "src/a.py", "line": 3, "code": "REP001",
            "severity": "error", "message": "m",
        }

    def test_exit_codes(self):
        warning = Finding(file="a.py", line=1, code="REP000", message="m",
                          severity="warning")
        error = Finding(file="a.py", line=1, code="REP004", message="m")
        assert LintReport().exit_code(strict=True) == 0
        assert LintReport(findings=[warning]).exit_code() == 0
        assert LintReport(findings=[warning]).exit_code(strict=True) == 1
        assert LintReport(findings=[error]).exit_code() == 1


def _batchless_factory():
    """A model declaring neither batch kernel (REG001 bait)."""
    tr = Transition("t", [1.0], lambda x, th: x[0] * th[0])
    return PopulationModel("batchless", ("x",), [tr], Interval(0.0, 2.0))


def _scalar_rate_factory():
    """An affine model with a ``max(...)`` rate: it fails to build."""
    inflow = Transition("inflow", [1.0], lambda x, th: th[0] * (1.0 - x[0]))
    outflow = Transition("clamped_outflow", [-1.0],
                         lambda x, th: max(x[0], 0.0))

    def affine(x):
        return -np.maximum(x[:, :1], 0.0), (1.0 - x)[:, :, None]

    def jacobian(x, theta):
        return (-theta[:, 0] - (x[:, 0] > 0.0))[:, None, None]

    return PopulationModel("scalar_rates", ("x",), [inflow, outflow],
                           Interval(0.5, 2.0), affine_drift_batch=affine,
                           drift_jacobian_batch=jacobian)


class TestRegistryAudit:
    def test_real_catalog_is_clean(self):
        assert audit_registry() == []

    def test_declaration_properties_reflect_kernels(self):
        bare = _batchless_factory()
        assert not bare.is_affine
        assert not bare.declares_drift_jacobian_batch
        from repro.models import make_sir_model

        sir = make_sir_model()
        assert sir.is_affine
        assert sir.declares_drift_jacobian_batch

    def test_bad_scenario_is_caught(self):
        spec = ScenarioSpec(
            name="lint-test-bad-scenario",
            title="synthetic audit bait",
            model_factory=_batchless_factory,
            x0=(0.5,),
            horizon=1.0,
            questions=(Question("envelope", options={"n_times": 3}),),
            observables=("x",),
            golden={"pin": 1.0},     # golden without validity -> REG004
        )
        register_scenario(spec)
        try:
            findings = audit_registry()
        finally:
            _REGISTRY.pop(spec.name, None)
        codes = [f.code for f in findings]
        assert codes.count("REG001") == 1    # both kernels undeclared
        assert "REG004" in codes
        messages = " ".join(f.message for f in findings)
        assert "lint-test-bad-scenario" in messages


    def test_scalar_only_rate_is_caught(self):
        # A rate that cannot take a batch makes the model's constructor
        # raise, so the audit reports the factory under REG001, naming
        # the rate.
        register_scenario(_scalar_rate_spec())
        try:
            findings = audit_registry()
        finally:
            _REGISTRY.pop("lint-test-scalar-rate", None)
        assert [f.code for f in findings] == ["REG001"]
        message = findings[0].message
        assert "lint-test-scalar-rate" in message
        assert "'clamped_outflow'" in message
        assert "'inflow'" not in message

    def test_strict_cli_fails_a_scalar_rate_scenario(self, capsys):
        from repro.__main__ import main

        register_scenario(_scalar_rate_spec())
        try:
            code = main(["lint", "--root", str(REPO_ROOT), "--strict",
                         "--format", "json"])
        finally:
            _REGISTRY.pop("lint-test-scalar-rate", None)
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["code"] for f in payload["findings"]] == ["REG001"]
        assert "'clamped_outflow'" in payload["findings"][0]["message"]


def _scalar_rate_spec():
    return ScenarioSpec(
        name="lint-test-scalar-rate",
        title="synthetic scalar-rate bait",
        model_factory=_scalar_rate_factory,
        x0=(0.5,),
        horizon=1.0,
        questions=(Question("envelope", options={"n_times": 3}),),
        observables=("x",),
    )


class TestSelfClean:
    def test_repo_lints_clean_under_strict(self):
        report = run_lint(REPO_ROOT)
        assert report.exit_code(strict=True) == 0, report.render_text()
        assert report.registry_audited
        assert report.files_checked > 100

    def test_cli_smoke_json(self, capsys):
        from repro.__main__ import main

        code = main(["lint", "--root", str(REPO_ROOT), "--no-registry",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["findings"] == []


class TestRunLint:
    def test_bad_root_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="src/repro"):
            run_lint(tmp_path)

    def test_fixture_directory_is_excluded(self):
        # The deliberately violating fixtures must never reach discovery.
        from repro.analysis.lint.framework import discover_files

        files = discover_files(REPO_ROOT)
        all_paths = [p for paths in files.values() for p in paths]
        assert all("analysis_fixtures" not in p.parts for p in all_paths)
        assert any(p.name == "test_lint.py" for p in files["tests"])
