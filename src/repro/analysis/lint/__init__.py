"""repro.analysis.lint — the repo's own static-analysis gate.

Two passes enforce the conventions seven PRs of growth hardened:

- **Pass 1** (:mod:`~repro.analysis.lint.rules`): ~10 AST rules
  (REP001–REP010) run over ``src/``, ``tests/`` and ``benchmarks/``
  without importing the target — seeded-RNG threading, no silent
  exception swallows, hoisted loop-body telemetry, differential-tested
  batch kernels, and friends.  Suppressions are
  ``# repro: noqa[REPxxx]`` (same line) or
  ``# repro: noqa-file[REPxxx]`` (whole file); unused suppressions are
  themselves findings (REP000).
- **Pass 2** (:mod:`~repro.analysis.lint.registry_audit`): imports the
  package and audits the scenario registry — batch-kernel declarations,
  question-kind/backend bijection, the ScenarioSpec hash-field
  manifest, golden ⇒ validity (REG001–REG004).  Rate functions that
  do not take batches fail model construction, so REG001 reports them.

CLI: ``python -m repro lint [--strict] [--format=text|json]``; the
programmatic surface is :func:`run_lint` returning a
:class:`LintReport`.
"""

from repro.analysis.lint.cli import run_lint
from repro.analysis.lint.framework import (
    Check,
    FileContext,
    Finding,
    LintReport,
    build_test_index,
    lint_source,
)
from repro.analysis.lint.rules import ALL_CHECKS, all_checks

__all__ = [
    "ALL_CHECKS",
    "Check",
    "FileContext",
    "Finding",
    "LintReport",
    "all_checks",
    "build_test_index",
    "lint_source",
    "run_lint",
]
