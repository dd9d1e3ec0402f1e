"""``python -m repro lint`` — the command-line face of the analyzer.

Runs pass 1 (AST rules over ``src/``, ``tests/`` and ``benchmarks/``)
and, unless ``--no-registry``, pass 2 (the registry contract audit,
which imports the package).  Exit code 0 means clean, 1 means findings
(errors always; warnings too under ``--strict``), 2 means the lint run
itself could not start (bad root).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis.lint.framework import (
    LintReport,
    build_test_index,
    discover_files,
    lint_file,
)
from repro.analysis.lint.rules import ALL_CHECKS, all_checks

__all__ = ["add_lint_arguments", "run_lint", "main"]


def run_lint(root, registry: bool = True) -> LintReport:
    """Lint the repo at ``root``; the programmatic entry point."""
    root = Path(root).resolve()
    if not (root / "src" / "repro").is_dir():
        raise FileNotFoundError(
            f"{root} does not look like the repro repo (no src/repro/); "
            "run from the checkout root or pass --root"
        )
    files = discover_files(root)
    test_names = build_test_index(files["tests"])
    report = LintReport()
    for section, paths in files.items():
        for path in paths:
            rel = path.relative_to(root).as_posix()
            report.findings.extend(
                lint_file(path, rel, section, checks=all_checks(),
                          test_names=test_names)
            )
            report.files_checked += 1
    if registry:
        from repro.analysis.lint.registry_audit import audit_registry

        report.findings.extend(audit_registry())
        report.registry_audited = True
    return report


def add_lint_arguments(parser) -> None:
    parser.add_argument("--strict", action="store_true",
                        help="fail on warnings (unused suppressions) too")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="findings as human-readable text or as the "
                             "JSON schema documented in the README")
    parser.add_argument("--root", default=".",
                        help="repository root (default: current directory)")
    parser.add_argument("--no-registry", action="store_true",
                        help="skip pass 2 (the import-time registry audit)")
    parser.add_argument("--rules", action="store_true",
                        help="list the pass-1 rules and exit")


def _print_rules() -> int:
    for cls in ALL_CHECKS:
        sections = ",".join(cls.sections)
        print(f"{cls.code}  [{sections}]  {cls.title}")
    print("REP000 is the framework's unused-suppression warning; "
          "REG001-REG004 are the registry-audit contracts.")
    return 0


def main(args) -> int:
    """Execute the ``lint`` subcommand (argparse namespace in, exit code out)."""
    if args.rules:
        return _print_rules()
    try:
        report = run_lint(args.root, registry=not args.no_registry)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    import argparse

    parser = argparse.ArgumentParser(prog="repro-lint")
    add_lint_arguments(parser)
    sys.exit(main(parser.parse_args()))
