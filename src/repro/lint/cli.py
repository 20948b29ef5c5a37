"""Command-line entry point: ``python -m repro.lint [paths...]``.

Exit status: 0 when the tree is clean (no unsuppressed finding, no
waiver that suppresses nothing, and the analysis within
``engine.SELF_TIME_BUDGET_SECONDS``), 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint import engine
from repro.lint.engine import RULES, LintReport, run
from repro.lint.sarif import render_sarif


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Crypto-hygiene static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout (text summary "
        "still goes to stdout so CI logs stay readable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe the rules and exit"
    )
    return parser


def _render_text(report: LintReport, status_ok: bool, notes: list[str]) -> str:
    parts = [finding.render() for finding in report.findings]
    parts.extend(notes)
    status = "clean" if status_ok else "FAILED"
    parts.append(
        f"repro.lint: {status} — {report.files_checked} file(s), "
        f"{len(report.findings)} finding(s), {report.waived} waived, "
        f"{len(report.unused_waivers)} unused waiver(s) [{report.elapsed:.2f}s]"
    )
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id} {rule.name}: {rule.rationale}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro.lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    report = run(args.paths)
    status_ok = report.clean and not report.over_budget

    notes = [f"UNUSED WAIVER: {message}" for message in report.unused_waivers]
    if report.over_budget:
        notes.append(
            f"self-time budget exceeded: {report.elapsed:.2f}s > "
            f"{engine.SELF_TIME_BUDGET_SECONDS:.2f}s — profile the analyzer "
            "before shipping"
        )

    if args.format == "sarif":
        rendered = render_sarif(report)
    else:
        rendered = _render_text(report, status_ok, notes)

    if args.output:
        Path(args.output).write_text(rendered + "\n")
        # Keep a human-readable trace on stdout for CI logs.
        print(_render_text(report, status_ok, notes))
    else:
        print(rendered)
        if args.format != "text":
            for note in notes:
                print(note, file=sys.stderr)

    return 0 if status_ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
