"""Command-line entry point: ``python -m repro.lint [paths...]``.

Exit status: 0 when the tree is clean (no unsuppressed findings and no
stale baseline entries — plus, under ``--check-baseline``, no unused
waiver comments; and within budget under ``--self-time-budget``),
1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.baseline import format_baseline, load_baseline, update_baseline
from repro.lint.engine import RULES, LintReport, lint_paths, run
from repro.lint.sarif import render_sarif

DEFAULT_BASELINE = "lint-baseline.txt"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Crypto-hygiene static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file to grandfather all current findings",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="regenerate the baseline file in place: keep entries (and "
        "their trailing justification comments) whose findings still "
        "occur, drop stale ones, append new ones",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule-id prefixes to report (e.g. "
        "'RP4' or 'RP401,RP402'); the baseline is scoped the same way",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="also fail on unused inline waivers (stale baseline entries "
        "always fail); keeps suppressions from outliving their findings",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
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
        "--self-time-budget",
        type=float,
        metavar="SECONDS",
        help="fail if the analysis itself takes longer than SECONDS "
        "(keeps the analyzer fast enough to stay in the gate)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe the rules and exit"
    )
    return parser


def _json_payload(report: LintReport) -> dict:
    return {
        "findings": [
            {
                "rule": f.rule,
                "name": f.name,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "hint": f.hint,
                "fingerprint": f.fingerprint,
            }
            for f in report.new
        ],
        "baselined": len(report.baselined),
        "stale_baseline": report.stale_baseline,
        "unused_waivers": report.unused_waivers,
        "waived": report.waived,
        "files_checked": report.files_checked,
        "elapsed_seconds": round(report.elapsed, 3),
    }


def _render_text(report: LintReport, status_ok: bool, notes: list[str]) -> str:
    parts = [finding.render() for finding in report.new]
    parts.extend(
        f"stale baseline entry (finding fixed — regenerate with "
        f"--write-baseline): {stale}"
        for stale in report.stale_baseline
    )
    parts.extend(notes)
    status = "clean" if status_ok else "FAILED"
    parts.append(
        f"repro.lint: {status} — {report.files_checked} file(s), "
        f"{len(report.new)} new finding(s), {len(report.baselined)} baselined, "
        f"{report.waived} waived, {len(report.stale_baseline)} stale baseline "
        f"entr(ies), {len(report.unused_waivers)} unused waiver(s) "
        f"[{report.elapsed:.2f}s]"
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

    select: tuple[str, ...] | None = None
    if args.select:
        select = tuple(
            part.strip() for part in args.select.split(",") if part.strip()
        )
        if not select:
            print("repro.lint: --select given but names no rules", file=sys.stderr)
            return 2

    if args.write_baseline:
        findings, _, _ = lint_paths(args.paths)
        Path(args.baseline).write_text(format_baseline(findings))
        print(f"wrote {len(findings)} grandfathered finding(s) to {args.baseline}")
        return 0

    if args.update_baseline:
        findings, _, _ = lint_paths(args.paths)
        try:
            added, removed = update_baseline(args.baseline, findings)
        except ValueError as exc:
            print(f"repro.lint: {exc}", file=sys.stderr)
            return 2
        print(
            f"updated {args.baseline}: {added} entr(ies) added, "
            f"{removed} stale entr(ies) removed"
        )
        return 0

    try:
        baseline = set() if args.no_baseline else load_baseline(args.baseline)
    except ValueError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2
    report = run(args.paths, baseline, select=select)

    over_budget = (
        args.self_time_budget is not None and report.elapsed > args.self_time_budget
    )
    waiver_failure = args.check_baseline and bool(report.unused_waivers)
    status_ok = report.clean and not waiver_failure and not over_budget

    notes: list[str] = []
    severity = "unused waiver" if not args.check_baseline else "UNUSED WAIVER"
    notes.extend(f"{severity}: {message}" for message in report.unused_waivers)
    if over_budget:
        notes.append(
            f"self-time budget exceeded: {report.elapsed:.2f}s > "
            f"{args.self_time_budget:.2f}s — profile the analyzer before shipping"
        )

    if args.format == "json":
        rendered = json.dumps(_json_payload(report), indent=2)
    elif args.format == "sarif":
        rendered = render_sarif(report)
    else:
        rendered = _render_text(report, status_ok, notes)

    if args.output:
        Path(args.output).write_text(rendered + "\n")
        # Keep a human-readable trace on stdout for CI logs.
        print(_render_text(report, status_ok, notes))
    else:
        print(rendered)
        if args.format != "text" and (notes or not status_ok):
            for note in notes:
                print(note, file=sys.stderr)

    return 0 if status_ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
