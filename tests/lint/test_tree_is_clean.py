"""The gate: the shipped tree must lint clean.

This is the test that makes the linter *binding* — a new unsuppressed
finding anywhere under ``src/``, ``examples/`` or ``benchmarks/``
fails the suite, and so does an unused waiver comment (a suppression
that outlived its finding).  It reaches the same verdict as
``python -m repro.lint src examples benchmarks``: ``LintReport.clean``
and the one self-time budget.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.engine import SELF_TIME_BUDGET_SECONDS, run

ROOT = Path(__file__).resolve().parents[2]
GATED_TREES = ("src", "examples", "benchmarks")


def _report():
    return run([ROOT / tree for tree in GATED_TREES])


def test_tree_is_clean() -> None:
    report = _report()
    assert report.files_checked > 0
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert report.findings == [], f"lint findings:\n{rendered}"
    assert report.unused_waivers == [], (
        f"waivers that suppress nothing: {report.unused_waivers}"
    )
    assert report.clean


def test_analyzer_stays_within_time_budget() -> None:
    report = _report()
    assert not report.over_budget, (
        f"whole-tree analysis took {report.elapsed:.1f}s (budget "
        f"{SELF_TIME_BUDGET_SECONDS:.0f}s) — the analyzer has regressed; "
        "profile before raising the budget"
    )
