"""Regenerate ``tests/lint/golden/fixtures.sarif``, the fixture report.

Run from the repository root::

    PYTHONPATH=src python tests/lint/generate_golden.py

Every ``tests/lint/fixtures/*.py`` is linted on its own, and the
``fixtures/flowpkg`` modules together as one program, each at the
virtual package path in its ``# lint-fixture:`` header so that the
scoped rules fire.  The findings of all runs render as one SARIF log.
Where the fixture harness in ``test_rules.py`` checks only
``(line, rule)`` pairs, the golden file also pins messages (with their
"N call(s) deep in: ..." summary descriptions), columns, fingerprints,
unused-waiver notes and the rule descriptors.  ``test_golden.py``
compares the bytes.  Regenerate only when a change is *meant* to move
the report, and say so in the commit.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.lint.engine import LintReport, analyze_modules, parse_module
from repro.lint.sarif import render_sarif

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
OUT = Path(__file__).parent / "golden" / "fixtures.sarif"
_HEADER = re.compile(r"#\s*lint-fixture:\s*(\S+)")


def _parse(path: Path):
    source = path.read_text(encoding="utf-8")
    header = _HEADER.match(source.splitlines()[0])
    assert header, f"{path.name} must start with '# lint-fixture: <virtual path>'"
    return parse_module(source, path.relative_to(ROOT).as_posix(), header.group(1))


def render() -> str:
    programs = [[_parse(path)] for path in sorted(FIXTURES.glob("*.py"))]
    programs.append([_parse(path) for path in sorted((FIXTURES / "flowpkg").glob("*.py"))])
    report = LintReport()
    for modules in programs:
        findings, waived, unused = analyze_modules(modules)
        report.findings.extend(findings)
        report.waived += waived
        report.unused_waivers.extend(unused)
        report.files_checked += len(modules)
    return render_sarif(report) + "\n"


if __name__ == "__main__":
    OUT.write_text(render(), encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}")
