"""Test harness for the lint: one module's text through the whole engine."""

from __future__ import annotations

from repro.lint.engine import analyze_modules, parse_module
from repro.lint.findings import Finding


def lint_source(
    source: str, path: str, package_path: str | None = None
) -> tuple[list[Finding], int]:
    """Lint one module's text; returns (findings, waived_count).

    ``path`` is what findings report; ``package_path`` overrides scope
    resolution (fixture tests use it to pretend a snippet lives in,
    say, ``core/``).  The flow analysis sees just this one module, so
    intra-module interprocedural flows are still found.
    """
    findings, waived, _ = analyze_modules([parse_module(source, path, package_path)])
    return findings, waived
