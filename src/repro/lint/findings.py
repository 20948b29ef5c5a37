"""The findings data model shared by the engine, SARIF export, and CLI."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    ``fingerprint`` identifies the finding independently of its line
    *number* (so unrelated edits above it do not make code-scanning
    dashboards report it as new): it is SARIF's ``partialFingerprints``
    value, built from the rule id, the file path, a hash of the stripped
    text of the offending line, and an occurrence index among identical
    lines.
    """

    rule: str  # "RP102"
    name: str  # "ct-compare"
    path: str  # posix-style path, as reported
    line: int  # 1-based
    col: int  # 0-based
    message: str
    hint: str = ""
    fingerprint: str = field(default="", compare=False)

    def located(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def render(self) -> str:
        text = f"{self.located()}: {self.rule}[{self.name}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


def snippet_hash(line_text: str) -> str:
    """A short stable hash of the offending line's stripped text."""
    return hashlib.sha256(line_text.strip().encode()).hexdigest()[:12]


def attach_fingerprints(
    findings: list[Finding], lines: list[str], fingerprint_path: str | None = None
) -> list[Finding]:
    """Return findings with their fingerprints filled in.

    ``fingerprint_path`` (usually the *package-relative* path) keeps
    fingerprints stable across checkout locations and working
    directories.  Identical (rule, path, line-text) triples are
    disambiguated by an occurrence counter in source order, so two
    textually identical violations get distinct fingerprints.
    """
    seen: dict[tuple[str, str, str], int] = {}
    out: list[Finding] = []
    for finding in sorted(findings, key=lambda f: (f.line, f.col, f.rule)):
        text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        digest = snippet_hash(text)
        where = fingerprint_path or finding.path
        key = (finding.rule, where, digest)
        index = seen.get(key, 0)
        seen[key] = index + 1
        out.append(
            replace(finding, fingerprint=f"{finding.rule}|{where}|{digest}|{index}")
        )
    return out
