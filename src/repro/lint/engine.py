"""The lint engine: file discovery, parsing, rule dispatch, waivers.

A lint run is two-phase: every requested file is parsed up front, the
single-node RP1xx rules run per module, then the two whole-program
families (RP2xx taint, RP4xx typestate) run once over one
:class:`~repro.lint.program.Program` of all parsed modules, and their
findings are merged back onto the module they report against.
Waivers and fingerprints apply uniformly to every family.  ``RULES``
is the one table of every rule.

Waivers are inline comments of the form::

    risky_call()  # lint: allow[rule-name] why this is sound here

naming the rule by id (``RP104``) or name (``point-validation``),
optionally several separated by commas.  A waiver applies to its own
line or, when placed alone on a line, to the line directly below (for
statements that do not fit on one line).  A waiver is the one way to
suppress a finding.  Waivers are expected to carry a justification;
the gate counts them so reviews can watch the trend, and a waiver that
suppresses nothing fails the gate so stale suppressions cannot linger.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import Finding, attach_fingerprints
from repro.lint.flow import FLOW_RULES, analyze_program
from repro.lint.program import ParsedModule, Program
from repro.lint.proto import PROTO_RULES, analyze_protocols
from repro.lint.rules import MODULE_RULES, ModuleContext, Rule

RULES: tuple[Rule, ...] = (*MODULE_RULES, *FLOW_RULES, *PROTO_RULES)
_RULE_TOKENS = {rule.id for rule in RULES} | {rule.name for rule in RULES}

_WAIVER = re.compile(r"#\s*lint:\s*allow\[([^\]]+)\]")

# A flow finding duplicating a single-node finding of the paired legacy
# rule on the same line is dropped — one leak, one report.
_FLOW_SHADOWS = {"RP201": "RP103", "RP202": "RP102"}


# The analyzer runs whole-program over the full tree inside the test
# suite, so its own runtime is part of the tier-1 budget.  Generous
# multiple of the observed ~2-3s to stay robust on slow CI machines.
SELF_TIME_BUDGET_SECONDS = 60.0


@dataclass
class LintReport:
    """Outcome of a lint run."""

    findings: list[Finding] = field(default_factory=list)
    unused_waivers: list[str] = field(default_factory=list)
    waived: int = 0
    files_checked: int = 0
    elapsed: float = 0.0

    @property
    def clean(self) -> bool:
        """No unsuppressed finding and no waiver that suppresses nothing."""
        return not self.findings and not self.unused_waivers

    @property
    def over_budget(self) -> bool:
        return self.elapsed > SELF_TIME_BUDGET_SECONDS


def package_relative(path: str) -> str:
    """Path relative to the ``repro`` package, "" when not inside it.

    ``src/repro/core/tre.py`` -> ``core/tre.py``; used for rule scoping
    so results do not depend on where the tree is checked out.
    """
    parts = Path(path).as_posix().split("/")
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[index + 1 :])
    return ""


def _waiver_providers(lines: list[str], line: int) -> dict[str, int]:
    """token -> comment line that waives it, for 1-based source ``line``.

    A waiver counts when it sits on the offending line itself or in the
    contiguous block of comment-only lines directly above it (waiver
    comments may wrap across several lines).
    """
    providers: dict[str, int] = {}

    def collect(number: int) -> None:
        match = _WAIVER.search(lines[number - 1])
        if match:
            for part in match.group(1).split(","):
                providers.setdefault(part.strip(), number)

    if 0 < line <= len(lines):
        collect(line)
    candidate = line - 1
    while 0 < candidate <= len(lines):
        text = lines[candidate - 1]
        if not text.strip() or not text.lstrip().startswith("#"):
            break
        collect(candidate)
        candidate -= 1
    return providers


def _all_waiver_tokens(lines: list[str]) -> list[tuple[int, str]]:
    """Every (comment_line, token) waiver declaration in a module.

    Only tokens naming a *known* rule are tracked for unused-waiver
    reporting: the waiver syntax appears in docstrings and docs with
    placeholder tokens (``allow[rule-name]``), and a placeholder is not
    a stale suppression.
    """
    out: list[tuple[int, str]] = []
    for number, text in enumerate(lines, start=1):
        match = _WAIVER.search(text)
        if match:
            out.extend(
                (number, token)
                for token in (part.strip() for part in match.group(1).split(","))
                if token in _RULE_TOKENS
            )
    return out


def parse_module(source: str, path: str, package_path: str | None = None) -> ParsedModule:
    if package_path is None:
        package_path = package_relative(path)
    return ParsedModule(
        path=path,
        package_path=package_path,
        tree=ast.parse(source, filename=path),
        lines=source.splitlines(),
    )


def _module_rule_findings(module: ParsedModule) -> list[Finding]:
    findings: list[Finding] = []
    for rule in MODULE_RULES:
        context = ModuleContext(
            path=module.path,
            package_path=module.package_path,
            tree=module.tree,
            lines=module.lines,
        )
        if not rule.applies_to(context):
            continue
        findings.extend(rule.check(context))
    return findings


def _drop_shadowed(findings: list[Finding]) -> list[Finding]:
    legacy_lines = {
        (finding.rule, finding.line) for finding in findings if finding.rule < "RP2"
    }
    return [
        finding
        for finding in findings
        if finding.rule not in _FLOW_SHADOWS
        or (_FLOW_SHADOWS[finding.rule], finding.line) not in legacy_lines
    ]


def analyze_modules(
    modules: list[ParsedModule],
) -> tuple[list[Finding], int, list[str]]:
    """Both analysis phases plus waiver/fingerprint bookkeeping.

    Returns ``(findings, waived_count, unused_waiver_messages)``.
    """
    by_path: dict[str, list[Finding]] = {module.path: [] for module in modules}
    for module in modules:
        by_path[module.path].extend(_module_rule_findings(module))
    program = Program(modules)
    analyze_program(program)
    analyze_protocols(program)
    for finding in program.findings:
        by_path.setdefault(finding.path, []).append(finding)

    findings: list[Finding] = []
    waived = 0
    unused: list[str] = []
    module_by_path = {module.path: module for module in modules}
    for path, raw in by_path.items():
        module = module_by_path[path]
        kept: list[Finding] = []
        used: set[tuple[int, str]] = set()
        for finding in _drop_shadowed(raw):
            providers = _waiver_providers(module.lines, finding.line)
            provider_line = providers.get(finding.rule, providers.get(finding.name))
            if provider_line is not None:
                waived += 1
                token = finding.rule if finding.rule in providers else finding.name
                used.add((provider_line, token))
            else:
                kept.append(finding)
        for number, token in _all_waiver_tokens(module.lines):
            if (number, token) not in used:
                unused.append(
                    f"{path}:{number}: unused waiver `# lint: allow[{token}]` "
                    "(suppresses nothing — remove it or fix the tag)"
                )
        # Fingerprint against the package-relative path so SARIF
        # fingerprints survive checkout moves and working directories.
        findings.extend(
            attach_fingerprints(kept, module.lines, module.package_path or path)
        )
    # Deterministic report order regardless of discovery or analysis
    # phase ordering: two runs over the same tree must be byte-identical.
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return findings, waived, sorted(unused)


def iter_python_files(paths: list[str | Path]):
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def parse_paths(paths: list[str | Path]) -> list[ParsedModule]:
    """Discover and parse every requested file, in discovery order."""
    return [
        parse_module(file_path.read_text(encoding="utf-8"), file_path.as_posix())
        for file_path in iter_python_files(paths)
    ]


def run(paths: list[str | Path]) -> LintReport:
    """Full pipeline used by the CLI and the pytest gate."""
    started = time.perf_counter()
    modules = parse_paths(paths)
    findings, waived, unused = analyze_modules(modules)
    return LintReport(
        findings=findings,
        unused_waivers=unused,
        waived=waived,
        files_checked=len(modules),
        elapsed=time.perf_counter() - started,
    )
