"""Fixture-driven rule tests.

Each file under ``fixtures/`` is a self-describing test case: its first
line pins the *virtual* package path the snippet pretends to live at
(``# lint-fixture: core/rng_bad.py``), and every line expected to
produce a finding carries an ``# EXPECT[RPxxx]`` marker.  The harness
asserts the engine reports exactly the marked (line, rule) pairs — so a
rule firing anywhere unexpected fails just as loudly as a rule missing
its target.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint import RULES
from tests.lint.harness import lint_source

FIXTURES = Path(__file__).parent / "fixtures"
_HEADER = re.compile(r"#\s*lint-fixture:\s*(\S+)")
_EXPECT = re.compile(r"#\s*EXPECT\[(RP\d+)\]")


def _load_fixture(path: Path) -> tuple[str, str, set[tuple[int, str]]]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    header = _HEADER.match(lines[0]) if lines else None
    assert header, f"{path.name} must start with '# lint-fixture: <virtual path>'"
    expected = {
        (number, match.group(1))
        for number, line in enumerate(lines, start=1)
        for match in _EXPECT.finditer(line)
    }
    return source, header.group(1), expected


def _fixture_paths() -> list[Path]:
    paths = sorted(FIXTURES.glob("*.py"))
    assert paths, "fixture directory is empty"
    return paths


@pytest.mark.parametrize("fixture", _fixture_paths(), ids=lambda p: p.name)
def test_fixture_findings_match_expect_markers(fixture: Path) -> None:
    source, virtual_path, expected = _load_fixture(fixture)
    findings, _ = lint_source(source, fixture.as_posix(), package_path=virtual_path)
    actual = {(finding.line, finding.rule) for finding in findings}
    assert actual == expected, "\n".join(
        [
            f"fixture {fixture.name} (as {virtual_path}):",
            f"  unexpected: {sorted(actual - expected)}",
            f"  missing:    {sorted(expected - actual)}",
        ]
    )


def test_every_rule_has_a_positive_fixture() -> None:
    covered = set()
    for fixture in _fixture_paths():
        _, _, expected = _load_fixture(fixture)
        covered.update(rule for _, rule in expected)
    assert covered == {rule.id for rule in RULES}


def test_waiver_suppresses_and_is_counted() -> None:
    source, virtual_path, _ = _load_fixture(FIXTURES / "ct_ok.py")
    _, waived = lint_source(source, "ct_ok.py", package_path=virtual_path)
    assert waived == 1


def test_waiver_only_silences_the_named_rule() -> None:
    source = (
        "def verify(tag, expected):\n"
        "    # lint: allow[rng-discipline] wrong rule on purpose\n"
        "    return tag == expected\n"
    )
    findings, waived = lint_source(source, "x.py", package_path="crypto/x.py")
    assert waived == 0
    assert [finding.rule for finding in findings] == ["RP102"]


def test_waiver_accepts_rule_id_and_comma_lists() -> None:
    source = (
        "def verify(tag, expected):\n"
        "    return tag == expected  # lint: allow[RP102, RP103] fixture\n"
    )
    findings, waived = lint_source(source, "x.py", package_path="crypto/x.py")
    assert findings == []
    assert waived == 1


def test_out_of_scope_paths_are_ignored() -> None:
    source, _, expected = _load_fixture(FIXTURES / "rng_bad.py")
    assert expected  # fires in core/ ...
    findings, _ = lint_source(source, "rng_bad.py", package_path="sim/rng_bad.py")
    assert [finding for finding in findings if finding.rule == "RP101"] == []
