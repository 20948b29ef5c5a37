"""Tests for the interprocedural flow analysis (RP201–RP204).

Single-file flow behavior is covered by the ``flow_*`` fixtures through
the shared harness in ``test_rules.py``; this module exercises what
that harness cannot: whole-program analysis across a multi-module
fixture package, the taint lattice itself, rule scoping, and the
interaction of flow findings with waivers and the structural
dataclass-repr check.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint.engine import analyze_modules, parse_module
from repro.lint.flow.lattice import (
    CLEAN,
    DERIVED,
    SECRET,
    TAINT_CLEAN,
    Taint,
    join_all,
    param,
)
from tests.lint.harness import lint_source

FLOWPKG = Path(__file__).parent / "fixtures" / "flowpkg"
_HEADER = re.compile(r"#\s*lint-fixture:\s*(\S+)")
_EXPECT = re.compile(r"#\s*EXPECT\[(RP\d+)\]")


# -- the multi-module fixture package ---------------------------------------


def _load_flowpkg():
    modules = []
    expected = set()
    for path in sorted(FLOWPKG.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        header = _HEADER.match(lines[0])
        assert header, f"{path.name} must start with '# lint-fixture: <path>'"
        modules.append(parse_module(source, path.as_posix(), header.group(1)))
        expected.update(
            (path.name, number, match.group(1))
            for number, line in enumerate(lines, start=1)
            for match in _EXPECT.finditer(line)
        )
    return modules, expected


def test_flowpkg_leak_crosses_module_boundaries():
    """A secret born in provider.py, relayed via middle.py, leaks in
    app.py — and only app.py's supplying call is reported."""
    modules, expected = _load_flowpkg()
    findings, _, _ = analyze_modules(modules)
    actual = {(Path(f.path).name, f.line, f.rule) for f in findings}
    assert actual == expected, (
        f"unexpected: {sorted(actual - expected)}; "
        f"missing: {sorted(expected - actual)}"
    )


def test_flowpkg_finding_mentions_the_chain():
    modules, _ = _load_flowpkg()
    findings, _, _ = analyze_modules(modules)
    (finding,) = findings
    assert finding.rule == "RP201"
    assert "audit" in finding.message
    assert "note" in finding.message  # the original sink, two hops away


def test_flowpkg_modules_alone_are_quiet():
    """Each module in isolation has no concrete secret — the leak only
    exists as a whole-program property."""
    for path in sorted(FLOWPKG.glob("*.py")):
        if path.name == "provider.py":
            continue  # provider has the source but no sink
        source = path.read_text(encoding="utf-8")
        header = _HEADER.match(source.splitlines()[0])
        findings, _ = lint_source(
            source, path.as_posix(), package_path=header.group(1)
        )
        assert not findings, (path.name, findings)


# -- the lattice ------------------------------------------------------------


def test_join_is_commutative_and_monotone():
    a = Taint(DERIVED, frozenset({(0, True)}))
    b = Taint(SECRET, frozenset({(1, False)}))
    assert a.join(b) == b.join(a)
    joined = a.join(b)
    assert joined.level == SECRET
    assert joined.deps == {(0, True), (1, False)}
    assert joined.join(joined) == joined  # idempotent


def test_clean_is_identity():
    a = Taint(SECRET, frozenset({(2, True)}))
    assert a.join(TAINT_CLEAN) == a
    assert TAINT_CLEAN.join(a) == a
    assert join_all([]) == TAINT_CLEAN


def test_demotion_strips_directness_but_keeps_level():
    a = Taint(SECRET, frozenset({(0, True), (1, False)}))
    demoted = a.demoted()
    assert demoted.level == SECRET
    assert demoted.deps == {(0, False), (1, False)}
    assert demoted.direct_deps() == frozenset()
    assert param(3, CLEAN).direct_deps() == {3}


# -- control flow -----------------------------------------------------------


def _rp201_lines(src: str) -> list[int]:
    findings, _ = lint_source(src, "x.py", package_path="core/x.py")
    return [f.line for f in findings if f.rule == "RP201"]


def test_a_clean_handler_does_not_launder_the_try_body():
    """Each ``except`` handler runs on its own copy of the state after
    the ``try`` body, and the survivors are joined: rebinding the name
    in a handler cannot clear the body's secret."""
    src = (
        "def f(rng, blob):\n"
        "    try:\n"
        "        label = random_scalar(rng)\n"
        "        decode(blob)\n"
        "    except ValueError:\n"
        "        label = 'public'\n"
        "    print(label)\n"
    )
    assert _rp201_lines(src) == [7]


def test_rebinding_on_both_branches_replaces_the_secret():
    """An ``if`` merges the branches that survive, not the state from
    before it."""
    src = (
        "def f(rng, flag):\n"
        "    label = random_scalar(rng)\n"
        "    if flag:\n"
        "        label = 'a'\n"
        "    else:\n"
        "        label = 'b'\n"
        "    print(label)\n"
    )
    assert _rp201_lines(src) == []


def test_a_secret_set_before_continue_reaches_the_next_iteration():
    src = (
        "def f(rng, items):\n"
        "    label = 'public'\n"
        "    for item in items:\n"
        "        print(label)\n"
        "        if item:\n"
        "            label = random_scalar(rng)\n"
        "            continue\n"
        "        label = 'public'\n"
    )
    assert _rp201_lines(src) == [4]


# -- scoping ----------------------------------------------------------------

_BRANCH_SRC = (
    "def lookup(rng, table):\n"
    "    k = random_scalar(rng)\n"
    "    if k % 2:\n"
    "        return table[0]\n"
    "    return table[1]\n"
)


def test_rp202_scoped_to_crypto_dirs():
    in_core, _ = lint_source(_BRANCH_SRC, "x.py", package_path="core/x.py")
    assert {f.rule for f in in_core} == {"RP202"}
    in_sim, _ = lint_source(_BRANCH_SRC, "x.py", package_path="sim/x.py")
    assert not in_sim


def test_rp201_fires_everywhere():
    src = "def announce(rng):\n    print(random_scalar(rng))\n"
    outside, _ = lint_source(src, "bench.py", package_path="")
    assert {f.rule for f in outside} == {"RP201"}


# -- thresholds and sanitizers ----------------------------------------------


def test_verification_pairing_branch_is_below_rp202_threshold():
    src = (
        "def verify(g, sig, m, pub):\n"
        "    if pair(g, sig) != pair(m, pub):\n"
        "        raise ValueError('bad signature')\n"
        "    return True\n"
    )
    findings, _ = lint_source(src, "v.py", package_path="core/v.py")
    assert not findings


@pytest.mark.parametrize(
    "call", ["pair", "pair_with_precomp", "pair_h1", "multi_pair"]
)
def test_pairing_output_must_not_be_rendered(call):
    src = f"def debug(g, p):\n    print({call}(g, p))\n"
    findings, _ = lint_source(src, "d.py", package_path="core/d.py")
    assert [f.rule for f in findings] == ["RP201"]
    assert "secret-derived" in findings[0].message


def test_kdf_into_sanitizer_idiom_is_sanctioned():
    src = (
        "def session(rng):\n"
        "    k = random_scalar(rng)\n"
        "    key = derive_key(k.to_bytes(32, 'big'), 32, 'x:y')\n"
        "    print(key)\n"
        "    return key\n"
    )
    findings, _ = lint_source(src, "s.py", package_path="crypto/s.py")
    assert not findings


def test_rp204_needs_a_concrete_secret():
    base = "import requests\n\ndef send(g, p, rng):\n"
    derived = base + "    requests.post('u', data=pair(g, p))\n"
    findings, _ = lint_source(derived, "t.py", package_path="core/t.py")
    assert not findings  # DERIVED is below the RP204 threshold
    secret = base + "    requests.post('u', data=random_scalar(rng))\n"
    findings, _ = lint_source(secret, "t.py", package_path="core/t.py")
    assert [f.rule for f in findings] == ["RP204"]


# -- waivers on flow findings -----------------------------------------------


def test_call_site_waiver_suppresses_interprocedural_finding():
    src = (
        "def gate(flag):\n"
        "    if flag:\n"
        "        raise ValueError('rejected')\n"
        "\n"
        "def use(rng):\n"
        "    k = random_scalar(rng)\n"
        "    # lint: allow[RP202] rejection branch reveals one bit only\n"
        "    gate(k)\n"
    )
    findings, waived = lint_source(src, "w.py", package_path="core/w.py")
    assert not findings
    assert waived == 1


# -- the structural dataclass-repr check ------------------------------------

_KEYPAIR = (
    "from dataclasses import dataclass, field\n"
    "from repro.crypto.redact import redacted_repr\n"
    "\n"
    "{decorators}\n"
    "class KeyPair:\n"
    "    private: int{field_suffix}\n"
    "    public: object\n"
)


def _keypair_findings(decorators: str, field_suffix: str = ""):
    src = _KEYPAIR.format(decorators=decorators, field_suffix=field_suffix)
    findings, _ = lint_source(src, "k.py", package_path="core/k.py")
    return findings


def test_plain_dataclass_with_secret_field_is_flagged():
    findings = _keypair_findings("@dataclass(frozen=True)")
    assert [f.rule for f in findings] == ["RP201"]
    assert "__repr__" in findings[0].message


def test_redacted_repr_decorator_satisfies_the_check():
    findings = _keypair_findings(
        '@redacted_repr("public")\n@dataclass(frozen=True)'
    )
    assert not findings


def test_field_level_repr_suppression_satisfies_the_check():
    findings = _keypair_findings(
        "@dataclass(frozen=True)", field_suffix=" = field(repr=False)"
    )
    assert not findings
