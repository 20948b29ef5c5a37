"""Tests for the typestate protocol analysis (RP401–RP405).

Single-file behavior is covered by the ``proto_*`` fixtures through the
shared harness in ``test_rules.py``; this module exercises what that
harness cannot: the interprocedural summaries crossing module
boundaries (a sink in one module firing at the decode site in another,
and a guard helper verifying its argument at the call site),
byte-for-byte determinism of the RP4xx report, and the CLI surface
that rides along (rule listing, SARIF descriptors).
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.cli import main
from repro.lint.engine import analyze_modules, parse_module, run
from tests.lint.harness import lint_source

FIXTURES = Path(__file__).parent / "fixtures"


# -- interprocedural summaries across module boundaries -----------------------

_STORE_SRC = (
    "def remember(archive, update):\n"
    "    archive[update.time_label] = update\n"
)

_PUMP_SRC = (
    "from svc.store import remember\n"
    "\n"
    "\n"
    "def pump(group, archive, blob):\n"
    "    update = TimeBoundKeyUpdate.from_bytes(group, blob)\n"
    "    remember(archive, update)\n"
)


def test_param_sink_fires_at_the_decoding_call_site():
    """The cache insert lives in ``store.py``, but the unverified bytes
    enter in ``pump.py`` — the finding lands where the FETCHED value is
    supplied, naming the helper that sinks it."""
    modules = [
        parse_module(_STORE_SRC, "store.py", "svc/store.py"),
        parse_module(_PUMP_SRC, "pump.py", "svc/pump.py"),
    ]
    findings, _, _ = analyze_modules(modules)
    (finding,) = findings
    assert finding.rule == "RP401"
    assert finding.path == "pump.py"
    assert finding.line == 6
    assert "remember" in finding.message


def test_guard_helper_verifies_at_the_call_site():
    """A helper that verifies-or-raises its parameter on every normal
    exit transfers VERIFIED back to the caller's value — the same sink
    is then quiet."""
    guard = (
        "def checked(group, server_public, update):\n"
        "    if not update.verify(group, server_public):\n"
        "        raise ValueError('forged update')\n"
        "    return update\n"
    )
    caller = (
        "from svc.gate import checked\n"
        "from svc.store import remember\n"
        "\n"
        "\n"
        "def pump(group, server_public, archive, blob):\n"
        "    update = TimeBoundKeyUpdate.from_bytes(group, blob)\n"
        "    checked(group, server_public, update)\n"
        "    remember(archive, update)\n"
    )
    modules = [
        parse_module(_STORE_SRC, "store.py", "svc/store.py"),
        parse_module(guard, "gate.py", "svc/gate.py"),
        parse_module(caller, "pump.py", "svc/pump.py"),
    ]
    findings, _, _ = analyze_modules(modules)
    assert findings == []


def test_verdict_returning_helper_is_consumable():
    """A helper that *returns* the verify verdict lets the caller
    branch on it: ``if not is_genuine(...): raise`` verifies the
    argument on the fall-through path."""
    predicate = (
        "def is_genuine(group, server_public, update):\n"
        "    return update.verify(group, server_public)\n"
    )
    caller = (
        "from svc.gate import is_genuine\n"
        "from svc.store import remember\n"
        "\n"
        "\n"
        "def pump(group, server_public, archive, blob):\n"
        "    update = TimeBoundKeyUpdate.from_bytes(group, blob)\n"
        "    if not is_genuine(group, server_public, update):\n"
        "        raise ValueError('forged update')\n"
        "    remember(archive, update)\n"
    )
    modules = [
        parse_module(_STORE_SRC, "store.py", "svc/store.py"),
        parse_module(predicate, "gate.py", "svc/gate.py"),
        parse_module(caller, "pump.py", "svc/pump.py"),
    ]
    findings, _, _ = analyze_modules(modules)
    assert findings == []


def test_one_unverified_branch_taints_the_merge():
    """Verified on one branch only: the pessimistic join keeps the
    value FETCHED past the merge, so the sink still fires."""
    src = (
        "def pump(group, server_public, archive, blob, paranoid):\n"
        "    update = TimeBoundKeyUpdate.from_bytes(group, blob)\n"
        "    if paranoid:\n"
        "        update.ensure_valid(group)\n"
        "    archive[update.time_label] = update\n"
    )
    findings, _ = lint_source(src, "pump.py", package_path="svc/pump.py")
    assert [f.rule for f in findings] == ["RP401"]
    assert findings[0].line == 5


def test_batch_guard_as_if_test_verifies_both_branches():
    """``verify_archive`` authenticates its collection whatever it
    returns, so used as an ``if`` test it verifies the fall-through
    path too: caching the backlog after ``if verify_archive(...):
    raise`` is quiet."""
    src = (
        "def restore(group, server_public, archive, blobs):\n"
        "    updates = [TimeBoundKeyUpdate.from_bytes(group, b) for b in blobs]\n"
        "    if verify_archive(group, server_public, updates):\n"
        "        raise UpdateVerificationError('bad snapshot')\n"
        "    for update in updates:\n"
        "        archive[update.time_label] = update\n"
    )
    findings, _ = lint_source(src, "restore.py", package_path="svc/restore.py")
    assert findings == []


def test_continue_past_a_failed_check_keeps_the_collection_fetched():
    """The path that continues past a forged update reaches the loop
    head, so the loop variable is not VERIFIED on every iteration and
    the collection is not promoted."""
    src = (
        "def restore(group, server_public, archive, blobs):\n"
        "    updates = [TimeBoundKeyUpdate.from_bytes(group, b) for b in blobs]\n"
        "    for update in updates:\n"
        "        if not update.verify(group, server_public):\n"
        "            continue\n"
        "    archive[0] = updates\n"
    )
    findings, _ = lint_source(src, "restore.py", package_path="svc/restore.py")
    assert [(f.rule, f.line) for f in findings] == [("RP401", 6)]


def test_break_before_the_check_keeps_the_collection_fetched():
    """A loop that may break before verifying every element promotes
    nothing: the break path joins the state after the loop."""
    src = (
        "def restore(group, archive, blobs, horizon):\n"
        "    updates = [TimeBoundKeyUpdate.from_bytes(group, b) for b in blobs]\n"
        "    for update in updates:\n"
        "        if update.time_label > horizon:\n"
        "            break\n"
        "        update.ensure_valid(group)\n"
        "    archive[0] = updates\n"
    )
    findings, _ = lint_source(src, "restore.py", package_path="svc/restore.py")
    assert [(f.rule, f.line) for f in findings] == [("RP401", 7)]
    unbroken = src.replace("            break\n", "            pass\n")
    findings, _ = lint_source(unbroken, "restore.py", package_path="svc/restore.py")
    assert findings == []


def test_waiver_suppresses_proto_finding():
    src = (
        "def rebroadcast(group, blob):\n"
        "    update = TimeBoundKeyUpdate.from_bytes(group, blob)\n"
        "    # lint: allow[RP401] relay fixture: bytes forwarded verbatim\n"
        "    return update.to_bytes(group)\n"
    )
    findings, waived = lint_source(src, "relay.py", package_path="svc/relay.py")
    assert findings == []
    assert waived == 1


# -- determinism (the acceptance criterion for the fixture package) -----------


def _render_rp4(report) -> bytes:
    return "\n".join(
        f"{f.path}|{f.line}|{f.col}|{f.rule}|{f.fingerprint}|{f.message}"
        for f in report.findings
        if f.rule.startswith("RP4")
    ).encode()


def test_rp4_report_is_byte_identical_across_runs():
    first = run([str(FIXTURES)])
    second = run([str(FIXTURES)])
    rendered = _render_rp4(first)
    assert rendered  # the proto_* fixtures are intentionally dirty
    assert rendered == _render_rp4(second)


def test_module_order_does_not_change_proto_findings():
    modules = [
        parse_module(_STORE_SRC, "store.py", "svc/store.py"),
        parse_module(_PUMP_SRC, "pump.py", "svc/pump.py"),
    ]
    forward, _, _ = analyze_modules(modules)
    backward, _, _ = analyze_modules(list(reversed(modules)))
    key = lambda f: (f.path, f.line, f.col, f.rule, f.fingerprint, f.message)
    assert [key(f) for f in forward] == [key(f) for f in backward]


# -- CLI: rule listing, SARIF --------------------------------------------------

DIRTY_PROTO = (
    "def rebroadcast(group, blob):\n"
    "    update = TimeBoundKeyUpdate.from_bytes(group, blob)\n"
    "    return update.to_bytes(group)\n"
)


def _module(tmp_path: Path, subdir: str, name: str, source: str) -> str:
    path = tmp_path / "repro" / subdir / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return str(path)


def test_list_rules_includes_proto_family(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RP401", "RP402", "RP403", "RP404", "RP405"):
        assert rule_id in out


def test_sarif_includes_proto_descriptors_and_results(tmp_path, capsys) -> None:
    import json

    target = _module(tmp_path, "service", "relay.py", DIRTY_PROTO)
    assert main([target, "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    (sarif_run,) = payload["runs"]
    rule_ids = {rule["id"] for rule in sarif_run["tool"]["driver"]["rules"]}
    assert {"RP401", "RP402", "RP403", "RP404", "RP405"} <= rule_ids
    assert {result["ruleId"] for result in sarif_run["results"]} == {"RP401"}
