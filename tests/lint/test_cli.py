"""CLI exit codes and output formats.

Scoped rules key off the path *relative to the repro package*, so these
tests lay files out under a synthetic ``repro/crypto/`` tree — which
also exercises that baselines written from one checkout location match
findings from another (fingerprints are package-relative).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.cli import main

DIRTY = "def verify(tag, expected):\n    return tag == expected\n"
CLEAN = (
    "from repro.crypto.ct import bytes_eq\n"
    "\n"
    "def verify(tag, expected):\n"
    "    return bytes_eq(tag, expected)\n"
)


def _module(tmp_path: Path, name: str, source: str) -> str:
    path = tmp_path / "repro" / "crypto" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return str(path)


def test_dirty_file_exits_one(tmp_path, capsys) -> None:
    status = main([_module(tmp_path, "bad.py", DIRTY), "--no-baseline"])
    assert status == 1
    out = capsys.readouterr().out
    assert "RP102" in out
    assert "FAILED" in out


def test_clean_file_exits_zero(tmp_path, capsys) -> None:
    status = main([_module(tmp_path, "ok.py", CLEAN), "--no-baseline"])
    assert status == 0
    assert "clean" in capsys.readouterr().out


def test_json_format(tmp_path, capsys) -> None:
    target = _module(tmp_path, "bad.py", DIRTY)
    status = main([target, "--no-baseline", "--format", "json"])
    assert status == 1
    payload = json.loads(capsys.readouterr().out)
    assert {finding["rule"] for finding in payload["findings"]} == {"RP102"}
    assert payload["files_checked"] == 1


def test_missing_path_is_usage_error(capsys) -> None:
    assert main(["definitely/not/here.py"]) == 2


def test_malformed_baseline_is_usage_error(tmp_path, capsys) -> None:
    target = _module(tmp_path, "ok.py", CLEAN)
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("RP102 too few fields? no, three\n")
    assert main([target, "--baseline", str(baseline)]) == 2
    assert "malformed baseline line" in capsys.readouterr().err


def test_list_rules(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RP101", "RP102", "RP103", "RP104", "RP105"):
        assert rule_id in out


def test_write_baseline_then_clean(tmp_path, capsys) -> None:
    target = _module(tmp_path, "bad.py", DIRTY)
    baseline = tmp_path / "baseline.txt"
    assert main([target, "--write-baseline", "--baseline", str(baseline)]) == 0
    assert "crypto/bad.py" in baseline.read_text()
    assert main([target, "--baseline", str(baseline)]) == 0


def test_stale_baseline_entry_fails(tmp_path, capsys) -> None:
    target = _module(tmp_path, "ok.py", CLEAN)
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("RP102 crypto/gone.py abcdefabcdef 0\n")
    assert main([target, "--baseline", str(baseline)]) == 1
    assert "stale baseline entry" in capsys.readouterr().out


def test_sarif_format_is_valid_2_1_0(tmp_path, capsys) -> None:
    target = _module(tmp_path, "bad.py", DIRTY)
    status = main([target, "--no-baseline", "--format", "sarif"])
    assert status == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    (sarif_run,) = payload["runs"]
    assert sarif_run["tool"]["driver"]["name"] == "repro.lint"
    rule_ids = {rule["id"] for rule in sarif_run["tool"]["driver"]["rules"]}
    assert {"RP102", "RP201", "RP204"} <= rule_ids
    (result,) = sarif_run["results"]
    assert result["ruleId"] == "RP102"
    assert result["partialFingerprints"]["reproLint/v1"]


def test_output_flag_writes_file_and_keeps_text_on_stdout(tmp_path, capsys) -> None:
    target = _module(tmp_path, "bad.py", DIRTY)
    out_file = tmp_path / "report.sarif"
    status = main(
        [target, "--no-baseline", "--format", "sarif", "--output", str(out_file)]
    )
    assert status == 1
    payload = json.loads(out_file.read_text())
    assert payload["version"] == "2.1.0"
    assert "FAILED" in capsys.readouterr().out  # human trace stays on stdout


def test_unused_waiver_is_a_note_without_check_baseline(tmp_path, capsys) -> None:
    source = CLEAN + "    # lint: allow[RP102] nothing to suppress here\n"
    target = _module(tmp_path, "ok.py", source)
    assert main([target, "--no-baseline"]) == 0
    assert "unused waiver" in capsys.readouterr().out


def test_unused_waiver_fails_under_check_baseline(tmp_path, capsys) -> None:
    source = CLEAN + "    # lint: allow[RP102] nothing to suppress here\n"
    target = _module(tmp_path, "ok.py", source)
    assert main([target, "--no-baseline", "--check-baseline"]) == 1
    out = capsys.readouterr().out
    assert "UNUSED WAIVER" in out
    assert "FAILED" in out


def test_self_time_budget_violation_fails(tmp_path, capsys) -> None:
    target = _module(tmp_path, "ok.py", CLEAN)
    assert main([target, "--no-baseline", "--self-time-budget", "0"]) == 1
    assert "self-time budget exceeded" in capsys.readouterr().out


def test_flow_finding_reported_end_to_end(tmp_path, capsys) -> None:
    source = (
        "def reveal(value):\n"
        "    raise ValueError(f'got {value}')\n"
        "\n"
        "def use(rng):\n"
        "    k = random_scalar(rng)\n"
        "    reveal(k)\n"
    )
    target = _module(tmp_path, "leaky.py", source)
    assert main([target, "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "RP201" in out
    assert "reveal" in out


def test_list_rules_includes_flow_family(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RP201", "RP202", "RP203", "RP204"):
        assert rule_id in out


# -- --update-baseline and --select ------------------------------------------


def test_update_baseline_creates_then_gates_clean(tmp_path, capsys) -> None:
    target = _module(tmp_path, "demo.py", DIRTY)
    baseline = tmp_path / "baseline.txt"
    assert main([target, "--baseline", str(baseline), "--update-baseline"]) == 0
    assert "1 entr(ies) added" in capsys.readouterr().out
    assert "RP102" in baseline.read_text()
    assert main([target, "--baseline", str(baseline)]) == 0


def test_update_baseline_preserves_comments_and_drops_stale(tmp_path, capsys) -> None:
    demo = _module(tmp_path, "demo.py", DIRTY)
    extra = _module(tmp_path, "extra.py", DIRTY)
    baseline = tmp_path / "baseline.txt"
    assert main([demo, "--baseline", str(baseline), "--update-baseline"]) == 0

    # Annotate the surviving entry the way a reviewer would.
    annotated = [
        line + "  # justified: legacy seed" if line.startswith("RP102") else line
        for line in baseline.read_text().splitlines()
    ]
    baseline.write_text("\n".join(annotated) + "\n")

    # A second dirty file: its entry is appended, the annotation stays.
    assert main([demo, extra, "--baseline", str(baseline), "--update-baseline"]) == 0
    assert "1 entr(ies) added, 0 stale entr(ies) removed" in capsys.readouterr().out
    assert "# justified: legacy seed" in baseline.read_text()

    # Fixing demo.py drops its entry — annotation and all — keeps extra's.
    Path(demo).write_text(CLEAN)
    assert main([demo, extra, "--baseline", str(baseline), "--update-baseline"]) == 0
    assert "1 stale entr(ies) removed" in capsys.readouterr().out
    text = baseline.read_text()
    assert "# justified: legacy seed" not in text
    assert "crypto/extra.py" in text
    assert "crypto/demo.py" not in text


def test_malformed_baseline_under_update_is_usage_error(tmp_path, capsys) -> None:
    target = _module(tmp_path, "demo.py", DIRTY)
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("not a valid entry line\n")
    assert main([target, "--baseline", str(baseline), "--update-baseline"]) == 2
    assert "malformed baseline line" in capsys.readouterr().err


def test_select_scopes_the_baseline_the_same_way(tmp_path, capsys) -> None:
    """Out-of-scope baseline entries are neither matched nor stale, so a
    family-scoped CI job does not trip over the other families' state."""
    relay = tmp_path / "repro" / "service" / "relay.py"
    relay.parent.mkdir(parents=True)
    relay.write_text(
        "def rebroadcast(group, blob):\n"
        "    update = TimeBoundKeyUpdate.from_bytes(group, blob)\n"
        "    return update.to_bytes(group)\n"
    )
    targets = [_module(tmp_path, "bad.py", DIRTY), str(relay)]
    baseline = tmp_path / "baseline.txt"
    assert main([*targets, "--baseline", str(baseline), "--write-baseline"]) == 0
    text = baseline.read_text()
    assert "RP102" in text and "RP401" in text
    assert main([*targets, "--baseline", str(baseline), "--select", "RP4"]) == 0
    out = capsys.readouterr().out
    assert "stale baseline entry" not in out  # RP1xx entries not reported stale


def test_empty_select_is_usage_error(capsys) -> None:
    assert main(["--select", " , "]) == 2
    assert "names no rules" in capsys.readouterr().err
