"""CLI exit codes and output formats.

Scoped rules key off the path *relative to the repro package*, so these
tests lay files out under a synthetic ``repro/crypto/`` tree.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import engine
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
    status = main([_module(tmp_path, "bad.py", DIRTY)])
    assert status == 1
    out = capsys.readouterr().out
    assert "RP102" in out
    assert "FAILED" in out


def test_clean_file_exits_zero(tmp_path, capsys) -> None:
    status = main([_module(tmp_path, "ok.py", CLEAN)])
    assert status == 0
    assert "clean" in capsys.readouterr().out


def test_missing_path_is_usage_error(capsys) -> None:
    assert main(["definitely/not/here.py"]) == 2


def test_list_rules(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RP101", "RP102", "RP103", "RP104", "RP105"):
        assert rule_id in out


def test_sarif_format_is_valid_2_1_0(tmp_path, capsys) -> None:
    target = _module(tmp_path, "bad.py", DIRTY)
    status = main([target, "--format", "sarif"])
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
    status = main([target, "--format", "sarif", "--output", str(out_file)])
    assert status == 1
    payload = json.loads(out_file.read_text())
    assert payload["version"] == "2.1.0"
    assert "FAILED" in capsys.readouterr().out  # human trace stays on stdout


def test_unused_waiver_fails_without_a_flag(tmp_path, capsys) -> None:
    source = CLEAN + "    # lint: allow[RP102] nothing to suppress here\n"
    target = _module(tmp_path, "ok.py", source)
    assert main([target]) == 1
    out = capsys.readouterr().out
    assert "UNUSED WAIVER" in out
    assert "FAILED" in out


def test_self_time_budget_violation_fails(tmp_path, capsys, monkeypatch) -> None:
    target = _module(tmp_path, "ok.py", CLEAN)
    monkeypatch.setattr(engine, "SELF_TIME_BUDGET_SECONDS", 0.0)
    assert main([target]) == 1
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
    assert main([target]) == 1
    out = capsys.readouterr().out
    assert "RP201" in out
    assert "reveal" in out


def test_list_rules_includes_flow_family(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RP201", "RP202", "RP203", "RP204"):
        assert rule_id in out


@pytest.mark.parametrize(
    "flag",
    [
        "--baseline=lint-baseline.txt",
        "--no-baseline",
        "--write-baseline",
        "--update-baseline",
        "--check-baseline",
        "--select=RP4",
        "--self-time-budget=60",
        "--format=json",
    ],
)
def test_removed_flag_is_a_usage_error(tmp_path, capsys, flag) -> None:
    target = _module(tmp_path, "ok.py", CLEAN)
    with pytest.raises(SystemExit) as exited:
        main([target, flag])
    assert exited.value.code == 2
    assert "usage:" in capsys.readouterr().err
