"""``scripts/check.sh`` refuses an argument it does not know, so a typo
such as ``--fats`` cannot run the full gate and report it passed."""

import pathlib
import subprocess

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_unknown_argument_is_a_usage_error():
    result = subprocess.run(
        ["bash", "scripts/check.sh", "--no-such-flag"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "unknown argument: --no-such-flag" in result.stderr
    # The usage block names every option.
    for option in ("--fast", "--bench", "--chaos", "--backends"):
        assert f"./scripts/check.sh {option}" in result.stderr
    # No step ran: each one starts with a "== " header on stdout.
    assert result.stdout == ""
