"""The benchmark regression gate must judge only shared entries.

``--check`` compares freshly measured medians against the committed
trajectory.  A PR that *adds* benchmark coverage produces fresh-only
keys; those are informational new entries and must never fail the gate.
Only a key measured on both sides can regress.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.trajectory import (  # noqa: E402
    BenchTrajectory,
    compare_entries,
    merge_claim_tables,
    render_comparison,
)

ROOT = Path(__file__).resolve().parent.parent
CLAIM_TABLES = ROOT / "benchmarks" / "claim_tables.txt"


def _entry(key: str, ms: float) -> dict:
    op, params, variant = key.split(":")
    return {
        "op": op,
        "params": params,
        "variant": variant,
        "median_ms": ms,
        "rounds": 3,
    }


class TestCompareEntries:
    def test_fresh_only_key_is_informational(self):
        committed = {"pairing:toy64:direct": _entry("pairing:toy64:direct", 2.0)}
        fresh = {
            "pairing:toy64:direct": _entry("pairing:toy64:direct", 2.1),
            "encrypt:toy64:gt_table": _entry("encrypt:toy64:gt_table", 0.5),
        }
        rows, regressions, new_keys = compare_entries(committed, fresh, 0.3)
        assert regressions == []
        assert new_keys == ["encrypt:toy64:gt_table"]
        status = {row[0]: row[4] for row in rows}
        assert status["encrypt:toy64:gt_table"] == "new"
        assert status["pairing:toy64:direct"] == "ok"

    def test_new_key_never_regresses_even_when_slow(self):
        rows, regressions, new_keys = compare_entries(
            {}, {"slow:toy64:direct": _entry("slow:toy64:direct", 9999.0)}, 0.3
        )
        assert regressions == []
        assert new_keys == ["slow:toy64:direct"]

    def test_shared_key_regression_still_fails(self):
        committed = {"pairing:toy64:direct": _entry("pairing:toy64:direct", 1.0)}
        fresh = {"pairing:toy64:direct": _entry("pairing:toy64:direct", 2.0)}
        rows, regressions, new_keys = compare_entries(committed, fresh, 0.3)
        assert regressions == ["pairing:toy64:direct"]
        assert new_keys == []

    def test_committed_only_key_reported_not_gated(self):
        committed = {"retired:toy64:direct": _entry("retired:toy64:direct", 1.0)}
        rows, regressions, new_keys = compare_entries(committed, {}, 0.3)
        assert regressions == [] and new_keys == []
        assert rows == [("retired:toy64:direct", 1.0, None, None, "not-measured")]

    def test_render_handles_informational_rows(self):
        committed = {"retired:toy64:direct": _entry("retired:toy64:direct", 1.0)}
        fresh = {"fresh:toy64:direct": _entry("fresh:toy64:direct", 0.7)}
        rows, _, _ = compare_entries(committed, fresh, 0.3)
        table = render_comparison(rows, 0.3)
        assert "new" in table and "not-measured" in table


class TestSpeedupDerivation:
    def test_speedup_vs_direct(self):
        traj = BenchTrajectory(path="/nonexistent/unused.json")
        traj.record("encrypt", "toy64", "direct", 0.010, 3)
        traj.record("encrypt", "toy64", "gt_table", 0.002, 3)
        speedups = traj._derive_speedups(traj.entries)
        assert speedups == {"encrypt:toy64:gt_table": 5.0}


class TestRowSelection:
    """``--rows`` writes only matching rows, and every ratio it writes
    comes from one session's ``direct`` and fast medians."""

    def _committed(self, tmp_path):
        path = tmp_path / "trajectory.json"
        old = BenchTrajectory(path)
        old.record("encrypt", "toy64", "direct", 0.012, 3)
        old.record("encrypt", "toy64", "gt_table", 0.003, 3)
        old.record("pairing", "toy64", "direct", 0.010, 3)
        old.record("pairing", "toy64", "precomputed", 0.005, 3)
        old.write()
        return path

    def test_only_selected_rows_written(self, tmp_path):
        path = self._committed(tmp_path)
        fresh = BenchTrajectory(path, rows=["encrypt:*:gt_table"])
        assert fresh.selects("encrypt") and not fresh.selects("pairing")
        fresh.record("encrypt", "toy64", "direct", 0.008, 3)
        fresh.record("encrypt", "toy64", "gt_table", 0.002, 3)
        fresh.write()
        doc = json.loads(path.read_text())
        entries = doc["entries"]
        assert entries["encrypt:toy64:direct"]["median_ms"] == 12.0
        assert entries["encrypt:toy64:gt_table"]["median_ms"] == 2.0
        # This session's own direct (8 ms), not the committed 12 ms.
        assert doc["speedup_vs_direct"] == {
            "encrypt:toy64:gt_table": 4.0,
            "pairing:toy64:precomputed": 2.0,
        }

    def test_rows_carry_their_session(self, tmp_path):
        path = self._committed(tmp_path)
        committed = json.loads(path.read_text())["entries"]
        fresh = BenchTrajectory(path, rows=["encrypt:*:gt_table"])
        fresh.record("encrypt", "toy64", "direct", 0.008, 3)
        fresh.record("encrypt", "toy64", "gt_table", 0.002, 3)
        fresh.write()
        entries = json.loads(path.read_text())["entries"]
        sessions = {key: entry["session"] for key, entry in entries.items()}
        assert sessions["encrypt:toy64:gt_table"] == fresh.session
        old = committed["encrypt:toy64:direct"]["session"]
        assert old != fresh.session
        assert {sessions[key] for key in sessions
                if key != "encrypt:toy64:gt_table"} == {old}

    def test_no_session_direct_drops_the_ratio(self, tmp_path):
        path = self._committed(tmp_path)
        fresh = BenchTrajectory(path)
        fresh.record("encrypt", "toy64", "gt_table", 0.002, 3)
        fresh.write()
        doc = json.loads(path.read_text())
        assert doc["speedup_vs_direct"] == {"pairing:toy64:precomputed": 2.0}


class TestClaimTableMerge:
    """One experiment's run rewrites only its own claim tables."""

    def test_reemitting_one_block_keeps_every_other_byte(self):
        existing = CLAIM_TABLES.read_text()
        old = next(b for b in existing.split("\n\n") if b.startswith("E12a:"))
        new = "E12a: re-measured\ncol | value\n----+------\n  a |     1"
        merged = merge_claim_tables(existing, [new])
        start = existing.index(old)
        assert merged[:start] == existing[:start]
        assert merged[start:start + len(new)] == new
        assert merged[start + len(new):] == existing[start + len(old):]

    def test_unchanged_tables_round_trip(self):
        existing = CLAIM_TABLES.read_text()
        blocks = existing.rstrip("\n").split("\n\n")
        assert merge_claim_tables(existing, []) == existing
        assert merge_claim_tables(existing, blocks[3:5]) == existing

    def test_new_id_appended_and_first_run_writes_all(self):
        existing = "E1: one\nrow\n\nE2: two\nrow\n"
        merged = merge_claim_tables(existing, ["E3: three\nrow", "E1: uno\nrow"])
        assert merged == "E1: uno\nrow\n\nE2: two\nrow\n\nE3: three\nrow\n"
        assert merge_claim_tables("", ["E3: x", "E1: y"]) == "E3: x\n\nE1: y\n"


class TestOneWriter:
    """``pytest benchmarks`` writes no committed file: ``BenchTrajectory
    .write`` is called from ``benchmarks/smoke.py`` only, and the claim
    tables are written by ``python -m benchmarks.claim_tables`` only."""

    def test_only_the_claim_table_writer_writes_claim_tables(self, tmp_path):
        """A plain run on a copy of the harness prints an emitted table
        and leaves ``claim_tables.txt`` byte-identical; the writer run
        merges the same table in."""
        harness = tmp_path / "benchmarks"
        harness.mkdir()
        for name in (
            "__init__.py", "conftest.py", "trajectory.py", "claim_tables.py",
            "claim_tables.txt",
        ):
            shutil.copy(ROOT / "benchmarks" / name, harness / name)
        table = "E99: probe table\ncol | value\n----+------\n  a |     1"
        (harness / "bench_probe.py").write_text(
            "from benchmarks.conftest import emit\n\n\n"
            f"def test_probe():\n    emit({table!r})\n"
        )
        before = CLAIM_TABLES.read_bytes()
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

        def run(*args):
            done = subprocess.run(
                [sys.executable, *args, "-q", "-p", "no:cacheprovider",
                 "benchmarks/bench_probe.py"],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            return done.stdout

        assert "E99: probe table" in run("-m", "pytest")
        assert (harness / "claim_tables.txt").read_bytes() == before
        run("-m", "benchmarks.claim_tables")
        assert (harness / "claim_tables.txt").read_text() == merge_claim_tables(
            before.decode(), [table]
        )

    def test_only_smoke_writes_the_trajectory(self):
        writers = set()
        for tree in ("benchmarks", "scripts", "src", "examples"):
            for path in sorted((ROOT / tree).rglob("*.py")):
                module = ast.parse(path.read_text(encoding="utf-8"))
                for node in ast.walk(module):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "write"
                        and not node.args
                        and not node.keywords
                    ):
                        writers.add(path.relative_to(ROOT).as_posix())
        assert writers == {"benchmarks/smoke.py"}
