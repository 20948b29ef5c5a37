"""A machine-readable benchmark trajectory (``BENCH_pairing.json``).

Claim tables (``benchmarks/claim_tables.txt``) are for humans; this
module keeps the same measurements as data, so successive PRs can be
compared mechanically.  Entries are keyed ``op:params:variant`` (e.g.
``scalar_mult:ss512:fixed_base``) and merged on write — re-running one
experiment updates its rows and leaves the rest of the file alone.
The claim tables merge the same way (:func:`merge_claim_tables`).

Each entry records the median wall time, the round count, the live
operation counts from :mod:`repro.pairing.opcount` for one execution,
free-form extras and the ``session`` that measured it: one id per
``BenchTrajectory`` (UTC start time plus a random suffix), so rows
re-recorded by a partial run sit visibly beside rows from another
session or host, whose absolute medians are not comparable.  For
every ``op:params`` pair that has both a
``direct`` and a non-direct variant measured in one session, ``write``
derives a ``speedup_vs_direct`` ratio (direct median / fast-path
median).  A session may write only the rows that match its ``rows``
globs (``benchmarks.smoke --rows``); every pair it writes a row of gets
its ratios from that session's own measurements, so a re-recorded fast
row is never divided into an older session's ``direct`` row, and the
ratios of the pairs it leaves alone stay as committed.

Run as a module for the regression gate::

    PYTHONPATH=src python -m benchmarks.trajectory --check

re-measures the smoke entries fresh (without touching the committed
file), prints a committed-vs-fresh comparison table, and exits nonzero
if any entry slowed down by more than ``--tolerance`` (default ±30% —
wall-clock medians on shared machines are noisy; the gate is meant to
catch step-function regressions, not jitter).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import pathlib
import secrets
import statistics
import sys
import time

SCHEMA = "repro-bench-trajectory/v1"
DIRECT = "direct"

DEFAULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pairing.json"


def time_median(fn, rounds: int = 5) -> float:
    """Median wall-clock seconds of ``rounds`` calls to ``fn``."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def merge_claim_tables(existing: str, emitted: list[str]) -> str:
    """``claim_tables.txt`` with this run's ``emitted`` tables merged in.

    Blocks are separated by one blank line and keyed by the id before
    the first ``:`` of their first line (``E10``, ``E12a``, ...).  An
    emitted block replaces the block with its id in place; every other
    block keeps its bytes and its place, and new ids go at the end.
    """
    def block_id(block: str) -> str:
        return block.split("\n", 1)[0].split(":", 1)[0]

    fresh = {block_id(block): block.strip("\n") for block in emitted}
    old = [block for block in existing.strip("\n").split("\n\n") if block]
    merged = [fresh.pop(block_id(block), block) for block in old]
    merged.extend(fresh.values())
    return "\n\n".join(merged) + "\n"


class BenchTrajectory:
    """Accumulates benchmark entries and merges them into the JSON file."""

    def __init__(
        self,
        path: pathlib.Path | str | None = None,
        rows: list[str] | None = None,
    ):
        self.path = pathlib.Path(path) if path else DEFAULT_PATH
        # Globs over ``op:params:variant``; None selects every row.
        self.rows = rows
        # Every row this session measured, and the selected ones, which
        # are the rows it writes.
        self.measured: dict[str, dict] = {}
        self.entries: dict[str, dict] = {}
        self.session = (
            time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
            + "-" + secrets.token_hex(3)
        )

    def selects(self, op: str) -> bool:
        """Whether some selected row can belong to ``op``: the op field
        of a glob (its text before the first ``:``) matches it."""
        return self.rows is None or any(
            fnmatch.fnmatchcase(op, glob.split(":", 1)[0])
            for glob in self.rows
        )

    @staticmethod
    def key(op: str, params: str, variant: str) -> str:
        return f"{op}:{params}:{variant}"

    def record(
        self,
        op: str,
        params: str,
        variant: str,
        median_seconds: float,
        rounds: int,
        op_counts: dict[str, int] | None = None,
        backend: str | None = None,
        **extra,
    ) -> None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            cpus = os.cpu_count() or 1
        entry = {
            "op": op,
            "params": params,
            "variant": variant,
            "median_ms": round(median_seconds * 1000, 4),
            "rounds": rounds,
            # Execution context: medians are only comparable between
            # runs with the same arithmetic backend on the same CPU
            # budget, so every entry records both and --check skips
            # mismatched pairs (see compare_entries).
            "cpus": cpus,
            "session": self.session,
        }
        if backend is not None:
            entry["backend"] = backend
        if op_counts:
            entry["op_counts"] = dict(op_counts)
        if extra:
            entry.update(extra)
        key = self.key(op, params, variant)
        self.measured[key] = entry
        if self.rows is None or any(
            fnmatch.fnmatchcase(key, glob) for glob in self.rows
        ):
            self.entries[key] = entry

    def measure_interleaved(
        self, group, op: str, variants: dict, rounds: int = 5,
        variant_extra: dict[str, dict] | None = None, **extra
    ) -> dict[str, float]:
        """Time several variants, one round of each in turn, and record them.

        ``variants`` maps a variant name to its function; one untimed
        call of each captures its op counts first.  Host speed
        drifts during a run; alternating the rounds lands that drift on
        every variant alike.  ``extra`` goes on every variant's entry,
        ``variant_extra[name]`` on that variant's only (a fast path's
        set-up cost, say).  Returns ``{variant: median seconds}``.
        """
        counts = {}
        for variant, fn in variants.items():
            with group.counters.measure() as counts[variant]:
                fn()
        samples: dict[str, list[float]] = {variant: [] for variant in variants}
        for _ in range(rounds):
            for variant, fn in variants.items():
                samples[variant].append(time_median(fn, rounds=1))
        medians = {}
        for variant, timings in samples.items():
            medians[variant] = statistics.median(timings)
            self.record(
                op, group.params.name, variant, medians[variant], rounds,
                op_counts=counts[variant], backend=group.backend_name,
                **extra, **(variant_extra or {}).get(variant, {}),
            )
        return medians

    def _derive_speedups(self, entries: dict[str, dict]) -> dict[str, float]:
        by_pair: dict[tuple[str, str], dict[str, float]] = {}
        for entry in entries.values():
            pair = (entry["op"], entry["params"])
            by_pair.setdefault(pair, {})[entry["variant"]] = entry["median_ms"]
        speedups = {}
        for (op, params), variants in sorted(by_pair.items()):
            direct = variants.get(DIRECT)
            if not direct:
                continue
            for variant, ms in variants.items():
                if variant == DIRECT or not ms:
                    continue
                speedups[f"{op}:{params}:{variant}"] = round(direct / ms, 3)
        return speedups

    def _session_speedups(self) -> tuple[set, dict[str, float]]:
        """The ``op:params`` pairs this session writes a row of, and
        their ratios, derived from this session's measurements only."""
        pairs = {
            (entry["op"], entry["params"]) for entry in self.entries.values()
        }
        speedups = {
            key: ratio
            for key, ratio in self._derive_speedups(self.measured).items()
            if tuple(key.split(":")[:2]) in pairs
        }
        return pairs, speedups

    def write(self) -> pathlib.Path:
        """Merge this run's entries into the trajectory file."""
        committed: dict = {}
        if self.path.exists():
            try:
                committed = json.loads(self.path.read_text())
            except (json.JSONDecodeError, OSError):
                committed = {}
        merged = dict(committed.get("entries", {}))
        merged.update(self.entries)
        pairs, fresh = self._session_speedups()
        speedups = {
            key: ratio
            for key, ratio in committed.get("speedup_vs_direct", {}).items()
            if tuple(key.split(":")[:2]) not in pairs
        }
        speedups.update(fresh)
        payload = {
            "schema": SCHEMA,
            "entries": dict(sorted(merged.items())),
            "speedup_vs_direct": dict(sorted(speedups.items())),
        }
        self.path.write_text(json.dumps(payload, indent=2) + "\n")
        return self.path

    def summary_lines(self) -> list[str]:
        lines = []
        for key, entry in sorted(self.entries.items()):
            lines.append(f"{key}: {entry['median_ms']:.3f} ms")
        for key, ratio in self._session_speedups()[1].items():
            lines.append(f"speedup {key}: {ratio:.2f}x vs direct")
        return lines


# ----------------------------------------------------------------------
# Regression check: fresh re-measurement vs the committed trajectory.
# ----------------------------------------------------------------------


def load_committed(path: pathlib.Path | str | None = None) -> dict[str, dict]:
    """The committed trajectory's entries (empty dict if unreadable)."""
    path = pathlib.Path(path) if path else DEFAULT_PATH
    try:
        return json.loads(path.read_text()).get("entries", {})
    except (OSError, json.JSONDecodeError):
        return {}


#: Entry fields that define the execution context a median was taken
#: under.  --check only gates committed/fresh pairs whose contexts
#: match; a committed entry missing a field predates context recording
#: and matches anything (legacy wildcard).
CONTEXT_FIELDS = ("backend", "cpus")


def _context_mismatch(committed_entry: dict, fresh_entry: dict) -> bool:
    return any(
        field in committed_entry
        and field in fresh_entry
        and committed_entry[field] != fresh_entry[field]
        for field in CONTEXT_FIELDS
    )


def compare_entries(
    committed: dict[str, dict],
    fresh: dict[str, dict],
    tolerance: float,
) -> tuple[list[tuple], list[str], list[str]]:
    """Diff fresh medians against committed ones.

    Returns ``(rows, regressions, new_keys)`` where each row is
    ``(key, committed_ms, fresh_ms, ratio, status)`` and ``regressions``
    lists the keys whose fresh median exceeds the committed one by more
    than ``tolerance`` (a fraction, e.g. ``0.3`` for ±30%).

    A fresh key with no committed baseline is *informational*, never a
    failure: it lands in ``new_keys`` with status ``"new"`` so a PR
    that adds benchmark coverage passes the gate and the new entries
    are visible in the table.  Committed keys the fresh run did not
    measure appear with status ``"not-measured"`` (also informational —
    the gate only judges pairs measured on both sides).  A pair whose
    recorded execution context (:data:`CONTEXT_FIELDS` — backend, CPU
    count) disagrees gets status ``"context-differs"``: the ratio is
    shown but never gated, since a median taken under a different
    backend or CPU budget is not evidence of a regression.  Committed
    entries that predate context recording match any context.
    """
    rows: list[tuple] = []
    regressions: list[str] = []
    new_keys: list[str] = []
    for key, entry in sorted(fresh.items()):
        fresh_ms = entry["median_ms"]
        base = committed.get(key)
        if base is None:
            rows.append((key, None, fresh_ms, None, "new"))
            new_keys.append(key)
            continue
        base_ms = base["median_ms"]
        if not base_ms:
            rows.append((key, base_ms, fresh_ms, None, "no-baseline"))
            continue
        if _context_mismatch(base, entry):
            rows.append((
                key, base_ms, fresh_ms, fresh_ms / base_ms, "context-differs"
            ))
            continue
        ratio = fresh_ms / base_ms
        if ratio > 1.0 + tolerance:
            status = "REGRESSION"
            regressions.append(key)
        elif ratio < 1.0 - tolerance:
            status = "improved"
        else:
            status = "ok"
        rows.append((key, base_ms, fresh_ms, ratio, status))
    for key, entry in sorted(committed.items()):
        if key not in fresh:
            rows.append((key, entry.get("median_ms"), None, None, "not-measured"))
    return rows, regressions, new_keys


def render_comparison(rows: list[tuple], tolerance: float) -> str:
    header = ("entry", "committed ms", "fresh ms", "ratio", "status")
    cells = [header]
    for key, base_ms, fresh_ms, ratio, status in rows:
        cells.append((
            key,
            f"{base_ms:.3f}" if base_ms is not None else "-",
            f"{fresh_ms:.3f}" if fresh_ms is not None else "-",
            f"{ratio:.2f}x" if ratio is not None else "-",
            status,
        ))
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = [
        f"committed vs fresh medians (tolerance ±{tolerance * 100:.0f}%)"
    ]
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def run_check(
    params: str = "toy64",
    tolerance: float = 0.3,
    rounds: int = 3,
    batch: int = 32,
    path: pathlib.Path | str | None = None,
    backend: str | None = None,
) -> int:
    """Re-measure the smoke entries and diff against the committed file.

    Never writes the trajectory; returns a process exit code (0 = no
    regression beyond tolerance, 1 = at least one).  Only entries whose
    committed execution context (backend, cpus) matches the fresh run
    are gated; the rest are reported as ``context-differs``.
    """
    from benchmarks import smoke
    from repro.crypto.rng import seeded_rng
    from repro.pairing.api import PairingGroup

    committed = load_committed(path)
    group = PairingGroup(params, family="A", backend=backend)
    rng = seeded_rng(f"smoke:{params}")
    fresh = BenchTrajectory(path)
    smoke.run_all(group, rng, fresh, rounds, batch)
    rows, regressions, new_keys = compare_entries(
        committed, fresh.entries, tolerance
    )
    print(render_comparison(rows, tolerance))
    if new_keys:
        print(
            f"\n{len(new_keys)} new entr"
            f"{'y' if len(new_keys) == 1 else 'ies'} without a committed "
            "baseline (informational, not gated):"
        )
        for key in new_keys:
            print(f"  {key}")
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond ±{tolerance * 100:.0f}%:")
        for key in regressions:
            print(f"  {key}")
        return 1
    print("\nno regressions beyond tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="re-measure the smoke entries and fail on "
                             "regressions vs the committed trajectory")
    parser.add_argument("--params", default="toy64",
                        help="parameter set for --check (default toy64)")
    parser.add_argument("--tolerance", type=float, default=0.3,
                        help="allowed slowdown fraction (default 0.3 = ±30%%)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per fresh measurement")
    parser.add_argument("--batch", type=int, default=32,
                        help="batch size for the batch entries")
    parser.add_argument("--backend", default=None,
                        help="field-arithmetic backend for the fresh "
                             "measurements (python, montgomery, gmpy2, "
                             "auto; default auto)")
    parser.add_argument("--path", default=None,
                        help="trajectory file (default: repo root "
                             "BENCH_pairing.json)")
    args = parser.parse_args(argv)

    if args.check:
        return run_check(
            params=args.params,
            tolerance=args.tolerance,
            rounds=args.rounds,
            batch=args.batch,
            path=args.path,
            backend=args.backend,
        )
    # Without --check: print the committed trajectory.
    committed = load_committed(args.path)
    if not committed:
        print("no committed trajectory found")
        return 0
    for key, entry in sorted(committed.items()):
        print(f"{key}: {entry['median_ms']:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
