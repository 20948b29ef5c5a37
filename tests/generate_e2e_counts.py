"""Regenerate ``tests/e2e_counts.json``, the end-to-end op-count table.

Run from the repository root::

    PYTHONPATH=src python -m tests.generate_e2e_counts

Each of the four end-to-end workloads (``benchmarks/e2e``) runs once,
traced, on ss512 at its default sizes, seed 1, with no timed passes.
The table keeps everything such a run reports that is not a time: the
per-layer metrics that count (span calls, cache hit ratios, client
counters, wire and AEAD bytes, traced requests) and the ``calls``
column of the layer table for the set-up and the measured phase.
Counts do not drift with the host, so ``test_e2e_counts.py`` compares
them exactly.  A change that lowers a count regenerates the table and
cites the diff; one that raises a count by accident fails with the
workload, phase and span named.

The field backend is pinned to ``python`` so that the table holds on
every host, with or without gmpy2.
"""

from __future__ import annotations

import json
import pathlib

from benchmarks.e2e.workloads import WORKLOADS, run_workload

OUT = pathlib.Path(__file__).with_name("e2e_counts.json")

PARAMS = "ss512"
BACKEND = "python"
SEED = 1
PHASES = ("setup", "measured")
# Per-layer metrics that are times (or the host's speed), not counts.
TIMED = ("trace.unattributed_ms", "trace.overhead_pct", "host.kernel_ms")


def derive_counts(name: str) -> dict:
    """One workload's count table: ``metrics`` plus one ``{span: calls}``
    map per phase."""
    result = run_workload(
        name, seed=SEED, seconds=0, trace=True, params=PARAMS, backend=BACKEND
    )
    table = {
        "metrics": {
            metric: value
            for metric, (value, _unit) in sorted(result["metrics"].items())
            if not metric.endswith(".self_ms") and metric not in TIMED
        },
    }
    for phase in PHASES:
        table[phase] = {
            row["span"]: row["calls"]
            for row in sorted(result["layers"], key=lambda row: row["span"])
            if row["phase"] == phase
        }
    return table


def main() -> None:
    doc = {
        "description": (
            "Exact op counts of the end-to-end workloads; "
            "see tests/generate_e2e_counts.py"
        ),
        "params": PARAMS,
        "backend": BACKEND,
        "seed": SEED,
        "workloads": {name: derive_counts(name) for name in sorted(WORKLOADS)},
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
