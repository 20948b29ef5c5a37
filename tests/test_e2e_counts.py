"""The exact op-count gate of the end-to-end workloads.

``generate_e2e_counts.py`` ran each workload of ``benchmarks/e2e`` once,
traced, and committed every count it reported to ``e2e_counts.json``:
the per-layer metrics that are not times, and the traced ``calls`` of
each span in the set-up and the measured phase.  Here each workload runs
again and every count must match exactly, so a change that adds a
pairing, a decode, a hash or a retry per request fails with the
workload, the phase and the span named, whatever the host's speed.

The gate sees only traced spans (``benchmarks/e2e/spans.py``'s
``SPAN_SET``).  ``SupersingularCurve._derive_generator`` and
``PairingGroup._map_to_curve`` are not traced spans, so it sees them only
through their children: a derived generator as two
``math.backend.fp_batch_inv`` calls under no span of its own, an extra
map point not at all when it adds no traced call.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from benchmarks.e2e.workloads import WORKLOADS
from tests.generate_e2e_counts import PHASES, derive_counts

TABLE = json.loads(pathlib.Path(__file__).with_name("e2e_counts.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_match_the_table(workload):
    want = TABLE["workloads"][workload]
    # Through JSON, so the counts compare the way they were stored.
    got = json.loads(json.dumps(derive_counts(workload)))
    differences = [
        f"{workload} {phase} {span}: {want[phase].get(span)} -> {got[phase].get(span)}"
        for phase in ("metrics", *PHASES)
        for span in sorted(want[phase].keys() | got[phase].keys())
        if want[phase].get(span) != got[phase].get(span)
    ]
    assert not differences, (
        "op counts moved (regenerate with `PYTHONPATH=src python -m "
        "tests.generate_e2e_counts` only if that is meant):\n  "
        + "\n  ".join(differences)
    )
