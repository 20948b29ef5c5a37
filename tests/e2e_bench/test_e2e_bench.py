"""Self-test of the end-to-end benchmark (``benchmarks/e2e``) at toy64.

The benchmark itself runs ss512; here every workload runs one short
pass on the 64-bit test parameters, which is enough to check
correctness, byte-identity across backends and runs, the metric names
declared in ``BENCHMARK.json``, and the tracer's time accounting.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import cli
from benchmarks.e2e.spans import ROOT, Tracer
from benchmarks.e2e.workloads import WORKLOADS, run_workload
from repro.pairing.api import PairingGroup

REPO = Path(__file__).resolve().parents[2]
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

TINY = {
    "cold_single": {"receivers": 4},
    "warm_batch": {"receivers": 2, "epochs": 2, "per_job": 4},
    "broadcast_bulk": {"receivers": 3, "epochs": 2, "payload_bytes": 4096},
    "outage_catchup": {"epochs": 5, "listeners": 2, "joiners": 2, "per_client": 2},
}


def _run(name, backend=None, trace=False):
    return run_workload(name, seed=1, seconds=0.0, trace=trace, params="toy64",
                        backend=backend, sizes=TINY[name])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    name = request.param
    return name, {
        "python": _run(name, backend="python"),
        "montgomery": _run(name, backend="montgomery"),
        "traced": _run(name, backend="montgomery", trace=True),
    }


def test_workload_recovers_every_plaintext(runs):
    _, results = runs
    for result in results.values():
        assert result["attempted"] > 0
        assert result["failed"] == 0


def test_transcript_is_identical_across_backends_and_runs(runs):
    _, results = runs
    digests = {label: result["transcript_sha256"] for label, result in results.items()}
    assert len(set(digests.values())) == 1, digests


def test_emitted_names_are_exactly_the_declared_ones(runs):
    _, results = runs
    for kind, result in (("end_to_end", results["python"]), ("per_layer", results["traced"])):
        declared = {entry["name"]: entry["unit"] for entry in DECLARED[kind]}
        emitted = {name: unit for name, (_, unit) in result["metrics"].items()}
        assert all(NAME.match(name) for name in emitted)
        assert emitted == declared


def test_traced_self_times_add_up_to_the_root(runs):
    _, results = runs
    tracer = results["traced"]["tracer"]
    requests = {span[2] for span in tracer.spans if span[3] == ROOT and span[2] > 0}
    assert requests
    spans = [span for span in tracer.spans if span[2] in requests]
    root_ns = sum(span[6] for span in spans if span[3] == ROOT)
    self_ns = sum(span[7] for span in spans)  # includes the root's own self time
    assert abs(self_ns - root_ns) <= 0.01 * root_ns


def test_tracer_restores_every_patched_function():
    originals = (PairingGroup.mul, PairingGroup.__dict__["pair"])
    tracer = Tracer().install()
    try:
        assert PairingGroup.mul is not originals[0]
    finally:
        tracer.uninstall()
    assert (PairingGroup.mul, PairingGroup.__dict__["pair"]) == originals


def _result_file(path, context, metrics, digest="d"):
    path.write_text(json.dumps({
        "context": context,
        "workloads": {"cold_single": {
            "metrics": {name: [value, "u"] for name, value in metrics.items()},
            "transcript_sha256": digest, "failed": 0,
        }},
    }))
    return path


def test_compare_flags_a_regression_and_refuses_other_contexts(tmp_path, capsys):
    context = {"backend": "m", "cpus": 2, "params": "ss512", "python": "3", "seed": 1}
    base = {entry["name"]: 10.0 for entry in DECLARED["end_to_end"]}
    a = _result_file(tmp_path / "a.json", context, base)
    assert cli.compare(a, a) == 0
    worse = _result_file(tmp_path / "b.json", context, {**base, "open_ms_p50": 20.0})
    assert cli.compare(a, worse) == 1
    assert re.search(r"open_ms_p50 .* worse", capsys.readouterr().out)
    other = _result_file(tmp_path / "c.json", {**context, "backend": "p"}, base)
    assert cli.compare(a, other) == 2


def test_benchmark_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(REPO / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "cold_single",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
