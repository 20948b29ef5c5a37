"""Command line for the end-to-end benchmark.

    python3 benchmarks/e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
    python3 benchmarks/e2e --compare A.json B.json

With ``--workload`` one workload runs in this process; without it each
workload runs in a fresh interpreter, one after another.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or per-layer metrics
with ``--trace``).  Results files, and with ``--trace`` the spans and
layer tables, go to ``--out``.  The exit code is 0 only when every
plaintext matched and the transcript digest matches the committed one
(``digests.json``, seeds 1 and 2).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]
DEFAULT_OUT = PACKAGE_DIR / "out"
DIGESTS = PACKAGE_DIR / "digests.json"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
DEFAULT_SECONDS = 15.0
PARAMS = "ss512"
CONTEXT_KEYS = ("backend", "cpus", "params", "python", "seed")
SAMPLES_FOR = {"setup_s": "setup_s", "encrypt_ms_p50": "encrypt_ms", "open_ms_p50": "open_ms"}


def _parser() -> argparse.ArgumentParser:
    from benchmarks.e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="benchmarks/e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path)
    return parser


def _context(seed: int, backend: str) -> dict:
    return {
        "backend": backend,
        "cpus": os.cpu_count(),
        "params": PARAMS,
        "python": platform.python_version(),
        "seed": seed,
    }


def _line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    })


def _stem(workload: str, seed: int, trace: int) -> str:
    return "".join((workload, "-seed", str(seed), "-trace" if trace else ""))


def _expected_digest(workload: str, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text())
    return table.get(workload, {}).get(str(seed))


def run_one(args) -> int:
    from benchmarks.e2e.workloads import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), PARAMS)
    expected = _expected_digest(args.workload, args.seed)
    digest_ok = expected is None or expected == result["transcript_sha256"]
    if not digest_ok:
        print(
            f"{args.workload}: transcript {result['transcript_sha256']} != committed {expected}",
            file=sys.stderr,
        )
        result["failed"] = result["attempted"]
    correct = digest_ok and result["failed"] == 0 and result["attempted"] > 0
    tracer = result.pop("tracer", None)
    backend = result.pop("backend")
    args.out.mkdir(parents=True, exist_ok=True)
    stem = _stem(args.workload, args.seed, args.trace)
    if tracer is not None:
        tracer.write_jsonl(args.out / f"{stem}-spans.jsonl")
        table = _format_layers(result["layers"])
        (args.out / f"{stem}-layers.txt").write_text(table)
        print(table, end="")
    result["correct"] = correct
    document = {"context": _context(args.seed, backend), "workloads": {args.workload: result}}
    (args.out / f"{stem}.json").write_text(json.dumps(document, indent=1))
    if not args.trace:
        for name, (value, unit) in result["metrics"].items():
            print(f"{args.workload:16} {name:18} {value:14.4f} {unit}")
    print(_line(correct, result["attempted"], result["failed"], result["metrics"]))
    return 0 if correct else 1


def _format_layers(rows) -> str:
    lines = [f"{'phase':9} {'span':46} {'calls':>7} {'self ms':>11} {'share':>7}"]
    for row in rows:
        lines.append(
            f"{row['phase']:9} {row['span']:46} {row['calls']:7d} "
            f"{row['self_ms']:11.3f} {row['share_pct']:6.2f}%"
        )
    return "\n".join(lines) + "\n"


def run_all(args) -> int:
    from benchmarks.e2e.workloads import WORKLOADS

    combined: dict = {"context": None, "workloads": {}}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        command = [
            sys.executable, str(PACKAGE_DIR), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(args.out),
        ]
        proc = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
        sys.stderr.write(proc.stderr)
        stem = _stem(name, args.seed, args.trace)
        path = args.out / f"{stem}.json"
        if proc.returncode != 0 or not path.exists():
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        document = json.loads(path.read_text())
        combined["context"] = document["context"]
        result = document["workloads"][name]
        combined["workloads"][name] = result
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    stem = _stem("e2e", args.seed, args.trace)
    (args.out / f"{stem}.json").write_text(json.dumps(combined, indent=1))
    print(f"results: {args.out / (stem + '.json')}")
    metrics = {
        f"{workload}.{name}": tuple(entry)
        for workload, result in combined["workloads"].items()
        for name, entry in result["metrics"].items()
    }
    print(_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def _metric(result: dict, name: str) -> float | None:
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else entry[0]


def compare(path_a: Path, path_b: Path) -> int:
    """One row per (workload, metric): A, B, delta, bound, status."""
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    differs = [
        key for key in CONTEXT_KEYS
        if a["context"].get(key) != b["context"].get(key)
    ]
    if differs:
        print(f"refusing to compare: context differs in {', '.join(differs)}", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    print(f"{'workload':16} {'metric':18} {'A':>12} {'B':>12} {'delta':>8} {'bound':>6}  status")
    bad = False
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        ra, rb = a["workloads"].get(workload, {}), b["workloads"].get(workload, {})
        same = ra.get("transcript_sha256") == rb.get("transcript_sha256")
        failures = (ra.get("failed"), rb.get("failed"))
        print(f"{workload:16} {'transcript':18} {'':>12} {'':>12} {'':>8} {'':>6}  "
              f"{'same' if same else 'DIFFERS'}; failed A={failures[0]} B={failures[1]}")
        bad = bad or not same or bool(failures[1])
        for spec in declared:
            name, bound = spec["name"], spec["bound"]
            va, vb = _metric(ra, name), _metric(rb, name)
            if va is None or vb is None or va == 0:
                status, delta = "unresolved", float("nan")
            else:
                delta = (vb - va) / va
                worse = delta if spec["better"] == "lower" else -delta
                status = "worse" if worse > bound else "better" if worse < -bound else "ok"
                samples = ra.get("samples", {}).get(SAMPLES_FOR.get(name, ""), [])
                if status != "ok" and len(samples) >= 4:
                    q1, _, q3 = statistics.quantiles(samples, n=4)
                    if q1 <= vb <= q3:
                        status = "unresolved"
            bad = bad or status == "worse"
            print(f"{workload:16} {name:18} {_fmt(va)} {_fmt(vb)} {delta * 100:7.1f}% "
                  f"{bound * 100:5.0f}%  {status}")
    return 1 if bad else 0


def _fmt(value: float | None) -> str:
    return f"{value:12.4f}" if value is not None else f"{'-':>12}"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_all(args)
