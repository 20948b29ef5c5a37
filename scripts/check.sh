#!/usr/bin/env bash
# The full local gate: exactly what CI runs.
#
#   ./scripts/check.sh            # tier-1 tests + the experiments' claim
#                                 # assertions + repro.lint (+ ruff/mypy
#                                 # if installed)
#   ./scripts/check.sh --fast     # skip the test suites, just the static checks
#   ./scripts/check.sh --bench    # also run the toy64 smoke benchmark and the
#                                 # trajectory regression check (advisory —
#                                 # mirrors CI's non-blocking bench job)
#   ./scripts/check.sh --chaos    # also run the seeded fault-injection
#                                 # chaos suite (pytest -m faults) across
#                                 # the three fixed CI seeds
#   ./scripts/check.sh --backends # also run the cross-backend identity
#                                 # suites against every field-arithmetic
#                                 # backend the box has (gmpy2 legs skip
#                                 # themselves when the wheel is absent —
#                                 # mirrors CI's test-gmpy2 job)
#
# The claim assertions are plain pytest tests (pytest benchmarks/).
# ruff and mypy are optional: they are skipped with a notice when not
# installed so the gate works on the offline, stdlib-only toolchain the
# repo targets.  mypy is advisory (reported, never fails the gate) while
# the tree's annotations are still being tightened.

set -u

fast=0
bench=0
chaos=0
backends=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        --bench) bench=1 ;;
        --chaos) chaos=1 ;;
        --backends) backends=1 ;;
        *)
            # The header comment above is the usage block.
            echo "check.sh: unknown argument: $arg" >&2
            sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
            exit 2
            ;;
    esac
done

cd "$(dirname "$0")/.."

failures=0

step() {
    echo
    echo "== $1"
}

if [ "$fast" -eq 0 ]; then
    step "tier-1 tests (pytest)"
    PYTHONPATH=src python -m pytest -x -q || failures=$((failures + 1))

    step "claim assertions (pytest benchmarks, E1-E16)"
    PYTHONPATH=src python -m pytest benchmarks -q || failures=$((failures + 1))
fi

# One run gates all three families (RP1xx pattern rules, RP2xx taint,
# RP4xx typestate protocols); unused waivers and a run over the 60 s
# self-time budget fail it too.
step "crypto-hygiene lint (repro.lint, RP1xx, RP2xx, RP4xx)"
PYTHONPATH=src python -m repro.lint src examples benchmarks \
    || failures=$((failures + 1))

step "ruff"
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests || failures=$((failures + 1))
else
    echo "ruff not installed — skipped (config lives in pyproject.toml)"
fi

step "mypy (advisory)"
if command -v mypy >/dev/null 2>&1; then
    mypy || echo "mypy reported issues (advisory — not failing the gate)"
else
    echo "mypy not installed — skipped (config lives in pyproject.toml)"
fi

if [ "$chaos" -eq 1 ]; then
    step "chaos suite (pytest -m faults, seeds 101/202/303)"
    REPRO_CHAOS_SEEDS="101,202,303" \
        PYTHONPATH=src python -m pytest -q -m faults \
        || failures=$((failures + 1))
fi

if [ "$backends" -eq 1 ]; then
    step "cross-backend identity suites (every available backend)"
    PYTHONPATH=src python -c \
        "from repro.math.backend import available_backends, resolve_backend_name; \
         print('available backends:', ', '.join(available_backends())); \
         print('auto resolves to:', resolve_backend_name('auto'))"
    # The suites are marked in tests/conftest.py (BACKEND_SUITES).
    PYTHONPATH=src python -m pytest -q -m backends \
        || failures=$((failures + 1))
fi

if [ "$bench" -eq 1 ]; then
    step "smoke benchmark + trajectory check (advisory — mirrors CI bench job)"
    ./scripts/bench.sh --rounds 3 \
        || echo "smoke benchmark failed (advisory — not failing the gate)"
    PYTHONPATH=src python -m benchmarks.trajectory --check --rounds 3 \
        || echo "trajectory check reported regressions (advisory — not failing the gate)"
fi

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: FAILED ($failures gate(s))"
    exit 1
fi
echo "check.sh: all gates passed"
