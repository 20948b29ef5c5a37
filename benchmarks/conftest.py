"""Shared fixtures and reporting helpers for the benchmark harness.

Every experiment (E1..E16 in DESIGN.md) lives in its own file.  Each
file both (a) registers pytest-benchmark timings for the operations the
paper's claims are about and (b) emits a claim-versus-measured table
directly to the real stdout, so ``pytest benchmarks/ --benchmark-only |
tee bench_output.txt`` captures the same rows EXPERIMENTS.md records.

``ss512`` (~80-bit security, contemporary with the 2005 paper) is the
default parameter set for cryptographic timings; count-based and
simulation experiments use ``toy64`` since their results are
size-independent.

A run writes no file: ``benchmarks/claim_tables.py`` is the one writer
of ``benchmarks/claim_tables.txt`` and ``benchmarks/smoke.py`` the one
writer of ``BENCH_pairing.json``.
"""

from __future__ import annotations

import pytest

from repro.core.keys import UserKeyPair
from repro.core.timeserver import PassiveTimeServer
from repro.crypto.rng import seeded_rng
from repro.pairing.api import PairingGroup

RELEASE = b"2030-01-01T00:00:00Z"
KEY_MESSAGE = b"k" * 32  # A 32-byte session key, the paper's unit payload.


_REPORTS: list[str] = []


def emit(text: str) -> None:
    """Queue a claim-vs-measured table for the end-of-run summary.

    Tables are printed by ``pytest_terminal_summary`` (after capture is
    released, so they reach bench_output.txt); ``python -m
    benchmarks.claim_tables`` merges them into the committed file.
    """
    _REPORTS.append(text)


def emitted_tables() -> list[str]:
    """The tables this run emitted, in emission order."""
    return list(_REPORTS)


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.section("experiment claim tables (DESIGN.md E-index)")
    for table in _REPORTS:
        terminalreporter.write_line("")
        for line in table.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bench_group() -> PairingGroup:
    return PairingGroup("ss512", family="A")


@pytest.fixture(scope="session")
def toy_group() -> PairingGroup:
    return PairingGroup("toy64", family="A")


@pytest.fixture(scope="session")
def bench_rng():
    return seeded_rng("benchmarks")


@pytest.fixture(scope="session")
def bench_server(bench_group, bench_rng) -> PassiveTimeServer:
    return PassiveTimeServer(bench_group, rng=bench_rng)


@pytest.fixture(scope="session")
def bench_user(bench_group, bench_server, bench_rng) -> UserKeyPair:
    return UserKeyPair.generate(bench_group, bench_server.public_key, bench_rng)


@pytest.fixture(scope="session")
def bench_update(bench_group, bench_server):
    return bench_server.publish_update(RELEASE)


@pytest.fixture(scope="session")
def toy_server(toy_group, bench_rng) -> PassiveTimeServer:
    return PassiveTimeServer(toy_group, rng=bench_rng)


@pytest.fixture(scope="session")
def toy_user(toy_group, toy_server, bench_rng) -> UserKeyPair:
    return UserKeyPair.generate(toy_group, toy_server.public_key, bench_rng)
