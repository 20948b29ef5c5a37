"""Shared fixtures.

Everything expensive (pairing groups, server key pairs) is
session-scoped; all randomness is seeded so the suite is deterministic.
The ``toy64`` parameter set keeps pairings in the low-millisecond range;
a handful of tests marked ``ss512`` check the production-size set.
"""

from __future__ import annotations

import random

import pytest

from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.timeserver import PassiveTimeServer
from repro.pairing.api import PairingGroup


# The cross-backend identity suites, marked ``backends``: CI's
# ``test-gmpy2`` job and ``scripts/check.sh --backends`` both run
# ``pytest -m backends``, so this tuple is the one list of them.  With
# gmpy2 installed their gmpy2 legs stop skipping, which shows the
# GMP-backed arithmetic byte-identical to the pure-python reference.
BACKEND_SUITES = (
    # Backend kernels.
    "tests/math/test_backends.py",
    # Fp2 under its small signed beta against the residue construction.
    "tests/math/test_quadratic.py",
    # The unitary-exponentiation ladder and GT tables (b = 0 pow and
    # int() coercions on mpz).
    "tests/math/test_gt_exp.py",
    # The protocol slice.
    "tests/core/test_cross_backend.py",
    # Broadcast vectors and the cold multi-receiver threshold.
    "tests/core/test_broadcast.py",
    # The receiver-key check's cold and replayed paths.
    "tests/core/test_keys.py",
    # Batch decryption on the transient a*I_T lines.
    "tests/core/test_batch_decrypt.py",
    # The archive's batched equation against the per-update oracle.
    "tests/core/test_batch_verify.py",
    # The pairing-side H1 path, cold pair_h1 and its fallback.
    "tests/core/test_h1_uncleared.py",
    # The subgroup proofs.
    "tests/core/test_subgroup_proofs.py",
    # The second-use table of the server generator G.
    "tests/core/test_send_tables.py",
    # Known-answer vectors: TRE, GT and the scheme vectors of
    # schemes.json (policy-lock, multi-server, FO, REACT, ID-TRE).
    "tests/vectors/",
    # The pairing suite; with tests/vectors it runs the fused
    # projective Miller loop on mpz integers, family B's steps against
    # the divisor-loop oracle too (test_tate.py's TestMillerVariantsAgree).
    "tests/pairing/",
    # The Jacobian kernels against the affine oracles.
    "tests/ec/test_jacobian.py",
    # Fixed-base tables, and their signed-digit recoding.
    "tests/ec/test_precompute.py",
    "tests/ec/test_signed_tables.py",
)


def pytest_collection_modifyitems(config, items):
    for item in items:
        path = item.path.relative_to(config.rootpath).as_posix()
        if path.startswith(BACKEND_SUITES):
            item.add_marker(pytest.mark.backends)


@pytest.fixture(scope="session")
def group() -> PairingGroup:
    """Family A (denominator-free Miller loop) over toy64."""
    return PairingGroup("toy64", family="A")


@pytest.fixture(scope="session")
def group_b() -> PairingGroup:
    """Family B (conjugated verticals, deterministic MapToPoint) over toy64."""
    return PairingGroup("toy64", family="B")


@pytest.fixture(scope="session", params=["A", "B"])
def any_group(request, group, group_b) -> PairingGroup:
    """Parametrized over both curve families."""
    return group if request.param == "A" else group_b


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(0xD15EA5E)


@pytest.fixture(scope="session")
def session_rng() -> random.Random:
    return random.Random(0x5E551011)


@pytest.fixture(scope="session")
def server(group, session_rng) -> PassiveTimeServer:
    return PassiveTimeServer(group, rng=session_rng)


@pytest.fixture(scope="session")
def server_keypair(group, session_rng) -> ServerKeyPair:
    return ServerKeyPair.generate(group, session_rng)


@pytest.fixture(scope="session")
def user(group, server, session_rng) -> UserKeyPair:
    return UserKeyPair.generate(group, server.public_key, session_rng)
