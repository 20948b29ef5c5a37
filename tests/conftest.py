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
# ``pytest -m backends``, so this tuple is the one list of them.
BACKEND_SUITES = (
    "tests/math/test_backends.py",
    "tests/math/test_quadratic.py",
    "tests/math/test_gt_exp.py",
    "tests/core/test_cross_backend.py",
    "tests/core/test_broadcast.py",
    "tests/core/test_keys.py",
    "tests/core/test_batch_decrypt.py",
    "tests/core/test_h1_uncleared.py",
    "tests/core/test_subgroup_proofs.py",
    "tests/vectors/",
    "tests/pairing/",
    "tests/ec/test_jacobian.py",
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
    """Family B (general Miller loop, deterministic MapToPoint) over toy64."""
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
