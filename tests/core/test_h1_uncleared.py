"""Pairing against ``H1``'s uncleared map point.

``H1(T) = c·P′₀`` with the 352-bit (on ss512) cofactor ``c``.  The
reduced Tate pairing is linear in its second argument over all of
``E(Fp²)``, so ``ê(X, c·P′) = ê((c mod q)·X, P′)``: the update check and
the cold single-receiver sender pair against ``P′₀`` and carry the
cofactor on a fixed G1 argument.  These tests check the identity on
both families and every backend, and force the one case where the two
sides differ (``c·P′₀ = O``, where ``H1`` moves on to counter 1) to
show the fallback keeps verdicts and keys exact.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bls import BLSSignatureScheme
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.timeserver import PassiveTimeServer, TimeBoundKeyUpdate
from repro.core.tre import H1_TAG, TimedReleaseScheme
from repro.ec.point import CurvePoint
from repro.errors import ParameterError
from repro.math.backend import available_backends
from repro.pairing import hashing
from repro.pairing.api import PairingGroup, PairingPrecomputation
from repro.pairing.supersingular import FAMILY_A

CASES = [
    (family, backend)
    for family in ("A", "B")
    for backend in available_backends()
]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def group(request):
    family, backend = request.param
    return PairingGroup("toy64", family=family, backend=backend)


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    scalar=st.integers(min_value=1),
    label=st.binary(max_size=24),
    counter=st.integers(min_value=0, max_value=3),
)
def test_cofactor_moves_across_the_pairing(group, scalar, label, counter):
    """``ê((c mod q)·X, P′) == ê(X, c·P′)`` for any map point ``P′``."""
    x = group.mul(group.generator, scalar)
    uncleared = hashing.map_to_curve(group.ssc, label, H1_TAG, counter)
    cleared = group.ssc.clear_cofactor(uncleared)
    moved = group.mul(x, group.h1_cofactor)
    assert group.pair(moved, uncleared) == group.pair(x, cleared)
    # The recorded-lines path of a fixed first argument agrees too.
    assert PairingPrecomputation(group, moved).pair(uncleared) == group.pair(
        x, cleared
    )


@pytest.mark.parametrize("label", [b"", b"T", b"epoch:000000000042"])
def test_first_map_point_clears_to_h1(group, label):
    uncleared = group._map_to_curve(label)
    assert group.ssc.clear_cofactor(uncleared) == group.hash_to_g1(label)


def test_update_check_hashes_only_the_map_point(group):
    rng = random.Random(7)
    server = PassiveTimeServer(group, rng=rng)
    update = server.publish_update(b"uncleared")
    forged = TimeBoundKeyUpdate(update.time_label, update.point + update.point)
    public = server.public_key
    with group.counters.measure() as ops:
        assert update.verify(group, public)
        assert not forged.verify(group, public)
    assert ops["hash_to_curve"] == 2
    assert "hash_to_group" not in ops


def test_cold_key_matches_h1_pairing(group):
    rng = random.Random(8)
    server = ServerKeyPair.generate(group, rng)
    user = UserKeyPair.generate(group, server.public, rng)
    scheme = TimedReleaseScheme(group)
    for label in (b"T0", b"T1"):
        r = group.random_scalar(rng)
        expected = group.pair(
            group.mul(user.public.as_generator, r), group.hash_to_g1(label)
        )
        assert scheme._sender_key(user.public, label, r) == expected


def test_derived_point_stays_off_the_key_identity(group):
    """``D`` is cached on the key object but is no part of its value."""
    server = ServerKeyPair.generate(group, random.Random(9))
    derived = server.public
    pristine = dataclasses.replace(derived)
    derived.cofactor_s_generator(group)
    assert derived == pristine
    assert hash(derived) == hash(pristine)
    assert repr(derived) == repr(pristine)
    assert derived.to_bytes(group) == pristine.to_bytes(group)
    assert derived.cofactor_s_generator(group) == group.mul(
        derived.s_generator, group.h1_cofactor
    )


# ----------------------------------------------------------------------
# Forced fallback: the counter-0 map point has order dividing c.
# ----------------------------------------------------------------------


def _small_order_point(group):
    """A point of order 2, so ``c·P = O`` (``12 | c``)."""
    fp = group.ssc.fp
    if group.family == FAMILY_A:
        return group.ssc.curve.point(fp(0), fp(0))
    return group.ssc.curve.point(fp(-1), fp(0))


@pytest.fixture(params=["identity", "zero_miller"])
def degenerate(request, group, monkeypatch):
    """Make counter 0 of every map hit a small-order point.

    Pairing against it gives the identity.  The ``zero_miller`` case
    also makes every Miller loop that meets it fail the way a zero
    Miller value does, with :class:`ParameterError`.
    """
    real = hashing.map_to_curve
    small = _small_order_point(group)

    def map_to_curve(ssc, data, tag="repro:H1", counter=0):
        return small if counter == 0 else real(ssc, data, tag, counter)

    monkeypatch.setattr(hashing, "map_to_curve", map_to_curve)
    if request.param == "zero_miller":
        tate = group.tate

        def failing(method):
            def run(*args):
                # tate.pair(P, Q) or tate.multi_pair(pairs, exponents)
                pairs = [args] if isinstance(args[0], CurvePoint) else args[0]
                if any(q_point == small for _, q_point in pairs):
                    raise ParameterError("Miller value is zero; degenerate input")
                return method(*args)
            return run

        monkeypatch.setattr(tate, "pair", failing(tate.pair))
        monkeypatch.setattr(tate, "multi_pair", failing(tate.multi_pair))
    return small


def test_degenerate_map_point_moves_h1_to_counter_one(group, degenerate):
    assert group.ssc.clear_cofactor(degenerate).is_infinity
    label = b"forced"
    assert group._map_to_curve(label) == degenerate
    assert group.hash_to_g1(label) == group.ssc.clear_cofactor(
        hashing.map_to_curve(group.ssc, label, H1_TAG, 1)
    )


def test_verify_falls_back_exactly(group, degenerate):
    rng = random.Random(10)
    server = ServerKeyPair.generate(group, rng)
    bls = BLSSignatureScheme(group)
    sigma = bls.sign(server, b"forced")
    assert bls.verify(server.public, b"forced", sigma)
    assert not bls.verify(server.public, b"forced", sigma + sigma)
    assert not bls.verify(
        server.public, b"forced", sigma + server.public.generator
    )
    bls.precompute_public(server.public)
    assert bls.verify(server.public, b"forced", sigma)
    assert not bls.verify(server.public, b"forced", sigma + sigma)


def test_cold_encrypt_falls_back_exactly(group, degenerate):
    rng = random.Random(11)
    server = PassiveTimeServer(group, rng=rng)
    user = UserKeyPair.generate(group, server.public_key, rng)
    scheme = TimedReleaseScheme(group)
    label = b"forced"
    r = group.random_scalar(rng)
    expected = group.pair(
        group.mul(user.public.as_generator, r), group.hash_to_g1(label)
    )
    assert not expected.is_identity()
    assert scheme._sender_key(user.public, label, r) == expected
    message = b"opens after the forced label"
    ciphertext = scheme.encrypt(
        message, user.public, server.public_key, label, rng
    )
    update = server.publish_update(label)
    assert scheme.decrypt(
        ciphertext, user, update, server.public_key
    ) == message
