"""Pairing against ``H1``'s uncleared map point.

``H1(T) = c·P′₀`` with the 352-bit (on ss512) cofactor ``c``.  The
reduced Tate pairing is linear in its second argument over all of
``E(Fp²)``, so ``ê(X, c·P′) = ê((c mod q)·X, P′) = ê(X, P′)^(c mod q)``:
the update check, the share check and the warm sender's labels pair
against ``P′₀`` through ``PairingGroup.pair_h1`` and carry the cofactor
on a fixed G1 argument; the cold sender (one factor per label of a
conjunction: ID-TRE's ``(ID, T)``, an AND lock's conditions) and the
resilient sender's ``P_1`` pair the fixed argument itself and carry it
on a GT exponent.  These tests check the identity on both families and
every backend, force the one case where the two sides differ
(``c·P′₀ = O``, where ``H1`` moves on to counter 1) for every label or
for one chosen label to show the fallback keeps verdicts and keys
exact, and scan ``src/`` to keep that fallback in one place.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bls import BLSSignatureScheme
from repro.core.idtre import IdentityTimedReleaseScheme
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.policylock import PolicyLockScheme
from repro.core.resilient import ResilientTimeServer, ResilientTRE, epoch_path
from repro.core.threshold import ThresholdTimeServer, UpdateShare
from repro.core.timeserver import PassiveTimeServer, TimeBoundKeyUpdate
from repro.core.tre import H1_TAG, H2_TAG, TimedReleaseScheme
from repro.encoding import xor_bytes
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


PROPERTY_CASES = [
    (params, family, backend)
    for params, family in (("toy64", "A"), ("toy64", "B"), ("ss512", "A"))
    for backend in available_backends()
]


@pytest.fixture(
    scope="module", params=PROPERTY_CASES, ids=lambda c: "-".join(c)
)
def property_group(request):
    params, family, backend = request.param
    return PairingGroup(params, family=family, backend=backend)


@settings(
    max_examples=4, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    x_scalar=st.integers(min_value=1),
    r=st.integers(min_value=1),
    labels=st.lists(
        st.binary(max_size=16), min_size=1, max_size=4, unique=True
    ),
)
def test_cold_pair_h1_matches_derived_and_cleared(
    property_group, x_scalar, r, labels
):
    """Without ``derived``, ``pair_h1`` pairs ``X`` itself and raises the
    result to ``c·r mod q``: the same element as the ``derived`` form
    ``ê((c·r mod q)·X, P′₀)`` and as ``ê(r·X, H1(T))`` on the cleared
    point, label by label and for the sender's conjunction of 1–4."""
    group = property_group
    x = group.mul(group.generator, x_scalar)
    r = r % group.q or 1
    product = group.gt_identity()
    for label in labels:
        cleared = group.pair(group.mul(x, r), group.hash_to_g1(label, H1_TAG))
        derived = group.mul(x, group.h1_cofactor * r)
        assert group.pair_h1(x, label, H1_TAG, scalar=r) == cleared
        assert group.pair_h1(
            x, label, H1_TAG, scalar=r, derived=derived
        ) == cleared
        product = product * cleared
    scheme = TimedReleaseScheme(group)
    assert scheme._sender_key(x, tuple(labels), r) == product


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
        assert scheme._sender_key(user.public.as_generator, (label,), r) == expected


def _assert_derived_off_identity(group, key, derive, point):
    pristine = dataclasses.replace(key)
    with group.counters.measure() as ops:
        derived = derive(group)
        assert derive(group) is derived
    assert ops["scalar_mult"] == 1
    assert key == pristine
    assert hash(key) == hash(pristine)
    assert repr(key) == repr(pristine)
    assert key.to_bytes(group) == pristine.to_bytes(group)
    assert derived == group.mul(point, group.h1_cofactor)


def test_derived_point_stays_off_the_key_identity(group):
    """``D`` is cached on the key object but is no part of its value."""
    public = ServerKeyPair.generate(group, random.Random(9)).public
    _assert_derived_off_identity(
        group, public, public.cofactor_s_generator, public.s_generator
    )


def test_sender_derived_point_stays_off_the_key_identity(group):
    """So is the warm sender's ``(c mod q)·asG``."""
    rng = random.Random(9)
    server = ServerKeyPair.generate(group, rng)
    public = UserKeyPair.generate(group, server.public, rng).public
    _assert_derived_off_identity(
        group, public, public.cofactor_as_generator, public.as_generator
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
def force(request, group, monkeypatch):
    """``force(*labels)`` makes counter 0 of the map hit a small-order
    point for those labels only (under any tag), or for every label when
    none is named, and returns that point.  Until it is called no label
    is forced.

    Pairing against the point gives the identity.  The ``zero_miller``
    case also makes every Miller loop that meets it, fused or replayed
    from recorded lines, fail the way a zero Miller value does, with
    :class:`ParameterError`.
    """
    real = hashing.map_to_curve
    small = _small_order_point(group)
    forced: list[set[bytes] | None] = [set()]  # None: every label

    def map_to_curve(ssc, data, tag="repro:H1", counter=0):
        hit = counter == 0 and (forced[0] is None or data in forced[0])
        return small if hit else real(ssc, data, tag, counter)

    monkeypatch.setattr(hashing, "map_to_curve", map_to_curve)
    if request.param == "zero_miller":
        tate = group.tate

        def failing(method):
            def run(*args):
                # tate.pair(P, Q), tate.pair_with_precomp(lines, Q) or
                # tate.multi_pair(pairs, exponents)
                pairs = args[0] if isinstance(args[0], list) else [args]
                if any(q_point == small for _, q_point in pairs):
                    raise ParameterError("Miller value is zero; degenerate input")
                return method(*args)
            return run

        for name in ("pair", "pair_with_precomp", "multi_pair"):
            monkeypatch.setattr(tate, name, failing(getattr(tate, name)))

    def choose(*labels: bytes):
        forced[0] = set(labels) or None
        return small

    yield choose
    # Sender pairings cached under the forced map must not outlive it.
    group.clear_precomputations()


@pytest.fixture
def degenerate(force):
    """Every label's counter-0 map point is the small-order point."""
    return force()


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
    assert scheme._sender_key(user.public.as_generator, (label,), r) == expected
    message = b"opens after the forced label"
    ciphertext = scheme.encrypt(
        message, user.public, server.public_key, label, rng
    )
    update = server.publish_update(label)
    assert scheme.decrypt(
        ciphertext, user, update, server.public_key
    ) == message


def test_cold_pair_h1_falls_back_per_label(group, force):
    """The cold path with no ``derived``: a forced label falls back to
    ``ê(r·X, H1(T))`` with no GT exponentiation, the others pair ``X``
    and raise to ``c·r mod q``, and the sender's conjunction, which
    pairs each label at ``scalar = c⁻¹ mod q`` and shares one
    exponentiation, still equals the key on cleared points."""
    rng = random.Random(20)
    x = group.random_point(rng)
    r = group.random_scalar(rng)
    labels = (b"L0", b"L1-forced", b"L2")
    force(labels[1])
    total = group.identity()
    for label in labels:
        h1 = group.hash_to_g1(label)
        total = total + h1
        expected = group.pair(group.mul(x, r), h1)
        assert not expected.is_identity()
        with group.counters.measure() as ops:
            assert group.pair_h1(x, label, H1_TAG, scalar=r) == expected
        forced = label == labels[1]
        assert ops.get("hash_to_group", 0) == int(forced)
        assert ops.get("scalar_mult", 0) == int(forced)
        assert ops.get("gt_exp", 0) == int(not forced)
    expected = group.pair(group.mul(x, r), total)
    scheme = TimedReleaseScheme(group)
    with group.counters.measure() as ops:
        assert scheme._sender_key(x, labels, r) == expected
    # One multiplication (c⁻¹·X, the forced label's fallback) and one
    # GT exponentiation for the three labels together.
    assert ops["scalar_mult"] == 1
    assert ops["gt_exp"] == 1


def test_cold_receivers_share_a_map_point_and_fall_back(group, degenerate):
    """Below ``SHARED_H1_RECEIVERS`` the cold receivers of one send pair
    on one map point of ``H1(T)``; each key still falls back to the
    cleared ``H1(T)`` when ``c·P′₀ = O``, and a warm receiver among them
    keeps its cached pairing."""
    rng = random.Random(21)
    points = [group.random_point(rng) for _ in range(3)]
    label, r = b"forced", group.random_scalar(rng)
    h1 = group.hash_to_g1(label)
    expected = [group.pair(group.mul(point, r), h1) for point in points]
    scheme = TimedReleaseScheme(group)
    group._sender_gt[(points[1], label)] = group.pair(points[1], h1)
    with group.counters.measure() as ops:
        assert scheme._sender_keys(points, label, r) == expected
    assert ops["hash_to_curve"] == 1
    with pytest.raises(ParameterError):
        group.pair_h1(points, label, H1_TAG, derived=points[0])


def test_warm_label_falls_back_exactly(group, degenerate):
    rng = random.Random(13)
    server = PassiveTimeServer(group, rng=rng)
    user = UserKeyPair.generate(group, server.public_key, rng)
    scheme = TimedReleaseScheme(group)
    label = b"forced"
    scheme.precompute_sender(user.public, server.public_key, time_labels=[label])
    expected = group.pair(user.public.as_generator, group.hash_to_g1(label))
    assert not expected.is_identity()
    assert group.cached_pair_h1(user.public.as_generator, label) == expected
    message = b"opens after the forced label, warm"
    ciphertext = scheme.encrypt(
        message, user.public, server.public_key, label, rng
    )
    update = server.publish_update(label)
    assert scheme.decrypt(
        ciphertext, user, update, server.public_key
    ) == message


# A conjunction of labels pairs one factor per label, so a label whose
# map point is forced falls back by itself.  Pairing once against the
# sum of the map points would not: with only label j forced,
# ê(D, Σ P′) = ê(X, Σ_{i≠j} H1(T_i)) is no identity, so nothing could
# tell.  Hence each case forces one label and compares with the key on
# cleared H1 points.


@pytest.mark.parametrize("forced", ["identity_label", "time_label"])
def test_idtre_key_falls_back_per_label(group, force, forced):
    rng = random.Random(14)
    master = ServerKeyPair.generate(group, rng)
    server = PassiveTimeServer(group, keypair=master)
    public = master.public
    identity, label = b"forced-alice", b"forced-T"
    force(identity if forced == "identity_label" else label)
    scheme = IdentityTimedReleaseScheme(group)
    r = group.random_scalar(rng)
    expected = group.pair(
        group.mul(public.s_generator, r),
        group.hash_to_g1(identity) + group.hash_to_g1(label),
    )
    assert scheme._kem._sender_key(
        public.s_generator, (identity, label), r
    ) == expected
    message = b"opens for alice after the forced label"
    cold = scheme.encrypt(message, identity, public, label, random.Random(15))
    scheme.precompute_sender(public, identities=[identity], time_labels=[label])
    warm = scheme.encrypt(message, identity, public, label, random.Random(15))
    assert warm == cold
    user_key = scheme.extract_user_key(master, identity)
    update = server.publish_update(label)
    assert scheme.decrypt(cold, user_key, update, public) == message


def test_and_key_falls_back_per_condition(group, force):
    rng = random.Random(16)
    server = PassiveTimeServer(group, rng=rng)
    user = UserKeyPair.generate(group, server.public_key, rng)
    conditions = (b"C0", b"C1-forced", b"C2")
    force(conditions[1])
    scheme = PolicyLockScheme(group)
    r = group.random_scalar(rng)
    total = group.identity()
    for condition in conditions:
        total = total + group.hash_to_g1(condition)
    expected = group.pair(group.mul(user.public.as_generator, r), total)
    assert scheme._kem._sender_key(
        user.public.as_generator, conditions, r
    ) == expected
    message = b"opens once all three are attested"
    ciphertext = scheme.encrypt_all(
        message, user.public, server.public_key, list(conditions), rng
    )
    attestations = [server.issue_update(c) for c in conditions]
    assert scheme.decrypt_all(
        ciphertext, user, attestations, server.public_key
    ) == message


def test_resilient_first_level_falls_back(group, force):
    rng = random.Random(17)
    server = ResilientTimeServer(group, 3, rng)
    scheme = ResilientTRE(group, server.tree, server.public_key)
    user = scheme.generate_user_keypair(server.public_key, rng)
    epoch = 5
    first = epoch_path(epoch, 3)[:1]
    force(server.tree._node_label(first))
    message = b"released at epoch 5"
    ciphertext = scheme.encrypt(
        message, user.public, epoch, random.Random(18), verify_receiver_key=False
    )
    r = group.random_scalar(random.Random(18))
    expected = group.pair(
        group.mul(user.public.as_generator, r), server.tree.node_point(first)
    )
    mask = group.mask_bytes(expected, len(message), tag=H2_TAG)
    assert ciphertext.masked == xor_bytes(message, mask)
    update = server.publish_update(7)
    assert scheme.decrypt(ciphertext, user, update, rng) == message


def test_share_check_falls_back_exactly(group, force):
    rng = random.Random(19)
    coordinator, members = ThresholdTimeServer.setup(group, 3, 2, rng)
    label = b"forced-share"
    force(label)
    generator = coordinator.public_key.generator

    def reference(share):
        return group.pair_ratio_is_one(
            ((coordinator.expected_verification_key(share.member_index),
              group.hash_to_g1(share.time_label)),),
            ((generator, share.point),),
        )

    honest = [member.issue_update_share(label) for member in members]
    sigma = honest[0].point
    forged = [
        UpdateShare(1, label, sigma + sigma),
        UpdateShare(1, label, sigma + generator),
        UpdateShare(2, label, sigma),
    ]
    for share in honest + forged:
        assert coordinator.verify_share(share) == reference(share)
    assert [coordinator.verify_share(share) for share in honest] == [True] * 3
    assert not any(coordinator.verify_share(share) for share in forged)
    assert coordinator.combine(honest[1:]).verify(group, coordinator.public_key)


# ----------------------------------------------------------------------
# One fallback in src/: only pair_h1 recomputes against H1 itself.
# ----------------------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _functions_where(predicate, skip=(), under=""):
    """``Class.function`` names in ``src/repro`` (or its ``under``
    subdirectory) whose body matches."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if (relative.startswith("lint/") or not relative.startswith(under)
                or relative in skip):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, (ast.Module, ast.ClassDef)):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(predicate(inner) for inner in ast.walk(node)):
                        owner = getattr(cls, "name", relative)
                        found.add(f"{owner}.{node.name}")
    return found


def _calls(name):
    return lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
    )


def _catches_parameter_error(node):
    return isinstance(node, ast.ExceptHandler) and any(
        isinstance(caught, ast.Name) and caught.id == "ParameterError"
        for caught in ast.walk(node.type or ast.Tuple(elts=[]))
    )


def test_map_point_callers_are_pair_h1_and_the_archive_batch():
    """Besides ``pair_h1``, only ``verify_archive``'s batched equation
    reads map points.  It accepts only where ``c·P′_i ≠ O`` is implied,
    and hands every other verdict to ``pair_h1`` update by update
    (``tests/core/test_batch_verify.py`` forces that case)."""
    assert _functions_where(_calls("_map_to_curve")) == {
        "PairingGroup.pair_h1", "core/timeserver.py.verify_archive"
    }


def test_pair_h1_is_the_only_fallback():
    """No other function catches a zero Miller value or clears a
    cofactor by hand (the hash itself aside)."""
    assert _functions_where(_catches_parameter_error) == {
        "PairingGroup.pair_h1"
    }
    assert _functions_where(
        _calls("clear_cofactor"),
        skip={"pairing/hashing.py", "pairing/supersingular.py"},
    ) == {"PairingGroup.pair_h1"}


# Every function in repro.core that still calls hash_to_g1.  Each needs
# H1 as a point in G1; every other key and check pairs through pair_h1.
# tlock runs on the BN254 engine with its own hash and is not scanned.
H1_IN_G1_BY_DESIGN = {
    # Two or more cold receivers record the lines of r·H1(T), and a
    # recorded argument must lie in G1.
    "TimedReleaseScheme._sender_keys",
    # Signing: BLS updates and threshold update shares are s·H1(T).
    "BLSSignatureScheme.hash_message",
    "ThresholdServerMember.issue_update_share",
    # Key extraction: ID-TRE's s·H1(ID), and the escrow demonstration's
    # s·(H1(ID) + H1(T)).
    "IdentityTimedReleaseScheme.hash_identity",
    "IdentityTimedReleaseScheme.server_decrypt",
    # The resilient scheme's tree points: node keys s·P_1 + Σ r_i·P_i
    # and the ciphertext's U_i = r·P_i for levels 2..d.
    "HierarchicalTimeTree.node_point",
}


def test_core_hash_to_g1_callers_are_the_listed_ones():
    """ID-TRE, every policy lock and multi-server encryption compute
    their key through the §5.1 KEM, and the resilient sender and the
    share check pair through pair_h1, not on cleared points."""
    assert _functions_where(
        _calls("hash_to_g1"), skip={"core/tlock.py"}, under="core/"
    ) == H1_IN_G1_BY_DESIGN
