"""Each G1 subgroup proof and each update verdict is paid for once.

A point carries :attr:`~repro.ec.point.CurvePoint.proven_order` once
``q·P = O`` is established, and a :class:`TimeBoundKeyUpdate` carries
the server-key object it was accepted under.  Both let a repeated check
return at once.  These tests pin that neither can be forged: a failed
check records nothing, an operation never passes on a proof its input
lacks, and the verdicts the exact checks give stay the same, on both
families and every backend.  They also count the ``q``-multiplications
and operations a receiver pays.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import random

import pytest

from repro.core.bls import BLSSignatureScheme
from repro.core.keys import ServerPublicKey, UserKeyPair
from repro.core.timeserver import (
    PassiveTimeServer,
    TimeBoundKeyUpdate,
    verify_archive,
)
from repro.core.tre import TimedReleaseScheme, TRECiphertext
from repro.ec.curve import EllipticCurve
from repro.errors import NotInSubgroupError
from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from repro.pairing.supersingular import FAMILY_A
from repro.service.client import ResilientTimeClient

LABEL = b"repro:subgroup-proofs:T"
CASES = [
    (family, backend)
    for family in ("A", "B")
    for backend in available_backends()
]


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def group(request):
    family, backend = request.param
    return PairingGroup("toy64", family=family, backend=backend)


@pytest.fixture
def server(group):
    return PassiveTimeServer(group, rng=random.Random(5))


def _outside_g1(group):
    """A base-curve point whose order does not divide ``q``."""
    return group._map_to_curve(LABEL)


def _two_torsion(group):
    zero = group.ssc.fp(0)
    return group.ssc.curve.point(zero, zero)


def _fresh(point):
    """An unproven copy of ``point``: same coordinates, new object."""
    return point.curve.point(point.x, point.y)


def _wire_update(group, server, label=LABEL):
    """The update for ``label`` as a receiver gets it: decoded from bytes."""
    update = server.publish_update(label)
    return TimeBoundKeyUpdate.from_bytes(group, update.to_bytes(group))


def _ops(group, fn):
    with group.counters.measure() as delta:
        fn()
    return {name: count for name, count in delta.items() if count}


class TestPointProofs:
    def test_failed_check_leaves_no_proof(self, group):
        candidates = [_outside_g1(group), _outside_g1(group) * group.q]
        if group.family == FAMILY_A:
            candidates.append(_two_torsion(group))
            candidates.append(group.hash_to_g1(LABEL) + _two_torsion(group))
        for point in candidates:
            for _ in range(2):
                assert not group.in_group(point)
                assert point.proven_order is None
            with pytest.raises(NotInSubgroupError):
                group.ssc.ensure_in_subgroup(point)
            for _ in range(2):
                with pytest.raises(NotInSubgroupError):
                    group.point_from_bytes(group.point_to_bytes(point))

    def test_proof_for_another_prime_is_not_trusted(self, group):
        point = _outside_g1(group)
        point.prove_order(group.q + 2)
        assert not group.in_group(point)

    def test_passing_check_records_the_proof(self, group):
        point = _fresh(group.generator)
        assert point.proven_order is None
        assert group.in_group(point)
        assert point.proven_order == group.q
        decoded = group.point_from_bytes(group.point_to_bytes(point))
        assert decoded.proven_order == group.q

    def test_mul_passes_on_only_the_proof_it_was_given(self, group):
        outside = _outside_g1(group)
        product = group.mul(outside, 12345)
        assert product.proven_order is None
        assert not group.in_group(product)
        inside = _fresh(group.generator)
        assert group.mul(inside, 12345).proven_order is None
        group.in_group(inside)
        assert group.mul(inside, 12345).proven_order == group.q

    def test_fixed_base_mul_passes_on_only_the_proof_it_was_given(self, group):
        outside = _outside_g1(group)
        group.precompute(outside)
        assert group.mul(outside, 777).proven_order is None
        inside = _fresh(group.generator)
        group.precompute(inside)
        assert group.mul(inside, 777).proven_order is None
        group.in_group(inside)
        assert group.mul(inside, 777).proven_order == group.q

    def test_cofactor_clearing_proves_base_curve_points(self, group):
        cleared = group.ssc.clear_cofactor(_outside_g1(group))
        assert cleared.proven_order == group.q
        assert (cleared * group.q).is_infinity
        assert group.hash_to_g1(LABEL).proven_order == group.q

    def test_unchecked_and_extension_points_are_never_proven(self, group):
        generator = group.generator
        assert group.ssc.curve.unchecked_point(
            generator.x, generator.y
        ).proven_order is None
        distorted = group.ssc.distort(generator)
        assert distorted.proven_order is None
        assert not group.in_group(distorted)
        assert distorted.proven_order is None
        assert group.ssc.clear_cofactor(distorted).proven_order is None

    def test_proof_changes_no_equality_hash_or_encoding(self, group):
        proven = _fresh(group.generator)
        group.in_group(proven)
        plain = _fresh(group.generator)
        assert proven.proven_order == group.q
        assert plain.proven_order is None
        assert proven == plain
        assert hash(proven) == hash(plain)
        assert len({proven, plain}) == 1
        assert repr(proven) == repr(plain)
        assert proven.to_bytes() == plain.to_bytes()
        assert group.point_to_bytes(proven) == group.point_to_bytes(plain)
        assert (group.point_to_bytes_compressed(proven)
                == group.point_to_bytes_compressed(plain))

    def test_proof_is_set_only_by_the_three_proofs(self):
        """Only the subgroup check, cofactor clearing and ``mul`` set it."""
        import repro

        allowed = {
            ("supersingular.py", "in_subgroup"),
            ("supersingular.py", "clear_cofactor"),
            ("api.py", "mul"),
        }
        setters = set()
        assignments = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "prove_order"):
                        setters.add((path.name, func.name))
                    targets = getattr(node, "targets", None) or [
                        getattr(node, "target", None)
                    ]
                    for target in targets:
                        if (isinstance(target, ast.Attribute)
                                and target.attr == "proven_order"):
                            assignments.add((path.name, func.name))
        assert setters == allowed
        assert assignments == {("point.py", "__init__"), ("point.py", "prove_order")}


class TestUpdateVerdicts:
    def test_repeat_verify_under_same_key_costs_nothing(self, group, server):
        public = server.public_key
        update = _wire_update(group, server)
        assert _ops(group, lambda: update.verify(group, public))
        assert _ops(group, lambda: update.verify(group, public)) == {}
        assert _ops(group, lambda: update.ensure_valid(group, public)) == {}

    def test_another_key_object_runs_the_full_check(self, group, server):
        update = _wire_update(group, server)
        assert update.verify(group, server.public_key)
        twin = dataclasses.replace(server.public_key)
        assert _ops(group, lambda: update.verify(group, twin)).get("pairing") == 2
        # The latest accept is recorded: back to the first object, full.
        assert _ops(
            group, lambda: update.verify(group, server.public_key)
        ).get("pairing") == 2

    def test_wrong_server_key_is_rejected_after_an_accept(self, group, server):
        update = _wire_update(group, server)
        assert update.verify(group, server.public_key)
        other = PassiveTimeServer(group, rng=random.Random(6)).public_key
        for _ in range(2):
            assert not update.verify(group, other)

    def test_forged_update_runs_the_full_check_every_time(self, group, server):
        honest = _wire_update(group, server)
        forged = TimeBoundKeyUpdate(
            LABEL, honest.point + server.public_key.generator
        )
        for _ in range(2):
            ops = _ops(group, lambda: forged.verify(group, server.public_key))
            assert ops.get("pairing") == 2
            assert not forged.verify(group, server.public_key)

    def test_sigma_plus_two_torsion_in_process_is_rejected(self, group, server):
        if group.family != FAMILY_A:
            pytest.skip("(0, 0) lies on the family-A curve only")
        bls = BLSSignatureScheme(group)
        sigma = server.publish_update(LABEL).point
        forged = sigma + _two_torsion(group)
        public = server.public_key
        for _ in range(2):
            assert not bls.verify(public, LABEL, forged)
            assert not TimeBoundKeyUpdate(LABEL, forged).verify(group, public)
            assert forged.proven_order is None
        assert verify_archive(group, public, [TimeBoundKeyUpdate(LABEL, forged)]) == [
            LABEL
        ]

    def test_verify_archive_records_its_accepts(self, group, server):
        public = server.public_key
        good = _wire_update(group, server, LABEL + b"0")
        bad = TimeBoundKeyUpdate(LABEL + b"1", good.point)
        assert verify_archive(group, public, [good, bad]) == [LABEL + b"1"]
        assert _ops(group, lambda: good.verify(group, public)) == {}
        assert _ops(group, lambda: bad.verify(group, public)).get("pairing") == 2

    def test_record_stays_off_equality_repr_and_wire(self, group, server):
        update = _wire_update(group, server)
        blob = update.to_bytes(group)
        before = repr(update)
        twin = TimeBoundKeyUpdate(update.time_label, update.point)
        assert update.verify(group, server.public_key)
        assert update == twin
        assert hash(update) == hash(twin)
        assert repr(update) == before
        assert update.to_bytes(group) == blob


class TestReceiverPaysEachProofOnce:
    """``q``-multiplications a receiver runs, counted at the curve."""

    @pytest.fixture
    def q_mults(self, group, monkeypatch):
        calls = []
        original = EllipticCurve.scalar_mult

        def counting(curve, point, scalar):
            if scalar == group.q:
                calls.append(point)
            return original(curve, point, scalar)

        monkeypatch.setattr(EllipticCurve, "scalar_mult", counting)
        return calls

    @pytest.fixture
    def world(self, group, server):
        rng = random.Random(7)
        scheme = TimedReleaseScheme(group)
        user = UserKeyPair.generate(group, server.public_key, rng)
        ciphertext = scheme.encrypt(
            b"released", user.public, server.public_key, LABEL, rng
        )
        return {
            "scheme": scheme,
            "user": user,
            "server_bytes": server.public_key.to_bytes(group),
            "ct_bytes": ciphertext.to_bytes(group),
            "update_bytes": server.publish_update(LABEL).to_bytes(group),
        }

    def test_ingest_then_decrypt(self, group, world, q_mults):
        public = ServerPublicKey.from_bytes(group, world["server_bytes"])
        ciphertext = TRECiphertext.from_bytes(group, world["ct_bytes"])
        client = ResilientTimeClient(
            group, public, sources=[object()], rng=random.Random(1)
        )
        update = client._ingest(world["update_bytes"])
        decoded = 4  # sG, G, U and I_T
        assert len(q_mults) == decoded
        assert world["scheme"].decrypt(
            ciphertext, world["user"], update, server_public=public
        ) == b"released"
        assert world["scheme"].decrypt_batch(
            [ciphertext], world["user"], update, server_public=public
        ) == [b"released"]
        assert len(q_mults) == decoded

    def test_catch_up_then_decrypt(self, group, world, q_mults):
        public = ServerPublicKey.from_bytes(group, world["server_bytes"])
        ciphertext = TRECiphertext.from_bytes(group, world["ct_bytes"])
        update = TimeBoundKeyUpdate.from_bytes(group, world["update_bytes"])
        assert verify_archive(group, public, [update]) == []
        assert len(q_mults) == 4
        ops = _ops(group, lambda: world["scheme"].decrypt(
            ciphertext, world["user"], update, server_public=public
        ))
        assert ops.get("multi_pair") is None
        assert len(q_mults) == 4
