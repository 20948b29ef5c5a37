"""Tests for the PairingGroup facade and GTElement wrapper."""

import random

import pytest

from repro.errors import (
    DecodingError,
    GroupMismatchError,
    NotInSubgroupError,
    ParameterError,
)
from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup
from repro.pairing.opcount import PAIRING, SCALAR_MULT
from repro.pairing.params import get_parameter_set


class TestConstruction:
    def test_by_name_and_by_object(self):
        by_name = PairingGroup("toy64")
        by_obj = PairingGroup(get_parameter_set("toy64"))
        assert by_name == by_obj

    def test_bad_params_type(self):
        with pytest.raises(ParameterError):
            PairingGroup(42)

    def test_equality_includes_family(self):
        assert PairingGroup("toy64", "A") != PairingGroup("toy64", "B")

    def test_sizes_published(self, group):
        assert group.scalar_bytes == (group.q.bit_length() + 7) // 8
        assert group.point_bytes == 1 + 2 * group.ssc.fp.element_bytes
        assert group.gt_bytes == 2 * group.ssc.fp.element_bytes


class TestScalars:
    def test_random_scalar_range(self, group, rng):
        for _ in range(50):
            s = group.random_scalar(rng)
            assert 1 <= s < group.q

    def test_hash_to_scalar(self, group):
        s = group.hash_to_scalar(b"a", b"b")
        assert 1 <= s < group.q


class TestG1Facade:
    def test_mul_reduces_mod_q(self, group):
        g = group.generator
        assert group.mul(g, group.q + 5) == group.mul(g, 5)

    def test_add_and_negate(self, group, rng):
        p = group.random_point(rng)
        assert group.add(p, group.negate(p)).is_infinity

    def test_random_point_in_group(self, group, rng):
        assert group.in_group(group.random_point(rng))

    def test_point_bytes_fixed_width(self, group, rng):
        p = group.random_point(rng)
        assert len(group.point_to_bytes(p)) == group.point_bytes
        assert len(group.point_to_bytes(group.identity())) == group.point_bytes

    def test_infinity_roundtrip(self, group):
        blob = group.point_to_bytes(group.identity())
        assert group.point_from_bytes(blob).is_infinity

    def test_non_canonical_infinity_rejected(self, group):
        width = group.point_bytes
        for blob in (
            b"\x00",
            b"\x00\xff\xff\xff\xff\xff",
            bytes(width - 1),
            bytes(width + 1),
            bytes(width - 1) + b"\x01",
            b"\x00" + b"\xff" * (width - 1),
        ):
            with pytest.raises(DecodingError):
                group.point_from_bytes(blob)


class TestGTElement:
    def test_mul_div(self, group, rng):
        e = group.pair(group.generator, group.generator)
        a = group.random_scalar(rng)
        assert (e ** a) / (e ** a) == group.gt_identity()
        assert (e ** a) * (e ** (group.q - a)) == group.gt_identity()

    def test_pow_mod_q(self, group):
        e = group.pair(group.generator, group.generator)
        assert e ** group.q == group.gt_identity()
        assert e ** (group.q + 3) == e ** 3

    def test_inverse(self, group):
        e = group.pair(group.generator, group.generator)
        assert (e * e.inverse()).is_identity()

    def test_serialization_roundtrip(self, group):
        e = group.pair(group.generator, group.generator)
        assert group.gt_from_bytes(e.to_bytes()) == e

    def test_cross_group_rejected(self, group, group_b):
        e1 = group.pair(group.generator, group.generator)
        e2 = group_b.pair(group_b.generator, group_b.generator)
        with pytest.raises(GroupMismatchError):
            e1 * e2

    def test_hashable(self, group):
        e = group.pair(group.generator, group.generator)
        assert len({e, e, e ** 2}) == 2


@pytest.fixture(
    scope="module",
    params=[
        (params, family, backend)
        for params in ("toy64", "ss512")
        for family in ("A", "B")
        for backend in available_backends()
    ],
    ids=lambda param: "-".join(param),
)
def fresh_group(request) -> PairingGroup:
    params, family, backend = request.param
    return PairingGroup(params, family=family, backend=backend)


class TestGTMembership:
    """``gt_from_bytes`` rejects every non-GT encoding.

    No pairing is needed: the inputs are built in ``Fp2`` directly, so
    family B at ss512 costs no more than family A.
    """

    def test_accepts_an_order_q_element(self, fresh_group):
        x = fresh_group.ssc.fp2(3, 5)
        member = (x.conjugate() * x.inverse()) ** fresh_group.ssc.cofactor
        assert not member.is_one()
        assert fresh_group.gt_from_bytes(member.to_bytes()).value == member

    def test_rejects_minus_one(self, fresh_group):
        # Unitary with b = 0 and order 2.
        minus_one = fresh_group.ssc.fp2(-1)
        with pytest.raises(NotInSubgroupError):
            fresh_group.gt_from_bytes(minus_one.to_bytes())

    def test_rejects_non_unitary(self, fresh_group):
        for value in (fresh_group.ssc.fp2(2, 3), fresh_group.ssc.fp2(2)):
            assert value.norm() != 1
            with pytest.raises(NotInSubgroupError):
                fresh_group.gt_from_bytes(value.to_bytes())

    def test_rejects_cofactor_order_element(self, fresh_group):
        # conj(x)/x is unitary; its q-th power has order dividing c.
        x = fresh_group.ssc.fp2.random(random.Random(0x6A7E))
        value = (x.conjugate() * x.inverse()) ** fresh_group.q
        assert not value.is_one()
        assert (value * value.conjugate()).is_one()
        with pytest.raises(NotInSubgroupError):
            fresh_group.gt_from_bytes(value.to_bytes())


class TestOpCounters:
    def test_pairing_counted(self):
        g = PairingGroup("toy64")
        g.counters.reset()
        g.pair(g.generator, g.generator)
        assert g.counters.total(PAIRING) == 1

    def test_measure_context(self):
        g = PairingGroup("toy64")
        with g.counters.measure() as delta:
            g.mul(g.generator, 5)
            g.mul(g.generator, 7)
        assert delta[SCALAR_MULT] == 2

    def test_reset(self):
        g = PairingGroup("toy64")
        g.mul(g.generator, 3)
        g.counters.reset()
        assert g.counters.snapshot() == {}
