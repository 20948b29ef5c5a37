"""Correctness of the modified Tate pairing on both families."""

import random

import pytest

from repro.errors import NotInSubgroupError
from repro.math.quadratic import unitary_exp
from repro.pairing.api import PairingGroup
from repro.pairing.miller import miller_loop_general
from repro.pairing.params import get_parameter_set
from repro.pairing.supersingular import SupersingularCurve
from repro.pairing.tate import TatePairing


class TestPairingProperties:
    def test_non_degenerate(self, any_group):
        e = any_group.pair(any_group.generator, any_group.generator)
        assert not e.is_identity()

    def test_gt_order_q(self, any_group):
        e = any_group.pair(any_group.generator, any_group.generator)
        assert (e ** any_group.q).is_identity()

    def test_bilinearity_left(self, any_group, rng):
        g = any_group.generator
        a = any_group.random_scalar(rng)
        assert any_group.pair(g * a, g) == any_group.pair(g, g) ** a

    def test_bilinearity_right(self, any_group, rng):
        g = any_group.generator
        b = any_group.random_scalar(rng)
        assert any_group.pair(g, g * b) == any_group.pair(g, g) ** b

    def test_bilinearity_joint(self, any_group, rng):
        g = any_group.generator
        a, b = any_group.random_scalar(rng), any_group.random_scalar(rng)
        assert (
            any_group.pair(g * a, g * b)
            == any_group.pair(g, g) ** (a * b % any_group.q)
        )

    def test_symmetry(self, any_group, rng):
        # Type-1 pairings built from a distortion map are symmetric.
        g = any_group.generator
        p = g * any_group.random_scalar(rng)
        q = g * any_group.random_scalar(rng)
        assert any_group.pair(p, q) == any_group.pair(q, p)

    def test_infinity_maps_to_identity(self, any_group):
        o = any_group.identity()
        g = any_group.generator
        assert any_group.pair(o, g).is_identity()
        assert any_group.pair(g, o).is_identity()

    def test_hashed_points_pair_consistently(self, any_group, rng):
        h = any_group.hash_to_g1(b"release-time")
        a = any_group.random_scalar(rng)
        g = any_group.generator
        assert any_group.pair(h * a, g) == any_group.pair(h, g * a)

    def test_pairing_inverse(self, any_group, rng):
        g = any_group.generator
        a = any_group.random_scalar(rng)
        e = any_group.pair(g, g * a)
        assert (e * any_group.pair(g, -(g * a))).is_identity()

    def test_wrong_curve_input_rejected(self, group, group_b):
        with pytest.raises(NotInSubgroupError):
            group.pair(group.generator, group_b.generator)

    def test_ddh_oracle(self, any_group, rng):
        # The pairing solves DDH in G1 (the Gap property from §4).
        g = any_group.generator
        a, b = any_group.random_scalar(rng), any_group.random_scalar(rng)
        good = g * (a * b % any_group.q)
        bad = g * ((a * b + 1) % any_group.q)
        assert any_group.pair(g * a, g * b) == any_group.pair(g, good)
        assert any_group.pair(g * a, g * b) != any_group.pair(g, bad)


class TestMillerVariantsAgree:
    def test_general_matches_denominator_free_on_family_a(self):
        """The general divisor evaluation and the BKLS shortcut must give
        the same reduced pairing value on family A."""
        params = get_parameter_set("toy64")
        ssc = SupersingularCurve(params, "A")
        tate = TatePairing(ssc)
        general_aux = TatePairing.__new__(TatePairing)
        general_aux.ssc = ssc
        general_aux.fp2 = ssc.fp2
        general_aux._aux_points = general_aux._derive_aux_points()

        rng = random.Random(17)
        for _ in range(3):
            p = ssc.generator * rng.randrange(1, params.q)
            q_pt = ssc.generator * rng.randrange(1, params.q)
            fast = tate.pair(p, q_pt)
            s_point = ssc.distort(q_pt)
            f = miller_loop_general(
                p, s_point, params.q, ssc.fp2, general_aux._aux_points[0]
            )
            slow = tate.final_exponentiation(f)
            assert fast == slow


class TestUnitaryPow:
    def test_matches_plain_pow(self, group, rng):
        e = group.pair(group.generator, group.generator)
        value = e.value
        for exponent in (0, 1, 2, 3, 17, 1 << 20, group.q - 1):
            assert unitary_exp(value, exponent) == value ** exponent

    def test_negative_exponent(self, group):
        e = group.pair(group.generator, group.generator).value
        assert unitary_exp(e, -5) == (e ** 5).inverse()

    def test_identity_base(self, group):
        one = group.ssc.fp2.one()
        assert unitary_exp(one, 123456) == one


class TestAcrossParameterSets:
    @pytest.mark.parametrize("name", ["toy64", "ss512"])
    def test_bilinearity(self, name):
        g = PairingGroup(name, family="A")
        rng = random.Random(5)
        a, b = g.random_scalar(rng), g.random_scalar(rng)
        gen = g.generator
        assert g.pair(gen * a, gen * b) == g.pair(gen, gen) ** (a * b % g.q)
