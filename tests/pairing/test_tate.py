"""Correctness of the modified Tate pairing on both families."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotInSubgroupError, ParameterError
from repro.math.backend import available_backends
from repro.math.quadratic import unitary_exp
from repro.pairing import hashing
from repro.pairing.api import PairingGroup
from repro.pairing.miller import PrecomputedLines, evaluate_line_sequences_product
from repro.pairing.params import get_parameter_set
from repro.pairing.supersingular import SupersingularCurve
from repro.pairing.tate import TatePairing
from tests.pairing.reference import general_miller, miller_loop_projective_binary


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


class TestFirstArgumentOutsideSubgroup:
    """A first argument whose order does not divide ``q`` raises on every
    entry point, as it did when every family-A pairing recorded lines;
    infinity arguments still give the identity."""

    ORDER_ERROR = "point order does not divide the loop order"

    @pytest.fixture(params=available_backends())
    def setup(self, request):
        g = PairingGroup("toy64", family="A", backend=request.param)
        fp = g.ssc.fp
        bad = [
            g.ssc.curve.point(fp(0), fp(0)),  # order 2 on y^2 = x^3 + x
            hashing.hash_to_curve_point(g.ssc, b"not cofactor-cleared"),
        ]
        return g, bad

    def test_pair_raises(self, setup):
        g, bad = setup
        for point in bad:
            with pytest.raises(ParameterError, match=self.ORDER_ERROR):
                g.tate.pair(point, g.generator)
            with pytest.raises(ParameterError, match=self.ORDER_ERROR):
                g.pair(point, g.generator)

    def test_multi_pair_raises(self, setup):
        g, bad = setup
        gen = g.generator
        lines = g.tate.precompute_lines(gen)
        for point in bad:
            for pairs, exponents in (
                ([(point, gen)], [1]),
                ([(point, gen)], [-1]),
                ([(gen, gen), (point, gen)], [1, -1]),
                ([(lines, gen), (point, gen)], [-1, 1]),
            ):
                with pytest.raises(ParameterError, match=self.ORDER_ERROR):
                    g.tate.multi_pair(pairs, exponents)

    def test_infinity_still_gives_identity(self, setup):
        g, bad = setup
        o = g.identity()
        one = g.ssc.fp2.one()
        for point in (g.generator, *bad):
            assert g.tate.pair(o, point) == one
            assert g.tate.pair(point, o) == one
            assert g.pair(o, point).is_identity()
            assert g.tate.multi_pair([(point, o), (o, point)], [1, -1]) == one
        lines = g.tate.precompute_lines(g.generator)
        assert g.tate.multi_pair([(lines, o)]) == one
        assert g.tate.multi_pair([]) == one


_GROUPS = {}


def _cached_group(name, backend, family):
    key = (name, backend, family)
    if key not in _GROUPS:
        _GROUPS[key] = PairingGroup(name, family=family, backend=backend)
    return _GROUPS[key]


def _binary_product(group, pairs, exponents):
    """``Π ê(P_i, Q_i)^{e_i}`` with the raw pairs on the binary one-shot
    loop of ``tests/pairing/reference.py`` and the recorded ones on the
    replay product, infinity pairs skipped, one final exponentiation."""
    raw, recorded = [], []
    for (first, q_point), exponent in zip(pairs, exponents):
        if isinstance(first, PrecomputedLines):
            if not q_point.is_infinity:
                recorded.append(
                    (first, group.ssc.distort(q_point), exponent < 0)
                )
        elif not (first.is_infinity or q_point.is_infinity):
            raw.append((first, q_point, exponent < 0))
    fp2 = group.ssc.fp2
    return group.tate.final_exponentiation(
        miller_loop_projective_binary(raw, group.q, fp2)
        * evaluate_line_sequences_product(recorded, fp2)
    )


def _oracle_product(group, pairs, exponents):
    """``Π ê(P_i, Q_i)^{e_i}`` from the divisor-loop oracle: each Miller
    value conjugated where ``e_i == -1``, infinity pairs skipped, one
    final exponentiation."""
    value = group.ssc.fp2.one()
    for (p_point, q_point), exponent in zip(pairs, exponents):
        if p_point.is_infinity or q_point.is_infinity:
            continue
        f = general_miller(group.ssc, p_point, q_point)
        value = value * (f.conjugate() if exponent < 0 else f)
    return group.tate.final_exponentiation(value)


class TestMillerVariantsAgree:
    """The runtime loop against the affine divisor loop of
    ``tests/pairing/reference.py``, which keeps every vertical line and
    evaluates at ``(phi(Q) + R) - (R)``: equal after the final
    exponentiation."""

    ORDER_ERROR = "point order does not divide the loop order"

    def test_general_matches_denominator_free_on_family_a(self):
        """The general divisor evaluation and the BKLS shortcut must give
        the same reduced pairing value on family A."""
        params = get_parameter_set("toy64")
        ssc = SupersingularCurve(params, "A")
        tate = TatePairing(ssc)
        rng = random.Random(17)
        for _ in range(3):
            p = ssc.generator * rng.randrange(1, params.q)
            q_pt = ssc.generator * rng.randrange(1, params.q)
            fast = tate.pair(p, q_pt)
            slow = tate.final_exponentiation(general_miller(ssc, p, q_pt))
            assert fast == slow

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name", ["toy64", "ss512"])
    @settings(max_examples=10, deadline=None)
    @given(
        scalars=st.lists(st.integers(1, 2**62), min_size=4, max_size=4),
        signs=st.lists(st.sampled_from([1, -1]), min_size=2, max_size=2),
    )
    def test_family_b_matches_divisor_oracle(self, name, backend, scalars, signs):
        """Family B's fused loop, with its conjugated verticals, gives
        the oracle's pairing for one pair and for a ``multi_pair`` with
        mixed exponents and infinity arguments, on every backend."""
        group = _cached_group(name, backend, "B")
        p1, q1, p2, q2 = (group.generator * k for k in scalars)
        assert group.tate.pair(p1, q1) == _oracle_product(
            group, [(p1, q1)], [1]
        )
        o = group.identity()
        pairs = [(p1, q1), (o, q2), (p2, q2), (q1, o)]
        exponents = [signs[0], -1, signs[1], 1]
        assert group.tate.multi_pair(pairs, exponents) == _oracle_product(
            group, pairs, exponents
        )

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("name", ["toy64", "ss512"])
    @settings(max_examples=10, deadline=None)
    @given(
        scalars=st.lists(st.integers(1, 2**62), min_size=4, max_size=4),
        signs=st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3),
    )
    def test_naf_loop_matches_binary_oracle(
        self, name, family, backend, scalars, signs
    ):
        """The one-shot loop walks ``q`` in non-adjacent form; ``pair``
        and ``multi_pair`` give the binary loop's bytes, with mixed
        exponents, infinity arguments and (family A) recorded lines of
        the same points in one product."""
        group = _cached_group(name, backend, family)
        p1, q1, p2, q2 = (group.generator * k for k in scalars)
        assert group.tate.pair(p1, q1).to_bytes() == _binary_product(
            group, [(p1, q1)], [1]
        ).to_bytes()
        o = group.identity()
        pairs = [(p1, q1), (o, q2), (p2, q2), (q1, o), (q2, p1)]
        exponents = [signs[0], -1, signs[1], 1, signs[2]]
        if family == "A":
            lines = group.tate.precompute_lines(p2)
            pairs += [(lines, q1), (lines, o)]
            exponents += [-signs[1], 1]
        assert group.tate.multi_pair(pairs, exponents).to_bytes() == (
            _binary_product(group, pairs, exponents).to_bytes()
        )

    @pytest.mark.parametrize("backend", available_backends())
    def test_family_b_wrong_order_rejected(self, backend):
        group = _cached_group("toy64", backend, "B")
        fp, gen, o = group.ssc.fp, group.generator, group.identity()
        one = group.ssc.fp2.one()
        bad = [
            group.ssc.curve.point(fp(group.ssc.p - 1), fp(0)),  # order 2
            hashing.hash_to_curve_point(group.ssc, b"not cofactor-cleared"),
        ]
        for point in bad:
            with pytest.raises(ParameterError, match=self.ORDER_ERROR):
                group.tate.pair(point, gen)
            with pytest.raises(ParameterError, match=self.ORDER_ERROR):
                group.tate.multi_pair([(gen, gen), (point, gen)], [1, -1])
            assert group.tate.pair(o, point) == one
            assert group.tate.pair(point, o) == one


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
