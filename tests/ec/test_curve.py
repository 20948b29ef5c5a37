"""Unit tests for the generic short Weierstrass curve."""

import random

import pytest

from repro.errors import EncodingError, NotOnCurveError, ParameterError
from repro.ec.curve import EllipticCurve
from repro.math.field import PrimeField
from repro.math.modular import is_quadratic_residue, sqrt_if_square

# A small curve with known order for exhaustive checks:
# y^2 = x^3 + 2x + 3 over F_97.
P = 97
F = PrimeField(P)
CURVE = EllipticCurve(F, F(2), F(3))


def curve_order():
    count = 1  # infinity
    for x in range(P):
        rhs = (x**3 + 2 * x + 3) % P
        if rhs == 0:
            count += 1
        elif pow(rhs, (P - 1) // 2, P) == 1:
            count += 2
    return count


ORDER = curve_order()


def all_points():
    points = [CURVE.infinity()]
    for x in range(P):
        fx = F(x)
        rhs = fx.square() * fx + CURVE.a * fx + CURVE.b
        if rhs.is_zero():
            points.append(CURVE.point(fx, F(0)))
        elif is_quadratic_residue(rhs.value, P):
            y = F(sqrt_if_square(rhs.value, P))
            points.append(CURVE.point(fx, y))
            points.append(CURVE.point(fx, -y))
    return points


class TestConstruction:
    def test_singular_curve_raises(self):
        with pytest.raises(ParameterError):
            EllipticCurve(F, F(0), F(0))

    def test_point_validation(self):
        with pytest.raises(NotOnCurveError):
            CURVE.point(F(1), F(1))

    def test_contains(self):
        point = CURVE.random_point(random.Random(0))
        assert CURVE.contains(point.x, point.y)

    def test_point_from_x(self):
        point = CURVE.random_point(random.Random(1))
        lifted = CURVE.point_from_x(point.x, point.y.value % 2)
        assert lifted == point

    def test_point_from_x_non_residue_raises(self):
        for x in range(P):
            fx = F(x)
            rhs = fx.square() * fx + CURVE.a * fx + CURVE.b
            if not rhs.is_zero() and not is_quadratic_residue(rhs.value, P):
                with pytest.raises(NotOnCurveError):
                    CURVE.point_from_x(fx)
                return
        pytest.skip("no non-residue x on this curve")


class TestGroupLaw:
    def test_identity(self):
        o = CURVE.infinity()
        p = CURVE.random_point(random.Random(2))
        assert p + o == p
        assert o + p == p
        assert o + o == o

    def test_inverse(self):
        p = CURVE.random_point(random.Random(3))
        assert (p + (-p)).is_infinity
        assert p - p == CURVE.infinity()

    def test_commutative_exhaustive_sample(self):
        pts = all_points()[:20]
        for a in pts:
            for b in pts:
                assert a + b == b + a

    def test_associative_sample(self):
        pts = all_points()
        rng = random.Random(4)
        for _ in range(50):
            a, b, c = (rng.choice(pts) for _ in range(3))
            assert (a + b) + c == a + (b + c)

    def test_order_annihilates(self):
        for point in all_points()[:25]:
            assert (point * ORDER).is_infinity

    def test_double_matches_add(self):
        p = CURVE.random_point(random.Random(5))
        assert p.double() == p + p

    def test_two_torsion_doubling(self):
        # A point with y == 0 doubles to infinity.
        for x in range(P):
            fx = F(x)
            rhs = fx.square() * fx + CURVE.a * fx + CURVE.b
            if rhs.is_zero():
                point = CURVE.point(fx, F(0))
                assert point.double().is_infinity
                return
        pytest.skip("curve has no 2-torsion over Fp")


class TestScalarMult:
    def test_zero_and_one(self):
        p = CURVE.random_point(random.Random(6))
        assert (p * 0).is_infinity
        assert p * 1 == p

    def test_negative_scalar(self):
        p = CURVE.random_point(random.Random(7))
        assert p * -3 == -(p * 3)

    def test_matches_repeated_addition(self):
        p = CURVE.random_point(random.Random(8))
        acc = CURVE.infinity()
        for k in range(25):
            assert p * k == acc
            acc = acc + p

    def test_jacobian_matches_affine(self):
        rng = random.Random(9)
        for _ in range(10):
            p = CURVE.random_point(rng)
            k = rng.randrange(1, 10_000)
            assert p * k == p.affine_scalar_mult(k)

    def test_distributivity(self):
        rng = random.Random(10)
        p = CURVE.random_point(rng)
        a, b = rng.randrange(500), rng.randrange(500)
        assert p * a + p * b == p * (a + b)

    def test_multi_scalar_mult(self):
        rng = random.Random(11)
        pairs = [(rng.randrange(1, 200), CURVE.random_point(rng)) for _ in range(4)]
        expected = CURVE.infinity()
        for k, point in pairs:
            expected = expected + point * k
        assert CURVE.multi_scalar_mult(pairs) == expected

    def test_multi_scalar_mult_empty(self):
        assert CURVE.multi_scalar_mult([]).is_infinity

    def test_multi_scalar_mult_negative(self):
        rng = random.Random(12)
        p = CURVE.random_point(rng)
        assert CURVE.multi_scalar_mult([(-3, p)]) == p * -3


class TestSerialization:
    def test_roundtrip(self):
        p = CURVE.random_point(random.Random(13))
        assert CURVE.point_from_bytes(p.to_bytes()) == p

    def test_infinity_roundtrip(self):
        assert CURVE.point_from_bytes(CURVE.infinity().to_bytes()).is_infinity

    def test_bad_prefix_raises(self):
        with pytest.raises(EncodingError):
            CURVE.point_from_bytes(b"\x05" + b"\x00" * 2)

    def test_not_on_curve_rejected(self):
        bad = b"\x04" + F(1).to_bytes() + F(1).to_bytes()
        with pytest.raises(NotOnCurveError):
            CURVE.point_from_bytes(bad)

    def test_hashable(self):
        rng = random.Random(14)
        p = CURVE.random_point(rng)
        while p.y.is_zero():  # avoid 2-torsion, where p == -p
            p = CURVE.random_point(rng)
        assert len({p, p, -p}) == 2
