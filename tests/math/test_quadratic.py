"""Unit and property tests for the quadratic extension Fp2."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EncodingError, FieldMismatchError, ParameterError
from repro.math.backend import available_backends
from repro.math.field import PrimeField
from repro.math.quadratic import QuadraticField, unitary_exp
from repro.pairing.params import PARAMETER_SETS, get_parameter_set
from repro.pairing.supersingular import FAMILY_A, FAMILY_B, SupersingularCurve

P = 10007  # P % 4 == 3 and P % 3 == 2: both betas available.
BASE = PrimeField(P)
FQ2_M1 = QuadraticField(BASE, -1)
FQ2_M3 = QuadraticField(BASE, -3)

coeffs = st.integers(0, P - 1)
elements = st.tuples(coeffs, coeffs).map(lambda ab: FQ2_M1(*ab))
nonzero = elements.filter(lambda e: not e.is_zero())


class TestConstruction:
    def test_residue_beta_raises(self):
        with pytest.raises(ParameterError):
            QuadraticField(BASE, 4)

    def test_u_squares_to_beta(self):
        assert FQ2_M1.u().square() == FQ2_M1(-1 % P, 0)
        assert FQ2_M3.u().square() == FQ2_M3(-3 % P, 0)

    def test_order(self):
        assert FQ2_M1.order() == P * P

    def test_from_base(self):
        assert FQ2_M1.from_base(BASE(7)) == FQ2_M1(7, 0)
        assert FQ2_M1.from_base(7).in_base_field()


class TestArithmetic:
    def test_known_product(self):
        # (1 + 2u)(3 + 4u) with u^2 = -1: 3 + 4u + 6u - 8 = -5 + 10u
        assert FQ2_M1(1, 2) * FQ2_M1(3, 4) == FQ2_M1(-5 % P, 10)

    def test_mixing_betas_raises(self):
        with pytest.raises(FieldMismatchError):
            FQ2_M1(1, 1) + FQ2_M3(1, 1)

    def test_int_and_base_coercion(self):
        assert FQ2_M1(2, 3) + 1 == FQ2_M1(3, 3)
        assert 2 * FQ2_M1(2, 3) == FQ2_M1(4, 6)
        assert FQ2_M1(2, 3) - BASE(2) == FQ2_M1(0, 3)
        assert 5 / FQ2_M1(5, 0) == FQ2_M1(1, 0)

    @given(elements, elements, elements)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a

    @given(nonzero)
    def test_inverse(self, a):
        assert a * a.inverse() == FQ2_M1.one()

    @given(elements)
    def test_square_matches_mul(self, a):
        assert a.square() == a * a

    @given(nonzero, st.integers(0, 2**64))
    def test_pow_matches_repeated_mul_small(self, a, e):
        e_small = e % 16
        expected = FQ2_M1.one()
        for _ in range(e_small):
            expected = expected * a
        assert a ** e_small == expected

    def test_zero_inverse_raises(self):
        with pytest.raises(ParameterError):
            FQ2_M1.zero().inverse()


class TestFrobeniusAndNorm:
    @given(elements)
    def test_conjugate_is_frobenius(self, a):
        assert a.conjugate() == a ** P

    @given(elements)
    def test_norm_multiplicative(self, a):
        b = FQ2_M1(3, 4)
        assert (a * b).norm() == a.norm() * b.norm() % P

    @given(nonzero)
    def test_unitary_inverse(self, a):
        """For a unitary element the conjugate is the inverse."""
        unit = a.conjugate() * a.inverse()  # norm 1 by construction
        assert unit.norm() == 1
        assert unit * unit.conjugate() == FQ2_M1.one()


class TestSerialization:
    @given(elements)
    def test_roundtrip(self, a):
        assert FQ2_M1.from_bytes(a.to_bytes()) == a

    def test_fixed_width(self):
        assert len(FQ2_M1(1, 2).to_bytes()) == FQ2_M1.element_bytes

    def test_bad_length_raises(self):
        with pytest.raises(EncodingError):
            FQ2_M1.from_bytes(b"\x01")

    def test_overflow_raises(self):
        bad = (P + 1).to_bytes(BASE.element_bytes, "big") * 2
        with pytest.raises(EncodingError):
            FQ2_M1.from_bytes(bad)

    def test_hashable(self):
        assert len({FQ2_M1(1, 2), FQ2_M1(1, 2), FQ2_M1(2, 1)}) == 2

    def test_cube_root_of_unity_in_m3(self):
        inv2 = pow(2, -1, P)
        zeta = FQ2_M3((P - 1) * inv2 % P, inv2)
        assert zeta ** 3 == FQ2_M3.one()
        assert zeta != FQ2_M3.one()


class TestSmallBeta:
    """``beta`` is stored as its signed representative of least absolute
    value: ``QuadraticField(base, p - 1)`` and ``QuadraticField(base, -1)``
    are one field, with ``beta == -1``, so ``beta * x`` is a
    small-integer multiply."""

    @pytest.mark.parametrize("beta", [-1, -3])
    def test_both_constructions_are_one_field(self, beta):
        residue = QuadraticField(BASE, P + beta)
        signed = QuadraticField(BASE, beta)
        assert residue == signed
        assert hash(residue) == hash(signed)
        assert residue.beta == signed.beta == beta
        assert repr(residue).endswith(f"beta={beta})")

    def test_small_positive_beta_kept(self):
        assert QuadraticField(BASE, 5).beta == 5

    @pytest.mark.parametrize("name", sorted(PARAMETER_SETS))
    @pytest.mark.parametrize("family", [FAMILY_A, FAMILY_B])
    def test_parameter_sets_store_small_beta(self, name, family):
        curve = SupersingularCurve(get_parameter_set(name), family)
        assert curve.fp2.beta == (-1 if family == FAMILY_A else -3)


def _oracle_mul(x, y, beta, p):
    """``(a + bu)(c + du)`` with ``u^2`` the canonical residue ``beta % p``."""
    a, b = x
    c, d = y
    return (a * c + beta % p * b * d) % p, (a * d + b * c) % p


# Both moduli have p % 4 == 3 and p % 3 == 2, so -1 and -3 are
# non-residues of each.
_BETA_FIELDS = [
    (p, beta, backend)
    for p in (P, get_parameter_set("ss512").p)
    for beta in (-1, -3)
    for backend in available_backends()
]


@pytest.mark.parametrize(
    "p, beta, backend", _BETA_FIELDS,
    ids=[f"p{p.bit_length()}-beta{beta}-{b}" for p, beta, b in _BETA_FIELDS],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_constructions_agree(p, beta, backend, data):
    """``*``, ``square``, ``norm``, ``inverse`` and ``unitary_exp`` give
    the same canonical ints under ``beta`` and ``p + beta``, and match a
    textbook product that multiplies by the residue ``beta % p``."""
    base = PrimeField(p, backend=backend)
    fields = (QuadraticField(base, beta), QuadraticField(base, p + beta))
    coeff = st.integers(0, p - 1)
    x = (data.draw(coeff), data.draw(coeff))
    y = (data.draw(coeff), data.draw(coeff))
    exponent = data.draw(st.integers(-(2**64), 2**64))
    results = []
    for field in fields:
        fx, fy = field(*x), field(*y)
        product = fx * fy
        square = fx.square()
        row = [(product.a, product.b), (square.a, square.b), fx.norm()]
        if not fx.is_zero():
            inverse = fx.inverse()
            unit = fx.conjugate() * inverse  # norm 1 by construction
            power = unitary_exp(unit, exponent)
            row += [(inverse.a, inverse.b), (power.a, power.b)]
            assert (inverse * fx).is_one()
            assert power == unit ** exponent
        results.append(row)
    assert results[0] == results[1]
    assert results[0][0] == _oracle_mul(x, y, beta, p)
    assert results[0][1] == _oracle_mul(x, x, beta, p)
    assert results[0][2] == (x[0] * x[0] - beta % p * x[1] * x[1]) % p
