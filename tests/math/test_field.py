"""Unit and property tests for the prime field Fp."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError, FieldMismatchError, ParameterError
from repro.math.field import PrimeField
from repro.math.modular import is_quadratic_residue, sqrt_if_square

P = 10007
F = PrimeField(P)
F2 = PrimeField(10009)

elements = st.integers(0, P - 1).map(F)
nonzero = st.integers(1, P - 1).map(F)


class TestConstruction:
    def test_non_prime_modulus_raises(self):
        with pytest.raises(ParameterError):
            PrimeField(10)

    def test_check_prime_skip(self):
        # Used internally for the big frozen parameters.
        PrimeField(10, check_prime=False)

    def test_reduction(self):
        assert F(P + 3).value == 3
        assert F(-1).value == P - 1

    def test_equality_of_fields(self):
        assert F == PrimeField(P)
        assert F != F2


class TestArithmetic:
    def test_add_sub(self):
        assert F(5) + F(4) == F(9)
        assert F(5) - F(9) == F(P - 4)
        assert F(5) + 4 == 9
        assert 4 + F(5) == F(9)
        assert 9 - F(5) == F(4)

    def test_mul_div(self):
        assert F(3) * F(4) == 12
        assert F(12) / F(4) == 3
        assert 12 / F(4) == F(3)

    def test_neg(self):
        assert -F(3) == F(P - 3)
        assert -F(0) == F(0)

    def test_pow(self):
        assert F(2) ** 10 == 1024
        assert F(2) ** 0 == 1
        assert F(2) ** -1 == F(2).inverse()
        assert F(3) ** (P - 1) == 1  # Fermat.

    def test_inverse_zero_raises(self):
        with pytest.raises(ParameterError):
            F(0).inverse()

    def test_field_mismatch_raises(self):
        with pytest.raises(FieldMismatchError):
            F(1) + F2(1)

    def test_unsupported_operand(self):
        with pytest.raises(TypeError):
            F(1) + "x"

    @given(elements, elements, elements)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(nonzero)
    def test_inverse_roundtrip(self, a):
        assert a * a.inverse() == F(1)
        assert (a ** -2) * a * a == F(1)

    @given(elements)
    def test_square_consistency(self, a):
        assert a.square() == a * a


class TestSqrtAndCubeRoot:
    @given(nonzero)
    def test_sqrt_of_square(self, a):
        sq = a.square()
        root = F(sqrt_if_square(sq.value, P))
        assert root.square() == sq

    def test_is_square(self):
        assert is_quadratic_residue(F(4).value, P)
        assert sqrt_if_square(F(0).value, P) == 0

    def test_cube_root(self):
        # 10007 % 3 == 2 so cubing is a bijection.
        for v in (0, 1, 2, 77, 9999):
            assert F(v).cube_root() ** 3 == v


class TestSerialization:
    @given(elements)
    def test_roundtrip(self, a):
        assert F.from_bytes(a.to_bytes()) == a

    def test_fixed_width(self):
        assert len(F(0).to_bytes()) == F.element_bytes
        assert len(F(P - 1).to_bytes()) == F.element_bytes

    def test_bad_length_raises(self):
        with pytest.raises(EncodingError):
            F.from_bytes(b"\x00" * (F.element_bytes + 1))

    def test_overflow_raises(self):
        too_big = (P + 1).to_bytes(F.element_bytes, "big")
        with pytest.raises(EncodingError):
            F.from_bytes(too_big)

    def test_hashable(self):
        assert len({F(1), F(1), F(2)}) == 2

    def test_random_in_range(self):
        import random

        rng = random.Random(4)
        for _ in range(20):
            assert 0 <= F.random(rng).value < P
