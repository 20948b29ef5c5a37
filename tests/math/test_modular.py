"""Unit tests for repro.math.modular and its oracles in tests.math.reference."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParameterError
from repro.math import modular
from repro.math.modular import cube_root_mod, is_quadratic_residue, sqrt_if_square
from repro.pairing.params import get_parameter_set
from tests.math.reference import (
    egcd,
    inverse_mod,
    jacobi_symbol,
    sqrt_if_square_ungated,
)

P_3MOD4 = 10007          # prime, 10007 % 4 == 3
P_1MOD4 = 10009          # prime, 10009 % 4 == 1
P_2MOD3 = 10007          # 10007 % 3 == 2
P_TOY64 = get_parameter_set("toy64").p    # % 4 == 3
P_SS512 = get_parameter_set("ss512").p    # % 4 == 3
P_25519 = 2**255 - 19    # prime, % 4 == 1: the Tonelli–Shanks path
PRIMES = [P_3MOD4, P_1MOD4, P_TOY64, P_SS512, P_25519]
# Composite moduli that are 3 (mod 4), as a PrimeField(check_prime=False)
# may hold: a Jacobi symbol of +1 proves nothing there.
COMPOSITES_3MOD4 = [P_3MOD4 * P_1MOD4, P_SS512 * P_1MOD4]
GATE_MODULI = [P_TOY64, P_SS512, P_25519] + COMPOSITES_3MOD4
ANY_INT = st.one_of(st.integers(), st.integers(0, 2**1100))


class TestEgcd:
    def test_basic(self):
        g, x, y = egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == 2

    def test_coprime(self):
        g, x, y = egcd(17, 31)
        assert g == 1
        assert 17 * x + 31 * y == 1

    def test_zero(self):
        assert egcd(0, 5)[0] == 5
        assert egcd(5, 0)[0] == 5

    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g
        assert a % g == 0 and b % g == 0


class TestInverseMod:
    def test_simple(self):
        assert inverse_mod(3, 7) == 5

    def test_inverse_of_one(self):
        assert inverse_mod(1, 97) == 1

    def test_zero_raises(self):
        with pytest.raises(ParameterError):
            inverse_mod(0, 7)

    def test_non_invertible_raises(self):
        with pytest.raises(ParameterError):
            inverse_mod(6, 9)

    def test_reduces_input(self):
        assert inverse_mod(10, 7) == inverse_mod(3, 7)

    @given(st.integers(1, P_3MOD4 - 1))
    def test_roundtrip(self, a):
        assert a * inverse_mod(a, P_3MOD4) % P_3MOD4 == 1


class TestJacobiSymbol:
    def test_squares_are_residues(self):
        for a in range(1, 50):
            assert jacobi_symbol(a * a % P_3MOD4, P_3MOD4) == 1

    def test_zero(self):
        assert jacobi_symbol(0, 7) == 0
        assert jacobi_symbol(14, 7) == 0

    def test_even_n_raises(self):
        with pytest.raises(ParameterError):
            jacobi_symbol(3, 8)

    def test_matches_euler_criterion(self):
        p = P_1MOD4
        for a in range(1, 60):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert jacobi_symbol(a, p) == expected

    @given(st.integers(0, 10**6))
    def test_oracle_for_is_quadratic_residue(self, a):
        for p in (P_3MOD4, P_1MOD4):
            assert is_quadratic_residue(a, p) == (jacobi_symbol(a, p) == 1)


class TestBinaryJacobi:
    """The library's binary Jacobi symbol against Euler's criterion on
    primes and against the reciprocity oracle on any odd modulus."""

    @pytest.mark.parametrize("p", PRIMES)
    @given(a=ANY_INT)
    def test_matches_euler_criterion(self, p, a):
        euler = pow(a, (p - 1) // 2, p)
        assert modular.jacobi_symbol(a, p) == (-1 if euler == p - 1 else euler)

    @given(a=ANY_INT, n=st.integers(1, 2**600))
    def test_matches_oracle_on_odd_moduli(self, a, n):
        n |= 1
        assert modular.jacobi_symbol(a, n) == jacobi_symbol(a, n)

    @pytest.mark.parametrize("n", [0, -7, 8, 2])
    def test_rejects_even_or_nonpositive(self, n):
        with pytest.raises(ParameterError):
            modular.jacobi_symbol(3, n)


class TestSqrtGate:
    """``sqrt_if_square`` answers ``None`` on a Jacobi symbol of ``-1``
    before its exponentiation; every root or ``None`` stays what the
    ungated function of ``tests/math/reference.py`` returns."""

    @pytest.mark.parametrize("modulus", GATE_MODULI)
    @given(a=ANY_INT)
    def test_same_root_or_none(self, modulus, a):
        for value in (a, a * a):
            assert modular.sqrt_if_square(value, modulus) == (
                sqrt_if_square_ungated(value, modulus)
            )

    @pytest.mark.parametrize("modulus", GATE_MODULI)
    def test_edge_cases(self, modulus):
        for a in (0, 1, modulus - 1, modulus, 5 * modulus, -modulus,
                  modulus + 1, modulus * modulus, -1):
            assert modular.sqrt_if_square(a, modulus) == (
                sqrt_if_square_ungated(a, modulus)
            )
        assert modular.sqrt_if_square(0, modulus) == 0
        assert modular.sqrt_if_square(3 * modulus, modulus) == 0
        assert modular.sqrt_if_square(1, modulus) == 1

    @pytest.mark.parametrize("p", [P_3MOD4, P_TOY64, P_SS512])
    def test_minus_one_is_no_square(self, p):
        assert modular.sqrt_if_square(p - 1, p) is None


class TestSqrtMod:
    @pytest.mark.parametrize("p", [P_3MOD4, P_1MOD4, 2**255 - 19])
    def test_roundtrip(self, p):
        for a in range(2, 40):
            square = a * a % p
            root = sqrt_if_square(square, p)
            assert root * root % p == square

    def test_zero(self):
        assert sqrt_if_square(0, P_3MOD4) == 0

    def test_non_residue_has_no_root(self):
        for p in (P_3MOD4, P_1MOD4):
            non_residues = [a for a in range(2, 200) if not is_quadratic_residue(a, p)]
            assert non_residues
            assert all(sqrt_if_square(a, p) is None for a in non_residues)

    def test_canonical_root(self):
        p = P_1MOD4
        root = sqrt_if_square(4, p)
        assert root == min(root, p - root)

    @given(st.integers(1, P_1MOD4 - 1))
    def test_tonelli_shanks_property(self, a):
        square = a * a % P_1MOD4
        root = sqrt_if_square(square, P_1MOD4)
        assert root * root % P_1MOD4 == square


class TestCubeRootMod:
    def test_roundtrip(self):
        p = P_2MOD3
        for a in range(50):
            root = cube_root_mod(a, p)
            assert pow(root, 3, p) == a % p

    def test_bijection(self):
        p = 11  # 11 % 3 == 2
        roots = {cube_root_mod(a, p) for a in range(p)}
        assert roots == set(range(p))

    def test_wrong_congruence_raises(self):
        with pytest.raises(ParameterError):
            cube_root_mod(5, 13)  # 13 % 3 == 1

