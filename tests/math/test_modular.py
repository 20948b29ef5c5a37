"""Unit tests for repro.math.modular and its oracles in tests.math.reference."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParameterError
from repro.math.modular import cube_root_mod, is_quadratic_residue, sqrt_mod
from tests.math.reference import egcd, inverse_mod, jacobi_symbol

P_3MOD4 = 10007          # prime, 10007 % 4 == 3
P_1MOD4 = 10009          # prime, 10009 % 4 == 1
P_2MOD3 = 10007          # 10007 % 3 == 2


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


class TestSqrtMod:
    @pytest.mark.parametrize("p", [P_3MOD4, P_1MOD4, 2**255 - 19])
    def test_roundtrip(self, p):
        for a in range(2, 40):
            square = a * a % p
            root = sqrt_mod(square, p)
            assert root * root % p == square

    def test_zero(self):
        assert sqrt_mod(0, P_3MOD4) == 0

    def test_non_residue_raises(self):
        # Find a non-residue and check the error path.
        p = P_3MOD4
        for a in range(2, p):
            if not is_quadratic_residue(a, p):
                with pytest.raises(ParameterError):
                    sqrt_mod(a, p)
                break

    def test_canonical_root(self):
        p = P_1MOD4
        root = sqrt_mod(4, p)
        assert root == min(root, p - root)

    @given(st.integers(1, P_1MOD4 - 1))
    def test_tonelli_shanks_property(self, a):
        square = a * a % P_1MOD4
        root = sqrt_mod(square, P_1MOD4)
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

