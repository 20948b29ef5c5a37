"""Unit tests for repro.math.primes."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.math.primes import is_probable_prime, random_prime

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 10007, 2**31 - 1, 2**61 - 1, 2**127 - 1]
KNOWN_COMPOSITES = [1, 0, -7, 4, 100, 561, 1105, 2**31, 2**61 - 2]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341]


class TestIsProbablePrime:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_known_composites(self, n):
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("n", CARMICHAEL)
    def test_carmichael_numbers_rejected(self, n):
        assert not is_probable_prime(n)

    def test_large_prime(self):
        # 2^521 - 1 is a Mersenne prime.
        assert is_probable_prime(2**521 - 1)
        assert not is_probable_prime(2**521 - 3)

    @given(st.integers(4, 10**6))
    def test_agrees_with_trial_division(self, n):
        def trial(n):
            if n < 2:
                return False
            d = 2
            while d * d <= n:
                if n % d == 0:
                    return False
                d += 1
            return True

        assert is_probable_prime(n) == trial(n)


class TestRandomPrime:
    def test_bit_length(self):
        rng = random.Random(1)
        for bits in (8, 16, 64, 128):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            random_prime(1, random.Random(1))

    def test_deterministic_given_seed(self):
        assert random_prime(32, random.Random(9)) == random_prime(
            32, random.Random(9)
        )
