"""Primality testing and prime generation.

Used by the RSA-style time-lock puzzle baseline and by ``Fp``'s check
that its modulus is prime.  Miller–Rabin here is deterministic for the
test vectors we care about because it always starts with the small-base
set that is provably sufficient below 3.3 * 10^24, then adds random bases
for larger inputs.
"""

from __future__ import annotations

import random
import secrets

# Bases that make Miller-Rabin deterministic for n < 3,317,044,064,679,887,385,961,981.
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
)


def _miller_rabin_witness(n: int, base: int, d: int, r: int) -> bool:
    """True when ``base`` witnesses that ``n`` is composite."""
    x = pow(base, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    """Miller–Rabin primality test.

    Deterministic (and exact) for ``n`` below ~3.3e24; probabilistic with
    32 random bases above that.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _DETERMINISTIC_BASES:
        if _miller_rabin_witness(n, base, d, r):
            return False
    if n < _DETERMINISTIC_LIMIT:
        return True
    # Default to the CSPRNG: with Mersenne-Twister bases an adversary who
    # predicts the state could hand us composites that pass every round.
    rng = rng or secrets.SystemRandom()
    for _ in range(32):
        base = rng.randrange(2, n - 1)
        if _miller_rabin_witness(n, base, d, r):
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    """A random prime of exactly ``bits`` bits."""
    if bits < 2:
        raise ValueError("primes need at least 2 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate
