"""Reference arithmetic kept as test oracles, not shipped in ``src``.

* :func:`egcd` / :func:`inverse_mod`: the extended Euclidean algorithm.
  The library inverts with CPython's ``pow(x, -1, m)``; the tests check
  every backend's ``fp_inv`` against this independent implementation.
* :func:`jacobi_symbol`: quadratic reciprocity, an oracle for the
  library's Euler-criterion residuosity test.
* :func:`unitary_exp_wnaf`: a wNAF / cyclotomic-squaring unitary
  exponentiation.  The library raises unitary ``Fp2`` elements to a
  power with a Lucas ladder on the trace (:meth:`repro.math.backend.base
  .FieldBackend.unitary_exp`).  The function here is the classic
  alternative on the full element: width-``w`` NAF digits, negative
  digits by conjugation, and the norm-1 squaring ``(a + bu)^2 =
  (2a^2 - 1) + 2ab*u``.  It shares no arithmetic with the ladder, so the
  two agreeing is independent evidence; the tests also compare both
  against naive ``**``.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.math.backend.base import wnaf_digits


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_x, x = x, old_x - quotient * x
        old_y, y = y, old_y - quotient * y
    return old_r, old_x, old_y


def inverse_mod(a: int, modulus: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``modulus`` by :func:`egcd`.

    Raises :class:`ParameterError` when ``a`` is not invertible.
    """
    a %= modulus
    if a == 0:
        raise ParameterError("0 has no inverse")
    g, x, _ = egcd(a, modulus)
    if g != 1:
        raise ParameterError(f"{a} is not invertible modulo {modulus} (gcd={g})")
    return x % modulus


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive ``n``."""
    if n <= 0 or n % 2 == 0:
        raise ParameterError("jacobi symbol requires odd positive n")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def unitary_exp_wnaf(
    a: int, b: int, exponent: int, beta: int, p: int, width: int = 4
) -> tuple[int, int]:
    """``(a + bu) ** exponent`` mod ``p`` for unitary ``a + bu``."""
    if exponent < 0:
        b = -b % p
        exponent = -exponent
    if exponent == 0:
        return 1, 0

    def mul(x, y):
        ac = x[0] * y[0]
        bd = x[1] * y[1]
        cross = (x[0] + x[1]) * (y[0] + y[1]) - ac - bd
        return (ac + beta * bd) % p, cross % p

    def square(x):
        return (2 * x[0] * x[0] - 1) % p, 2 * x[0] * x[1] % p

    base = (a % p, b % p)
    odd_powers = [base]
    base_squared = square(base)
    for _ in range((1 << (width - 2)) - 1):
        odd_powers.append(mul(odd_powers[-1], base_squared))
    result = None
    for digit in reversed(wnaf_digits(exponent, width)):
        if result is not None:
            result = square(result)
        if digit:
            ea, eb = odd_powers[abs(digit) >> 1]
            term = (ea, -eb % p) if digit < 0 else (ea, eb)
            result = term if result is None else mul(result, term)
    return result
