"""A wNAF / cyclotomic-squaring unitary exponentiation, kept as a test oracle.

The library raises unitary ``Fp2`` elements to a power with a Lucas
ladder on the trace (:meth:`repro.math.backend.base.FieldBackend
.unitary_exp`).  The function here is the classic alternative on the
full element: width-``w`` NAF digits, negative digits by conjugation,
and the norm-1 squaring ``(a + bu)^2 = (2a^2 - 1) + 2ab*u``.  It shares
no arithmetic with the ladder, so the two agreeing is independent
evidence; the tests also compare both against naive ``**``.
"""

from __future__ import annotations

from repro.math.backend.base import wnaf_digits


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
