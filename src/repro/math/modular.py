"""Modular arithmetic primitives on plain Python integers.

These functions operate on raw ``int`` values so they can be used both by
the field classes and by code (parameter generation, RSA-style baselines)
that works outside a fixed field.
"""

from __future__ import annotations

from repro.errors import ParameterError


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
    """Multiplicative inverse of ``a`` modulo ``modulus``.

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


def is_quadratic_residue(a: int, p: int) -> bool:
    """True when ``a`` is a nonzero square modulo the odd prime ``p``."""
    a %= p
    if a == 0:
        return False
    return pow(a, (p - 1) // 2, p) == 1


def sqrt_if_square(a: int, p: int) -> int | None:
    """The canonical square root of ``a`` modulo the odd prime ``p``, or
    ``None`` when ``a`` is a non-residue.

    For ``p % 4 == 3`` this is ONE exponentiation: ``r = a^((p+1)/4)``
    is a root exactly when ``r^2 == a``, so the root doubles as the
    residuosity test.  Other primes run Euler's criterion and then
    Tonelli–Shanks.  The root is canonicalized to the smaller of the
    pair ``{r, p - r}`` so results are deterministic.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        root = pow(a, (p + 1) // 4, p)
        if root * root % p != a:
            return None
        return min(root, p - root)
    if not is_quadratic_residue(a, p):
        return None
    # Tonelli-Shanks for p % 4 == 1.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while is_quadratic_residue(z, p):
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    root = pow(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i in (0, m) with t^(2^i) == 1.
        i, probe = 0, t
        while probe != 1:
            probe = probe * probe % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        root = root * b % p
    return min(root, p - root)


def sqrt_mod(a: int, p: int) -> int:
    """:func:`sqrt_if_square`, raising :class:`ParameterError` when ``a``
    is a non-residue."""
    root = sqrt_if_square(a, p)
    if root is None:
        raise ParameterError(f"{a % p} is not a quadratic residue mod p")
    return root


def cube_root_mod(a: int, p: int) -> int:
    """The unique cube root of ``a`` modulo a prime ``p`` with ``p % 3 == 2``.

    When ``gcd(3, p - 1) == 1`` cubing is a bijection on ``Z_p`` and the
    inverse map is exponentiation by ``(2p - 1) / 3``.
    """
    if p % 3 != 2:
        raise ParameterError("unique cube roots need p % 3 == 2")
    return pow(a % p, (2 * p - 1) // 3, p)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve ``x ≡ r1 (mod m1)``, ``x ≡ r2 (mod m2)`` for coprime moduli."""
    g, u, _ = egcd(m1, m2)
    if g != 1:
        raise ParameterError("crt_pair requires coprime moduli")
    return (r1 + (r2 - r1) * u % m2 * m1) % (m1 * m2)
