"""Modular arithmetic primitives on plain Python integers.

These functions operate on raw ``int`` values so they can be used both by
the field classes and by code (parameter generation, RSA-style baselines)
that works outside a fixed field.
"""

from __future__ import annotations

from repro.errors import ParameterError


def is_quadratic_residue(a: int, p: int) -> bool:
    """True when ``a`` is a nonzero square modulo the odd prime ``p``."""
    a %= p
    if a == 0:
        return False
    return pow(a, (p - 1) // 2, p) == 1


def jacobi_symbol(a: int, n: int) -> int:
    """The Jacobi symbol ``(a/n)`` for odd positive ``n``: ``0``, ``1`` or ``-1``.

    Binary quadratic reciprocity on plain ints, with no exponentiation:
    on 512-bit operands about a twelfth of the ``(p+1)/4`` power.  For a
    prime ``n`` it is the Legendre symbol (Euler's criterion).  For any
    odd ``n``, ``-1`` proves ``a`` is no square modulo ``n``; ``1`` proves
    nothing when ``n`` is composite.
    """
    if n <= 0 or not n & 1:
        raise ParameterError("the Jacobi symbol needs an odd positive modulus")
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            result = -result
        if a & n & 2:  # a == n == 3 (mod 4)
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def sqrt_if_square(a: int, p: int) -> int | None:
    """The canonical square root of ``a`` modulo the odd prime ``p``, or
    ``None`` when ``a`` is a non-residue.

    For ``p % 4 == 3`` a Jacobi symbol of ``-1`` returns ``None`` first:
    it rejects the non-residue half of the inputs (every other
    try-and-increment candidate of ``H1``) without an exponentiation.
    Otherwise ``r = a^((p+1)/4)`` is a root exactly when ``r^2 == a``, so
    the one exponentiation doubles as the residuosity test.  Gating on
    ``-1`` alone keeps every result, also for a composite modulus, where
    ``-1`` still proves a non-square and ``+1`` proves nothing.  Other
    primes run Euler's criterion and then Tonelli–Shanks.  The root is
    canonicalized to the smaller of the pair ``{r, p - r}`` so results
    are deterministic.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        if jacobi_symbol(a, p) < 0:
            return None
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


def cube_root_mod(a: int, p: int) -> int:
    """The unique cube root of ``a`` modulo a prime ``p`` with ``p % 3 == 2``.

    When ``gcd(3, p - 1) == 1`` cubing is a bijection on ``Z_p`` and the
    inverse map is exponentiation by ``(2p - 1) / 3``.
    """
    if p % 3 != 2:
        raise ParameterError("unique cube roots need p % 3 == 2")
    return pow(a % p, (2 * p - 1) // 3, p)

