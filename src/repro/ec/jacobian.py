"""Integer Jacobian kernels for ``y^2 = x^3 + a*x + b`` over ``Fp``.

Every multi-step base-field curve operation runs here:
:meth:`~repro.ec.curve.EllipticCurve.scalar_mult` and
``multi_scalar_mult``, :class:`~repro.ec.precompute.FixedBaseTable`,
the family-A Miller recorder and family B's fused Miller steps.  A
point is a tuple of integers — Jacobian ``(X, Y, Z)`` for the affine
``(X/Z^2, Y/Z^3)``, with ``Z == 0`` for infinity — so a doubling is a
handful of big-int products and ``%`` reductions with no object
allocated per field operation.

Coordinates enter through ``backend.lift`` (``mpz`` under gmpy2, plain
``int`` otherwise) and leave :func:`normalize` as canonical ints in
``[0, p)``, so callers never see the lifted type and every encoding is
byte-identical across backends.  Reductions use the builtin ``%`` for
every backend, the Montgomery one included: under CPython 3.11 on a
2-vCPU x86-64 host, reducing a 1024-bit product modulo the ss512 prime
takes 1.1 µs with ``%`` against 2.0–2.2 µs for the Montgomery backend's
pure-python REDC, and a Jacobian step has no long accumulation for
REDC's deferred reductions to win back.

The formulas are specialised on the integer coefficient ``a``: ``a = 0``
(family B, BN254 G1) drops the ``a*Z^4`` term, ``a = 1`` (family A)
saves its multiplication, and any other ``a`` takes the generic term.
``b`` never enters the group law.

Every kernel returns canonical coordinates (each is reduced ``% p``),
which the equality tests in :func:`add` and :func:`add_affine` rely on.
"""

from __future__ import annotations

from repro.math.backend.base import signed_window_digits, wnaf_digits

INFINITY = (1, 1, 0)


def double(x, y, z, p, a):
    """``2·(X, Y, Z)``; a point with ``Y == 0`` has order two."""
    if not z or not y:
        return INFINITY
    ysq = y * y % p
    s = 4 * x * ysq % p
    if a == 0:
        m = 3 * x * x % p
    else:
        zz = z * z % p
        zzzz = zz * zz if a == 1 else a * (zz * zz % p)
        m = (3 * x * x + zzzz) % p
    x3 = (m * m - 2 * s) % p
    return x3, (m * (s - x3) - 8 * ysq * ysq) % p, 2 * y * z % p


def add(x1, y1, z1, x2, y2, z2, p, a):
    """``(X1, Y1, Z1) + (X2, Y2, Z2)``, both Jacobian."""
    if not z1:
        return x2, y2, z2
    if not z2:
        return x1, y1, z1
    z1z1 = z1 * z1 % p
    z2z2 = z2 * z2 % p
    u1 = x1 * z2z2 % p
    u2 = x2 * z1z1 % p
    s1 = y1 * z2z2 % p * z2 % p
    s2 = y2 * z1z1 % p * z1 % p
    if u1 == u2:
        return double(x1, y1, z1, p, a) if s1 == s2 else INFINITY
    h = u2 - u1
    r = s2 - s1
    hh = h * h % p
    hhh = hh * h % p
    v = u1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return x3, (r * (v - x3) - s1 * hhh) % p, z1 * z2 % p * h % p


def add_affine(x1, y1, z1, x2, y2, p, a):
    """``(X1, Y1, Z1) + (x2, y2)`` for a finite affine second point.

    The inner step of every table-driven multiplication: table entries
    are batch-normalized to affine, which saves the ``Z2`` work of
    :func:`add`.
    """
    if not z1:
        return x2, y2, 1
    zz = z1 * z1 % p
    u2 = x2 * zz % p
    s2 = y2 * zz % p * z1 % p
    if u2 == x1:
        return double(x1, y1, z1, p, a) if s2 == y1 else INFINITY
    h = u2 - x1
    r = s2 - y1
    hh = h * h % p
    hhh = hh * h % p
    v = x1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return x3, (r * (v - x3) - y1 * hhh) % p, z1 * h % p


def normalize(backend, triples) -> list:
    """Jacobian triples to canonical affine ``(x, y)`` ints, ``None`` for
    infinity, with ONE field inversion for the whole batch
    (:meth:`~repro.math.backend.base.FieldBackend.fp_batch_inv`).
    Entries with ``Z == 1`` are already affine and skip the inversion."""
    p = backend.lift(backend.p)
    inverses = iter(
        backend.fp_batch_inv([z for _, _, z in triples if z and z != 1])
    )
    out = []
    for x, y, z in triples:
        if not z:
            out.append(None)
        elif z == 1:
            out.append((int(x), int(y)))
        else:
            zi = next(inverses)
            zz = zi * zi % p
            out.append((int(x * zz % p), int(y * zz % p * zi % p)))
    return out


def _odd_multiples(x, y, count, p, a) -> list:
    """Jacobian ``P, 3P, ..., (2·count - 1)P`` for an affine ``P``."""
    multiples = [(x, y, 1)]
    if count > 1:
        tx, ty, tz = double(x, y, 1, p, a)
        for _ in range(count - 1):
            multiples.append(add(*multiples[-1], tx, ty, tz, p, a))
    return multiples


def _signed_table(backend, affine) -> list:
    """``(x, y, -y)`` per affine entry, so a negative wNAF digit costs
    nothing (``None`` stays ``None``)."""
    lift = backend.lift
    p = backend.p
    return [
        None if entry is None
        else (lift(entry[0]), lift(entry[1]), lift(-entry[1] % p))
        for entry in affine
    ]


def _width(bits: int) -> int:
    """wNAF width minimizing table build plus loop additions."""
    if bits <= 24:
        return 2
    if bits <= 80:
        return 3
    if bits <= 256:
        return 4
    return 5


def scalar_mult(backend, a, x, y, k):
    """``k·(x, y)`` for a finite affine point and ``k >= 1``, with the
    wNAF width sized by ``k.bit_length()``.  Returns affine ints or
    ``None``."""
    return multi_scalar_mult(backend, a, [(k, x, y)], _width(k.bit_length()))


def multi_scalar_mult(backend, a, terms, width):
    """``Σ k_i·(x_i, y_i)`` via interleaved wNAF with shared doublings.

    ``terms`` holds ``(k, x, y)`` with ``k >= 1`` and finite affine
    points.  Each point gets a table of odd multiples, all of them
    batch-normalized to affine with one inversion, so the loop runs on
    mixed additions; one more inversion normalizes the result.
    """
    p = backend.lift(backend.p)
    count = max(1, 1 << (width - 2))
    flat = []
    digit_lists = []
    for k, x, y in terms:
        digit_lists.append(wnaf_digits(k, width))
        flat.extend(_odd_multiples(backend.lift(x), backend.lift(y), count, p, a))
    signed = _signed_table(backend, normalize(backend, flat))
    tables = [signed[i * count:(i + 1) * count] for i in range(len(terms))]
    X, Y, Z = INFINITY
    for position in range(max(map(len, digit_lists)) - 1, -1, -1):
        X, Y, Z = double(X, Y, Z, p, a)
        for digits, table in zip(digit_lists, tables):
            digit = digits[position] if position < len(digits) else 0
            if not digit:
                continue
            entry = table[abs(digit) >> 1]
            if entry is None:
                continue  # that odd multiple is infinity (tiny-order point)
            X, Y, Z = add_affine(
                X, Y, Z, entry[0], entry[1 if digit > 0 else 2], p, a
            )
    return normalize(backend, [(X, Y, Z)])[0]


def fixed_base_rows(backend, a, x, y, bits, width) -> list:
    """Signed-digit rows for ``k·P`` with ``0 <= k < 2^bits``.

    Row ``j`` of the ``bits // width + 1`` windows holds
    ``d·2^(j·w)·P`` for ``d in 1..2^(w-1)``, the digits of
    :func:`~repro.math.backend.base.signed_window_digits`, flat as
    lifted ``[x_1, y_1, ..., x_h, y_h]``; a negative digit reads
    ``(x, -y)``.  ``None, None`` marks a multiple that is infinity
    (tiny-order base).

    The window bases ``B_j = 2^(j·w)·P`` come from one doubling chain
    and one batch inversion.  Every row then grows in affine
    coordinates, all rows together: step ``d`` adds ``B_j`` to entry
    ``d - 1`` of every row ``j``, and the slopes of that step share one
    batch inversion, so a row entry costs a chord (or tangent) and no
    normalization.  An infinity entry steps to ``B_j``, an entry equal
    to ``B_j`` takes the tangent and one equal to ``-B_j`` sums to
    infinity.
    """
    lift = backend.lift
    p = lift(backend.p)
    windows = bits // width + 1
    X, Y, Z = lift(x), lift(y), 1
    bases = [(X, Y, Z)]
    for _ in range(windows - 1):
        for _ in range(width):
            X, Y, Z = double(X, Y, Z, p, a)
        bases.append((X, Y, Z))
    bases = [
        None if base is None else (lift(base[0]), lift(base[1]))
        for base in normalize(backend, bases)
    ]
    entries = list(bases)
    rows = [[None, None] if base is None else list(base) for base in bases]
    for _ in range((1 << (width - 1)) - 1):
        # (row, slope numerator, slope denominator) of each finite sum.
        steps = []
        for j, base in enumerate(bases):
            entry = entries[j]
            if base is None:
                continue
            if entry is None:
                entries[j] = base
                continue
            bx, by = base
            ex, ey = entry
            if ex != bx:
                steps.append((j, ey - by, (ex - bx) % p))
            elif ey == by and by:
                steps.append((j, 3 * bx * bx + a, 2 * by % p))
            else:
                entries[j] = None  # entry == -B_j, so the sum is infinity
        inverses = backend.fp_batch_inv([denominator for _, _, denominator in steps])
        for (j, numerator, _), inverse in zip(steps, inverses):
            bx, by = bases[j]
            slope = numerator * inverse % p
            x3 = (slope * slope - entries[j][0] - bx) % p
            entries[j] = (x3, (slope * (bx - x3) - by) % p)
        for row, entry in zip(rows, entries):
            row += (None, None) if entry is None else entry
    return rows


def fixed_base_mult(backend, a, rows, width, k):
    """``k·P`` from :func:`fixed_base_rows` output, for
    ``0 <= k < 2^bits``: one mixed addition per non-zero signed digit,
    zero doublings.  Returns affine ints or ``None``."""
    p = backend.lift(backend.p)
    X, Y, Z = INFINITY
    for row, digit in zip(rows, signed_window_digits(k, width)):
        if not digit:
            continue
        index = 2 * abs(digit) - 2
        x2 = row[index]
        if x2 is None:
            continue  # that multiple is infinity (tiny-order base)
        y2 = row[index + 1]
        X, Y, Z = add_affine(X, Y, Z, x2, y2 if digit > 0 else -y2 % p, p, a)
    return normalize(backend, [(X, Y, Z)])[0]
