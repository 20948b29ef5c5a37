"""The Jacobian fixed-base row builder, kept as a test oracle.

The library grows the rows of a :class:`repro.ec.precompute.FixedBaseTable`
in affine coordinates: every row's next entry comes from one chord (or
tangent) step, and the slopes of all rows at one step share a single
batch inversion (:func:`repro.ec.jacobian.fixed_base_rows`).
:func:`fixed_base_rows_jacobian` is the builder it replaced: each row
grows by Jacobian mixed additions (:func:`repro.ec.jacobian.add_affine`)
and one batch inversion normalizes every entry at the end.  The two
take different exceptional branches (the affine builder handles an
infinity entry, a tangent and a sum to infinity itself), so identical
rows from both are independent evidence.
"""

from __future__ import annotations

from repro.ec.jacobian import INFINITY, add_affine, double, normalize


def fixed_base_rows_jacobian(backend, a, x, y, bits, width) -> list:
    """Signed-digit rows for ``k·P`` with ``0 <= k < 2^bits``, in the
    layout of :func:`repro.ec.jacobian.fixed_base_rows`.

    Two batch inversions: one normalizes the window bases
    ``2^(j·w)·P`` so the row entries grow by mixed additions, the other
    normalizes every entry.  ``None, None`` marks a multiple that is
    infinity (tiny-order base).
    """
    p = backend.lift(backend.p)
    windows = bits // width + 1
    half = 1 << (width - 1)
    X, Y, Z = backend.lift(x), backend.lift(y), 1
    bases = [(X, Y, Z)]
    for _ in range(windows - 1):
        for _ in range(width):
            X, Y, Z = double(X, Y, Z, p, a)
        bases.append((X, Y, Z))
    flat = []
    for base in normalize(backend, bases):
        if base is None:
            flat.extend([INFINITY] * half)
            continue
        bx, by = backend.lift(base[0]), backend.lift(base[1])
        X, Y, Z = bx, by, 1
        flat.append((X, Y, Z))
        for _ in range(half - 1):
            X, Y, Z = add_affine(X, Y, Z, bx, by, p, a)
            flat.append((X, Y, Z))
    lift = backend.lift
    affine = normalize(backend, flat)
    rows = []
    for j in range(windows):
        row = []
        for entry in affine[j * half:(j + 1) * half]:
            row += (None, None) if entry is None else map(lift, entry)
        rows.append(row)
    return rows
