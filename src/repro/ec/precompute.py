"""Fixed-argument precomputation for scalar multiplication.

Deployments of the paper's schemes multiply the same handful of points
over and over, above all the server generator ``G`` (every sender's
``U = rG``) and its public ``sG`` (user key generation).
:class:`FixedBaseTable` trades a one-time table
build (the signed-digit multiples of the base in every window, grown
in affine coordinates under batched inversions) for multiplications
that need **zero doublings** — just one mixed addition per window —
which amortizes after about 16 calls on the same point (ss512).  Both
halves run on the integer kernels of :mod:`repro.ec.jacobian`, and the
table stores canonical int pairs.

The module also re-exports
:func:`~repro.math.backend.base.wnaf_digits`, the signed-digit expansion
behind the wNAF scalar multiplications.

Every fast path here returns exactly the point the direct
:meth:`~repro.ec.curve.EllipticCurve.scalar_mult` would — affine
coordinates are a canonical representation, so equal points serialize
byte-identically (asserted in ``tests/ec/test_precompute.py``).
"""

from __future__ import annotations

from repro.ec import jacobian
from repro.ec.point import CurvePoint
from repro.errors import ParameterError
from repro.math.backend.base import wnaf_digits

__all__ = ["FixedBaseTable", "wnaf_digits"]


class FixedBaseTable:
    """Signed-digit windowed multiples of one fixed point, for repeated
    ``k * P``.

    ``k`` is split into base-``2^w`` digits in ``(-2^(w-1), 2^(w-1)]``
    (:func:`~repro.math.backend.base.signed_window_digits`), so each of
    the ``bits // w + 1`` windows stores only ``d * 2^(j*w) * P`` for
    ``d in 1..2^(w-1)``, as canonical affine ``(x, y)``
    (:func:`repro.ec.jacobian.fixed_base_rows`, grown in affine
    coordinates with one batch inversion per digit step); a negative
    digit reads ``(x, -y)``.  A multiplication then reads one entry per
    window and performs only mixed additions — no doublings at all.

    Parameters
    ----------
    point:
        The fixed base ``P``, on a curve over a prime field.
    bits:
        Capacity: scalars up to ``2^bits - 1`` take the fast path
        (callers reducing mod the group order pass ``q.bit_length()``).
        Larger or out-of-range scalars fall back to the direct ladder.
    width:
        Window width ``w``; memory is ``2^(w-1) * (bits // w + 1)``
        affine points, additions per multiply ``~bits/w``.  The default
        8 stores 2688 points on ss512 (21 windows of 128, about 546 KiB)
        for at most 21 additions per multiply: the one table a group
        builds is the server generator ``G``'s, which every send
        multiplies (:class:`~repro.math.quadratic.GTFixedBaseTable`,
        one per warmed label, stays at 5).
    """

    __slots__ = ("point", "curve", "width", "bits", "windows", "_rows")

    def __init__(self, point: CurvePoint, bits: int, width: int = 8):
        if not 1 <= width <= 8:
            raise ParameterError("window width must be in 1..8")
        if bits < 1:
            raise ParameterError("table capacity must be at least one bit")
        if point.curve.int_a is None:
            raise ParameterError("fixed-base tables need a base-field curve")
        self.point = point
        self.curve = point.curve
        self.width = width
        self.bits = bits
        self.windows = bits // width + 1
        self._rows: list[list] = []
        if not point.is_infinity:
            self._rows = jacobian.fixed_base_rows(
                self.curve.field.backend, self.curve.int_a,
                point.x.value, point.y.value, bits, width,
            )

    @property
    def table_points(self) -> int:
        """Number of stored affine points (memory ~= 2 field elements each)."""
        return sum(len(row) for row in self._rows) // 2

    def mult(self, scalar: int) -> CurvePoint:
        """``scalar * P``, identical to ``curve.scalar_mult(P, scalar)``."""
        curve = self.curve
        if scalar == 0 or self.point.is_infinity:
            return curve.infinity()
        negate = scalar < 0
        if negate:
            scalar = -scalar
        if scalar.bit_length() > self.bits:
            result = curve.scalar_mult(self.point, scalar)
        else:
            result = curve._from_ints(jacobian.fixed_base_mult(
                curve.field.backend, curve.int_a, self._rows, self.width, scalar
            ))
        return -result if negate else result

    def __repr__(self) -> str:
        return (
            f"FixedBaseTable(bits={self.bits}, width={self.width}, "
            f"points={self.table_points})"
        )
