"""Short Weierstrass curves ``y^2 = x^3 + a*x + b`` over Fp or Fp2.

The curve object is generic over the coefficient field: anything with the
element protocol used by :mod:`repro.math.field` / :mod:`repro.math.quadratic`
(arithmetic operators, ``square``, ``inverse``, ``is_zero``, ``to_bytes``)
works.  Scalar multiplication runs in Jacobian projective coordinates so a
``k``-bit multiply costs one field inversion instead of ``~1.5k``.

Over a :class:`~repro.math.field.PrimeField` every multi-step operation
runs on the integer kernels of :mod:`repro.ec.jacobian`.  The
element-level Jacobian ladder below serves extension-field curves only
(BN254 G2 over Fp2), the one input with no integer kernel.
"""

from __future__ import annotations

from repro.errors import DecodingError, NotOnCurveError, ParameterError
from repro.ec import jacobian
from repro.ec.point import CurvePoint
from repro.math.field import FieldElement, PrimeField
from repro.math.modular import sqrt_if_square


class EllipticCurve:
    """``y^2 = x^3 + a*x + b`` over an explicit field object."""

    __slots__ = ("field", "a", "b", "int_a")

    def __init__(self, field, a, b):
        self.field = field
        self.a = a
        self.b = b
        # 4a^3 + 27b^2 != 0 guarantees the curve is non-singular.
        discriminant = a * a * a * 4 + b * b * 27
        if discriminant.is_zero():
            raise ParameterError("singular curve: 4a^3 + 27b^2 == 0")
        # The integer coefficient the repro.ec.jacobian kernels take;
        # None marks an extension-field curve.
        self.int_a = a.value if isinstance(field, PrimeField) else None

    def _from_ints(self, xy) -> CurvePoint:
        """Wrap a kernel's affine ``(x, y)`` ints (``None`` is infinity)."""
        if xy is None:
            return self.infinity()
        field = self.field
        return CurvePoint(self, FieldElement(field, xy[0]), FieldElement(field, xy[1]))

    def infinity(self) -> CurvePoint:
        return CurvePoint(self, None, None)

    def contains(self, x, y) -> bool:
        """Whether affine coordinates ``(x, y)`` satisfy the curve equation."""
        return (y.square() - (x.square() * x + self.a * x + self.b)).is_zero()

    def point(self, x, y) -> CurvePoint:
        """Construct a point, validating it lies on the curve."""
        if not self.contains(x, y):
            raise NotOnCurveError("coordinates do not satisfy curve equation")
        return CurvePoint(self, x, y)

    def unchecked_point(self, x, y) -> CurvePoint:
        """Construct a point without the on-curve check (internal use)."""
        return CurvePoint(self, x, y)

    def point_from_x(self, x, y_parity: int = 0) -> CurvePoint:
        """Lift ``x`` to a point, choosing the root with the given parity bit.

        Only supported over the base field (Fp), where ``sqrt`` exists on
        elements.  Raises :class:`NotOnCurveError` when ``x^3 + ax + b`` is
        a non-residue.
        """
        rhs = x.square() * x + self.a * x + self.b
        root = sqrt_if_square(rhs.value, self.field.p)
        if root is None:
            raise NotOnCurveError("x does not lift to a curve point")
        y = FieldElement(self.field, root)
        if root % 2 != y_parity % 2:
            y = -y
        return CurvePoint(self, x, y)

    def random_point(self, rng) -> CurvePoint:
        """A random affine point, by rejection sampling on ``x`` (Fp only)."""
        if self.int_a is None:
            raise ParameterError("random_point needs a base-field curve")
        while True:
            x = self.field.random(rng)
            rhs = x.square() * x + self.a * x + self.b
            root = sqrt_if_square(rhs.value, self.field.p)
            if root is not None:
                y = FieldElement(self.field, root)
                if rng.randrange(2):
                    y = -y
                return CurvePoint(self, x, y)

    def point_from_bytes(self, data: bytes) -> CurvePoint:
        """Decode the uncompressed encoding from ``CurvePoint.to_bytes``.

        Structural failures raise :class:`DecodingError`; coordinates
        that parse but miss the curve raise
        :class:`~repro.errors.NotOnCurveError` (both are
        ``EncodingError`` subclasses in spirit and ``ReproError`` in
        fact).  The on-curve check runs before the point escapes —
        subgroup checks are the caller's job, since a bare curve has no
        distinguished subgroup (``PairingGroup.point_from_bytes`` adds
        it).
        """
        if data == b"\x00":
            return self.infinity()
        if not data or data[0] != 0x04:
            raise DecodingError("bad point encoding prefix")
        body = data[1:]
        half = len(body) // 2
        if len(body) != 2 * half or half != self.field.element_bytes:
            raise DecodingError("bad point encoding length")
        x = self.field.from_bytes(body[:half])
        y = self.field.from_bytes(body[half:])
        return self.point(x, y)

    # ------------------------------------------------------------------
    # Element-level Jacobian arithmetic, for extension-field curves.
    #
    # A Jacobian triple (X, Y, Z) represents the affine point
    # (X / Z^2, Y / Z^3); infinity is Z == 0.  Base-field curves use
    # the integer kernels in repro.ec.jacobian instead.
    # ------------------------------------------------------------------

    def _jacobian_double(self, jp):
        x1, y1, z1 = jp
        if z1.is_zero() or y1.is_zero():
            return (self.field.one(), self.field.one(), self.field.zero())
        ysq = y1.square()
        s = (x1 * ysq) * 4
        m = x1.square() * 3 + self.a * z1.square().square()
        x3 = m.square() - s - s
        y3 = m * (s - x3) - ysq.square() * 8
        z3 = (y1 * z1) * 2
        return (x3, y3, z3)

    def _jacobian_add(self, jp, jq):
        x1, y1, z1 = jp
        x2, y2, z2 = jq
        if z1.is_zero():
            return jq
        if z2.is_zero():
            return jp
        z1sq = z1.square()
        z2sq = z2.square()
        u1 = x1 * z2sq
        u2 = x2 * z1sq
        s1 = y1 * z2sq * z2
        s2 = y2 * z1sq * z1
        if u1 == u2:
            if s1 == s2:
                return self._jacobian_double(jp)
            return (self.field.one(), self.field.one(), self.field.zero())
        h = u2 - u1
        r = s2 - s1
        hsq = h.square()
        hcu = hsq * h
        v = u1 * hsq
        x3 = r.square() - hcu - v - v
        y3 = r * (v - x3) - s1 * hcu
        z3 = z1 * z2 * h
        return (x3, y3, z3)

    def _to_jacobian(self, point: CurvePoint):
        if point.is_infinity:
            return (self.field.one(), self.field.one(), self.field.zero())
        return (point.x, point.y, self.field.one())

    def _from_jacobian(self, jp) -> CurvePoint:
        x, y, z = jp
        if z.is_zero():
            return self.infinity()
        zinv = z.inverse()
        zinv_sq = zinv.square()
        return CurvePoint(self, x * zinv_sq, y * zinv_sq * zinv)

    @staticmethod
    def _window_width(bits: int) -> int:
        """Window width minimizing setup (``2^w - 2`` adds) + loop adds."""
        if bits <= 10:
            return 1
        if bits <= 32:
            return 2
        if bits <= 100:
            return 3
        return 4

    def scalar_mult(self, point: CurvePoint, scalar: int) -> CurvePoint:
        """``scalar * point``.

        Base-field curves run the wNAF kernel
        (:func:`repro.ec.jacobian.scalar_mult`).  Extension-field curves
        run a fixed-window element-level ladder whose window is sized by
        ``scalar.bit_length()``, so tiny scalars skip table setup.
        """
        if scalar == 0 or point.is_infinity:
            return self.infinity()
        if scalar < 0:
            return self.scalar_mult(-point, -scalar)
        if scalar == 1:
            return point
        if self.int_a is not None:
            return self._from_ints(jacobian.scalar_mult(
                self.field.backend, self.int_a, point.x.value, point.y.value, scalar
            ))
        base = self._to_jacobian(point)
        bits = scalar.bit_length()
        width = self._window_width(bits)
        if width == 1:
            # Plain double-and-add; a table would cost more than it saves.
            result = base
            for bit in range(bits - 2, -1, -1):
                result = self._jacobian_double(result)
                if (scalar >> bit) & 1:
                    result = self._jacobian_add(result, base)
            return self._from_jacobian(result)
        size = 1 << width
        window = [None, base]
        for _ in range(size - 2):
            window.append(self._jacobian_add(window[-1], base))
        result = (self.field.one(), self.field.one(), self.field.zero())
        mask = size - 1
        for window_index in range((bits + width - 1) // width - 1, -1, -1):
            for _ in range(width):
                result = self._jacobian_double(result)
            digit = (scalar >> (width * window_index)) & mask
            if digit:
                result = self._jacobian_add(result, window[digit])
        return self._from_jacobian(result)

    def multi_scalar_mult(self, pairs, width: int = 4) -> CurvePoint:
        """``sum(k_i * P_i)`` via interleaved wNAF with shared doublings.

        ``pairs`` is an iterable of ``(scalar, point)`` tuples.  Each
        point gets a table of odd multiples ``P, 3P, ..., (2^(w-1)-1)P``
        (batch-normalized to affine in one inversion across all points)
        and each scalar a width-``w`` NAF expansion, so the single
        doubling chain absorbs roughly ``bits/(w+1)`` mixed additions
        per term instead of ``bits/2`` plain additions.  Used by
        verification equations that combine several terms.
        Extension-field curves sum individual products instead.
        """
        terms = []
        for k, p in pairs:
            if k == 0 or p.is_infinity:
                continue
            if k < 0:
                k, p = -k, -p
            terms.append((k, p))
        if not terms:
            return self.infinity()
        if self.int_a is None:
            total = self.infinity()
            for k, p in terms:
                total = total + self.scalar_mult(p, k)
            return total
        if max(k.bit_length() for k, _ in terms) <= 16:
            width = 2
        return self._from_ints(jacobian.multi_scalar_mult(
            self.field.backend,
            self.int_a,
            [(k, p.x.value, p.y.value) for k, p in terms],
            width,
        ))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EllipticCurve)
            and other.field == self.field
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self) -> int:
        return hash(("EllipticCurve", self.field, self.a, self.b))

    def __repr__(self) -> str:
        return f"EllipticCurve(a={self.a!r}, b={self.b!r} over {self.field!r})"
