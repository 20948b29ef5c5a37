"""Affine points on a short Weierstrass curve.

A point's coordinates are immutable.  Addition and doubling use the
textbook affine formulas (one field inversion each); scalar
multiplication delegates to the curve's Jacobian-coordinate ladder,
which performs a single inversion at the end.  Both paths are exercised
against each other in the tests and compared in the E12 ablation
benchmark.

Besides its coordinates a point carries one write-once fact,
:attr:`CurvePoint.proven_order`: a prime ``q`` for which ``q·P = O``
has been established, or ``None``.  It takes no part in equality,
hashing, ``repr`` or either encoding, and a point built from bytes
never has it.  Only a proof sets it: the subgroup check after
``q·P = O`` held, cofactor clearing on a base curve of order ``c·q``,
and a group's scalar multiplication of a point that already carries it
(see :meth:`~repro.pairing.supersingular.SupersingularCurve.in_subgroup`).
"""

from __future__ import annotations

from repro.errors import GroupMismatchError


class CurvePoint:
    """A point on an :class:`~repro.ec.curve.EllipticCurve`, or infinity."""

    __slots__ = ("curve", "x", "y", "proven_order")

    def __init__(self, curve, x, y):
        # x is None (and y is None) exactly for the point at infinity.
        self.curve = curve
        self.x = x
        self.y = y
        self.proven_order = None

    def prove_order(self, q: int) -> None:
        """Record that ``q·self = O`` has been established.

        Write-once: the first proof sticks.  Call it only where the fact
        was just proven or follows from one that was.
        """
        if self.proven_order is None:
            self.proven_order = q

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def _check_same_curve(self, other: "CurvePoint") -> None:
        if not isinstance(other, CurvePoint) or other.curve != self.curve:
            raise GroupMismatchError("points lie on different curves")

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        self._check_same_curve(other)
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        if self.x == other.x:
            if (self.y + other.y).is_zero():
                return self.curve.infinity()
            return self.double()
        slope = (other.y - self.y) / (other.x - self.x)
        x3 = slope.square() - self.x - other.x
        y3 = slope * (self.x - x3) - self.y
        return CurvePoint(self.curve, x3, y3)

    def double(self) -> "CurvePoint":
        if self.is_infinity or self.y.is_zero():
            return self.curve.infinity()
        slope = (self.x.square() * 3 + self.curve.a) / (self.y * 2)
        x3 = slope.square() - self.x - self.x
        y3 = slope * (self.x - x3) - self.y
        return CurvePoint(self.curve, x3, y3)

    def __neg__(self) -> "CurvePoint":
        if self.is_infinity:
            return self
        return CurvePoint(self.curve, self.x, -self.y)

    def __sub__(self, other: "CurvePoint") -> "CurvePoint":
        return self + (-other)

    def __mul__(self, scalar: int) -> "CurvePoint":
        if not isinstance(scalar, int):
            return NotImplemented
        return self.curve.scalar_mult(self, scalar)

    __rmul__ = __mul__

    def affine_scalar_mult(self, scalar: int) -> "CurvePoint":
        """Double-and-add entirely in affine coordinates (ablation path)."""
        if scalar < 0:
            return (-self).affine_scalar_mult(-scalar)
        result = self.curve.infinity()
        addend = self
        while scalar:
            if scalar & 1:
                result = result + addend
            addend = addend.double()
            scalar >>= 1
        return result

    def to_bytes(self) -> bytes:
        """Uncompressed encoding: ``0x00`` for infinity, else ``x || y``."""
        if self.is_infinity:
            return b"\x00"
        return b"\x04" + self.x.to_bytes() + self.y.to_bytes()

    @classmethod
    def from_bytes(cls, curve, data: bytes) -> "CurvePoint":
        """Inverse of :meth:`to_bytes`, with on-curve validation.

        Delegates to ``curve.point_from_bytes``, which raises
        :class:`~repro.errors.DecodingError` on malformed framing and
        :class:`~repro.errors.NotOnCurveError` on off-curve
        coordinates — decoded coordinates never become a live point
        unvalidated.
        """
        return curve.point_from_bytes(data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if other.curve != self.curve:
            return False
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if self.is_infinity:
            return hash((self.curve, "infinity"))
        return hash((self.curve, self.x, self.y))

    def __repr__(self) -> str:
        if self.is_infinity:
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x!r}, {self.y!r})"
