"""Generic polynomial extension fields ``Fp[x]/(m(x))``.

The Type-1 pairing only needs ``Fp2``; the Type-3 BN254 backend
(:mod:`repro.pairing.bn254`) needs ``Fp2`` and ``Fp12`` with different
reduction polynomials.  This module provides a degree-agnostic
implementation: coefficients are plain ints mod ``p``, multiplication
is schoolbook followed by reduction, and inversion runs the extended
Euclidean algorithm over ``Fp[x]``.

The element protocol matches :mod:`repro.math.field` /
:mod:`repro.math.quadratic` (operators, ``square``, ``inverse``,
``is_zero``, ``to_bytes``), so :class:`repro.ec.curve.EllipticCurve`
works over these fields unchanged — the BN254 curve and its twist reuse
the exact same group-law code as the supersingular curves.
"""

from __future__ import annotations

from repro.encoding import int_from_bytes, int_to_bytes
from repro.errors import EncodingError, FieldMismatchError, ParameterError


class PolyExtensionField:
    """``Fp[x] / (x^deg - modulus_tail(x))`` presented as a field object.

    ``modulus_coeffs`` are the low-order coefficients ``c_0..c_{deg-1}``
    of the monic reduction polynomial ``x^deg + c_{deg-1} x^{deg-1} +
    ... + c_0`` (same convention as py_ecc, with signs included).
    """

    __slots__ = ("p", "degree", "modulus_coeffs", "element_bytes", "_base_bytes")

    def __init__(self, p: int, modulus_coeffs: tuple[int, ...]):
        if not modulus_coeffs:
            raise ParameterError("modulus must have positive degree")
        self.p = p
        self.degree = len(modulus_coeffs)
        self.modulus_coeffs = tuple(c % p for c in modulus_coeffs)
        self._base_bytes = (p.bit_length() + 7) // 8
        self.element_bytes = self.degree * self._base_bytes

    def __call__(self, coeffs) -> "PolyElement":
        if isinstance(coeffs, int):
            coeffs = [coeffs] + [0] * (self.degree - 1)
        coeffs = [c % self.p for c in coeffs]
        if len(coeffs) != self.degree:
            raise ParameterError(
                f"expected {self.degree} coefficients, got {len(coeffs)}"
            )
        return PolyElement(self, tuple(coeffs))

    def zero(self) -> "PolyElement":
        return self(0)

    def one(self) -> "PolyElement":
        return self(1)

    def x(self) -> "PolyElement":
        """The adjoined root (the class of ``x``)."""
        coeffs = [0] * self.degree
        coeffs[1 % self.degree] = 1
        return PolyElement(self, tuple(coeffs))

    def random(self, rng) -> "PolyElement":
        return PolyElement(
            self, tuple(rng.randrange(self.p) for _ in range(self.degree))
        )

    def from_bytes(self, data: bytes) -> "PolyElement":
        if len(data) != self.element_bytes:
            raise EncodingError(
                f"expected {self.element_bytes} bytes, got {len(data)}"
            )
        coeffs = []
        for i in range(self.degree):
            chunk = data[i * self._base_bytes:(i + 1) * self._base_bytes]
            value = int_from_bytes(chunk)
            if value >= self.p:
                raise EncodingError("coefficient exceeds field modulus")
            coeffs.append(value)
        return PolyElement(self, tuple(coeffs))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyExtensionField)
            and other.p == self.p
            and other.modulus_coeffs == self.modulus_coeffs
        )

    def __hash__(self) -> int:
        return hash(("PolyExtensionField", self.p, self.modulus_coeffs))

    def __repr__(self) -> str:
        return f"PolyExtensionField(deg={self.degree}, p~2^{self.p.bit_length()})"


def _poly_rounded_div(a: list[int], b: list[int], p: int) -> list[int]:
    """Polynomial division (quotient only) over Fp."""
    dega = _deg(a)
    degb = _deg(b)
    temp = list(a)
    quotient = [0] * (dega - degb + 1)
    inv_lead = pow(b[degb], -1, p)  # b's leading coefficient is nonzero
    for i in range(dega - degb, -1, -1):
        quotient[i] = (quotient[i] + temp[degb + i] * inv_lead) % p
        for c in range(degb + 1):
            temp[c + i] = (temp[c + i] - b[c] * quotient[i]) % p
    return quotient[: _deg(quotient) + 1]


def _deg(poly: list[int]) -> int:
    d = len(poly) - 1
    while d and poly[d] == 0:
        d -= 1
    return d


class PolyElement:
    """An element of a :class:`PolyExtensionField`; immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PolyExtensionField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, PolyElement):
            if other.field != self.field:
                raise FieldMismatchError("elements of different extension fields")
            return other
        if isinstance(other, int):
            return self.field(other)
        return NotImplemented

    def __add__(self, other) -> "PolyElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return PolyElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __sub__(self, other) -> "PolyElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return PolyElement(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __rsub__(self, other) -> "PolyElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "PolyElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        degree = self.field.degree
        product = [0] * (2 * degree - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                product[i + j] += a * b
        # Reduce x^k for k >= degree using the monic modulus.
        mod = self.field.modulus_coeffs
        for exp in range(2 * degree - 2, degree - 1, -1):
            top = product[exp] % p
            if top:
                product[exp] = 0
                base = exp - degree
                for i, c in enumerate(mod):
                    product[base + i] -= top * c
        return PolyElement(self.field, tuple(c % p for c in product[:degree]))

    __rmul__ = __mul__

    def __neg__(self) -> "PolyElement":
        p = self.field.p
        return PolyElement(self.field, tuple(-c % p for c in self.coeffs))

    def __truediv__(self, other) -> "PolyElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "PolyElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "PolyElement":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base.square()
            exponent >>= 1
        return result

    def square(self) -> "PolyElement":
        return self * self

    def inverse(self) -> "PolyElement":
        """Extended Euclid over ``Fp[x]`` (py_ecc's algorithm)."""
        if self.is_zero():
            raise ParameterError("zero has no inverse")
        p = self.field.p
        degree = self.field.degree
        lm, hm = [1] + [0] * degree, [0] * (degree + 1)
        low = list(self.coeffs) + [0]
        high = list(self.field.modulus_coeffs) + [1]
        while _deg(low):
            quotient = _poly_rounded_div(high, low, p)
            quotient += [0] * (degree + 1 - len(quotient))
            nm = list(hm)
            new = list(high)
            for i in range(degree + 1):
                for j in range(degree + 1 - i):
                    nm[i + j] = (nm[i + j] - lm[i] * quotient[j]) % p
                    new[i + j] = (new[i + j] - low[i] * quotient[j]) % p
            hm, lm = lm, nm
            high, low = low, new
        try:
            inv_lead = pow(low[0], -1, p)
        except ValueError as exc:  # a reducible modulus
            raise ParameterError("element is not invertible") from exc
        return PolyElement(
            self.field, tuple(c * inv_lead % p for c in lm[:degree])
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def to_bytes(self) -> bytes:
        width = self.field._base_bytes
        return b"".join(int_to_bytes(c, width) for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.coeffs[0] == other % self.field.p and all(
                c == 0 for c in self.coeffs[1:]
            )
        return (
            isinstance(other, PolyElement)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.modulus_coeffs, self.coeffs))

    def __repr__(self) -> str:
        return f"PolyElement{self.coeffs}"
