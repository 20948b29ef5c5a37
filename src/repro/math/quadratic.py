"""The quadratic extension ``Fp2 = Fp[u] / (u^2 - beta)``.

``beta`` must be a quadratic non-residue of ``Fp``.  The two supersingular
curve families use ``beta = -1`` (family A, so ``u = i``) and ``beta = -3``
(family B, where the primitive cube root of unity is ``(-1 + u) / 2``).
The field stores ``beta`` as its signed representative of least absolute
value, so ``beta * x`` is a small-integer multiply, not a product with a
``p``-sized residue such as ``p - 1``.

The Frobenius map ``x -> x^p`` acts as conjugation (``a + b*u -> a - b*u``)
because ``u^p = u * (u^2)^((p-1)/2) = -u`` for non-residue ``beta``.  The
pairing's final exponentiation exploits this: ``f^(p-1) = conj(f) / f``.
"""

from __future__ import annotations

from repro.encoding import int_from_bytes, int_to_bytes
from repro.errors import EncodingError, FieldMismatchError, ParameterError
from repro.math.field import PrimeField
from repro.math.modular import is_quadratic_residue

__all__ = [
    "QuadraticField",
    "QuadraticElement",
    "cyclotomic_square",
    "unitary_exp",
    "GTFixedBaseTable",
]


class QuadraticField:
    """``Fp[u]/(u^2 - beta)`` for a quadratic non-residue ``beta``.

    The field-arithmetic backend is inherited from the base field, so a
    :class:`~repro.pairing.api.PairingGroup` constructed with
    ``backend="gmpy2"`` routes its ``Fp2`` inversions and unitary
    exponentiations through the same provider as its ``Fp`` layer.
    Unitary exponentiation is one Lucas ladder on every backend; only
    the integer type and ``fp_inv`` differ.
    """

    __slots__ = ("base", "p", "beta", "element_bytes", "backend")

    def __init__(self, base: PrimeField, beta: int):
        beta %= base.p
        if is_quadratic_residue(beta, base.p):
            raise ParameterError("beta must be a quadratic non-residue")
        if beta > base.p // 2:
            beta -= base.p
        self.base = base
        self.p = base.p
        self.beta = beta
        self.element_bytes = 2 * base.element_bytes
        self.backend = base.backend

    def __call__(self, a: int, b: int = 0) -> "QuadraticElement":
        return QuadraticElement(self, a % self.p, b % self.p)

    def zero(self) -> "QuadraticElement":
        return QuadraticElement(self, 0, 0)

    def one(self) -> "QuadraticElement":
        return QuadraticElement(self, 1, 0)

    def u(self) -> "QuadraticElement":
        """The adjoined square root of ``beta``."""
        return QuadraticElement(self, 0, 1)

    def from_base(self, value) -> "QuadraticElement":
        """Embed an ``Fp`` element (or int) into ``Fp2``."""
        if hasattr(value, "value"):
            value = value.value
        return QuadraticElement(self, value % self.p, 0)

    def from_bytes(self, data: bytes) -> "QuadraticElement":
        half = self.base.element_bytes
        if len(data) != 2 * half:
            raise EncodingError(f"expected {2 * half} bytes, got {len(data)}")
        a = int_from_bytes(data[:half])
        b = int_from_bytes(data[half:])
        if a >= self.p or b >= self.p:
            raise EncodingError("encoded coefficient exceeds field modulus")
        return QuadraticElement(self, a, b)

    def random(self, rng) -> "QuadraticElement":
        return QuadraticElement(self, rng.randrange(self.p), rng.randrange(self.p))

    def order(self) -> int:
        """The number of elements, ``p^2``."""
        return self.p * self.p

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuadraticField)
            and other.p == self.p
            and other.beta == self.beta
        )

    def __hash__(self) -> int:
        return hash(("QuadraticField", self.p, self.beta))

    def __repr__(self) -> str:
        return f"QuadraticField(p~2^{self.p.bit_length()}, beta={self.beta})"


class QuadraticElement:
    """``a + b*u`` with ``u^2 = beta``; immutable and hashable."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: QuadraticField, a: int, b: int):
        self.field = field
        self.a = a
        self.b = b

    def _coerce(self, other) -> "QuadraticElement":
        if isinstance(other, QuadraticElement):
            if other.field != self.field:
                raise FieldMismatchError("elements belong to different Fp2 fields")
            return other
        if isinstance(other, int):
            return QuadraticElement(self.field, other % self.field.p, 0)
        if hasattr(other, "value") and hasattr(other, "field"):
            # An Fp element over the same prime.
            if other.field.p != self.field.p:
                raise FieldMismatchError("base field modulus mismatch")
            return QuadraticElement(self.field, other.value, 0)
        return NotImplemented

    def __add__(self, other) -> "QuadraticElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return QuadraticElement(
            self.field, (self.a + other.a) % p, (self.b + other.b) % p
        )

    __radd__ = __add__

    def __sub__(self, other) -> "QuadraticElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return QuadraticElement(
            self.field, (self.a - other.a) % p, (self.b - other.b) % p
        )

    def __rsub__(self, other) -> "QuadraticElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "QuadraticElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        beta = self.field.beta
        # (a + bu)(c + du) = (ac + beta*bd) + (ad + bc)u
        ac = self.a * other.a
        bd = self.b * other.b
        cross = (self.a + self.b) * (other.a + other.b) - ac - bd
        return QuadraticElement(self.field, (ac + beta * bd) % p, cross % p)

    __rmul__ = __mul__

    def __neg__(self) -> "QuadraticElement":
        p = self.field.p
        return QuadraticElement(self.field, -self.a % p, -self.b % p)

    def __truediv__(self, other) -> "QuadraticElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "QuadraticElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "QuadraticElement":
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

    def square(self) -> "QuadraticElement":
        p = self.field.p
        beta = self.field.beta
        # (a + bu)^2 = (a^2 + beta*b^2) + 2ab*u
        a2 = self.a * self.a
        b2 = self.b * self.b
        return QuadraticElement(
            self.field, (a2 + beta * b2) % p, 2 * self.a * self.b % p
        )

    def norm(self) -> int:
        """The norm ``a^2 - beta*b^2``, an element of ``Fp`` (as int)."""
        p = self.field.p
        return (self.a * self.a - self.field.beta * self.b * self.b) % p

    def inverse(self) -> "QuadraticElement":
        p = self.field.p
        norm = self.norm()
        if norm == 0:
            raise ParameterError("zero has no inverse in Fp2")
        inv_norm = self.field.backend.fp_inv(norm)
        return QuadraticElement(
            self.field, self.a * inv_norm % p, -self.b * inv_norm % p
        )

    def conjugate(self) -> "QuadraticElement":
        """``a - b*u``, which equals the Frobenius ``self ** p``."""
        return QuadraticElement(self.field, self.a, -self.b % self.field.p)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    def in_base_field(self) -> bool:
        return self.b == 0

    def to_bytes(self) -> bytes:
        half = self.field.base.element_bytes
        return int_to_bytes(self.a, half) + int_to_bytes(self.b, half)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.b == 0 and self.a == other % self.field.p
        return (
            isinstance(other, QuadraticElement)
            and other.field == self.field
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.beta, self.a, self.b))

    def __repr__(self) -> str:
        return f"Fp2({self.a} + {self.b}u)"


# ----------------------------------------------------------------------
# Fast exponentiation for *unitary* elements (norm == 1).
#
# The order-q target group GT of the reduced Tate pairing lives in the
# norm-1 ("cyclotomic") subgroup of Fp2*: the final exponentiation's
# ^(p-1) step maps every Miller value there.  Three structural freebies
# follow, and the GT paths are built on them:
#
# * the inverse is the conjugate, so negative exponents cost nothing;
# * squaring needs only 2 base-field multiplications instead of the
#   generic 3: with a^2 - beta*b^2 == 1 the real part of
#   (a + bu)^2 = (a^2 + beta*b^2) + 2ab*u collapses to 2a^2 - 1
#   (GTFixedBaseTable builds its rows with it);
# * the real parts of the powers alone obey a Lucas recurrence, so
#   unitary_exp ladders over them and recovers the imaginary part
#   with one inversion at the end.
# ----------------------------------------------------------------------


def cyclotomic_square(x: QuadraticElement) -> QuadraticElement:
    """``x * x`` assuming ``norm(x) == 1`` — 2 base mults instead of 3.

    For unitary ``x = a + bu``: ``beta*b^2 = a^2 - 1``, so the square is
    ``(2a^2 - 1) + 2ab*u``.  Exact (the same field element
    :meth:`QuadraticElement.square` returns) whenever the norm really is
    one; callers are responsible for that invariant, which holds for
    every element produced by the pairing's final exponentiation.
    """
    p = x.field.p
    return QuadraticElement(
        x.field, (2 * x.a * x.a - 1) % p, 2 * x.a * x.b % p
    )


def unitary_exp(base: QuadraticElement, exponent: int) -> QuadraticElement:
    """``base ** exponent`` for unitary ``base`` (norm 1).

    Runs the field backend's Lucas ladder on the trace
    (:meth:`repro.math.backend.base.FieldBackend.unitary_exp`): one
    ``Fp`` squaring and one ``Fp`` multiplication per exponent bit, and
    one ``Fp`` inversion at the end.  Every backend runs the same code
    and returns exactly the element the naive square-and-multiply
    would.  Negative exponents conjugate the base first.  A base whose
    norm is not one gives a meaningless result: callers check
    unitarity first (:meth:`repro.pairing.api.PairingGroup.ensure_in_gt`)
    or hold a value that is unitary by construction.
    """
    field = base.field
    a, b = field.backend.unitary_exp(base.a, base.b, exponent, field.beta)
    return QuadraticElement(field, a, b)


class GTFixedBaseTable:
    """Windowed powers of one fixed unitary element, for repeated ``g^k``.

    The GT analog of :class:`repro.ec.precompute.FixedBaseTable`: stores
    ``g^(d * 2^(j*w))`` for every window index ``j`` and digit
    ``d in 1..2^w - 1``, so an exponentiation reads one entry per
    ``w``-bit window and performs only multiplications — **zero
    squarings**.  A sender encrypting many messages to one
    ``(receiver, T)`` pair builds the table once; every later
    ``g^r`` costs ~``bits/w`` Fp2 multiplications.

    Parameters mirror the EC table: ``bits`` is the capacity (scalars
    reduced mod the group order fit in ``order.bit_length()`` bits;
    larger exponents fall back to :func:`unitary_exp`), ``width`` the
    window size (memory is ``(2^w - 1) * ceil(bits/w)`` Fp2 elements).
    Negative exponents conjugate the (unitary) result for free.
    """

    __slots__ = ("base", "field", "width", "bits", "windows", "_rows")

    def __init__(self, base: QuadraticElement, bits: int, width: int = 4):
        if not 1 <= width <= 8:
            raise ParameterError("window width must be in 1..8")
        if bits < 1:
            raise ParameterError("table capacity must be at least one bit")
        if not (base * base.conjugate()).is_one():
            raise ParameterError(
                "GT fixed-base tables require a unitary element (norm 1)"
            )
        self.base = base
        self.field = base.field
        self.width = width
        self.bits = bits
        self.windows = (bits + width - 1) // width
        size = 1 << width
        rows: list[list[QuadraticElement]] = []
        window_base = base
        for _ in range(self.windows):
            entry = window_base
            row = [entry]
            for _ in range(size - 2):
                entry = entry * window_base
                row.append(entry)
            rows.append(row)
            for _ in range(width):
                window_base = cyclotomic_square(window_base)
        self._rows = rows

    @property
    def table_elements(self) -> int:
        """Stored Fp2 elements (memory ~= 2 base-field ints each)."""
        return sum(len(row) for row in self._rows)

    def exp(self, exponent: int) -> QuadraticElement:
        """``base ** exponent``, identical to the direct exponentiation."""
        if exponent == 0:
            return self.field.one()
        negate = exponent < 0
        if negate:
            exponent = -exponent
        if exponent.bit_length() > self.bits:
            result = unitary_exp(self.base, exponent)
            return result.conjugate() if negate else result
        mask = (1 << self.width) - 1
        result = None
        for window_index in range(self.windows):
            digit = (exponent >> (window_index * self.width)) & mask
            if not digit:
                continue
            entry = self._rows[window_index][digit - 1]
            result = entry if result is None else result * entry
        if result is None:  # pragma: no cover - exponent != 0 above
            result = self.field.one()
        return result.conjugate() if negate else result

    def __repr__(self) -> str:
        return (
            f"GTFixedBaseTable(bits={self.bits}, width={self.width}, "
            f"elements={self.table_elements})"
        )
