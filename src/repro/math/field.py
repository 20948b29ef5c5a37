"""The prime field ``Fp`` with an explicit field object.

A :class:`PrimeField` instance owns the modulus; :class:`FieldElement`
values carry a reference to their field and refuse to mix with elements of
a different field.  All arithmetic is constant-free pure Python on big
integers — clarity over micro-optimization, with the one concession that
elements are immutable and hashable so they can key dictionaries.
"""

from __future__ import annotations

from repro.encoding import byte_length, int_from_bytes, int_to_bytes
from repro.errors import EncodingError, FieldMismatchError, ParameterError
from repro.math.backend import FieldBackend, get_backend
from repro.math.modular import cube_root_mod
from repro.math.primes import is_probable_prime


class PrimeField:
    """The field of integers modulo a prime ``p``.

    ``backend`` selects the arithmetic provider for inversions, modular
    powers and the pairing kernels (see :mod:`repro.math.backend`): a
    name (``"python"``, ``"montgomery"``, ``"gmpy2"``, ``"auto"``), an
    existing :class:`~repro.math.backend.base.FieldBackend` instance, or
    ``None`` for the pure-python reference backend.  Elements are
    canonical integers in ``[0, p)`` under every backend, so two fields
    over the same modulus compare (and interoperate) equal regardless of
    backend.
    """

    __slots__ = ("p", "element_bytes", "backend")

    def __init__(self, p: int, check_prime: bool = True,
                 backend: "str | FieldBackend | None" = None):
        if check_prime and not is_probable_prime(p):
            raise ParameterError(f"field modulus {p} is not prime")
        self.p = p
        self.element_bytes = byte_length(p)
        self.backend = get_backend("python" if backend is None else backend, p)

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(self, value % self.p)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def from_bytes(self, data: bytes) -> "FieldElement":
        if len(data) != self.element_bytes:
            raise EncodingError(
                f"expected {self.element_bytes} bytes, got {len(data)}"
            )
        value = int_from_bytes(data)
        if value >= self.p:
            raise EncodingError("encoded value exceeds field modulus")
        return FieldElement(self, value)

    def random(self, rng) -> "FieldElement":
        """A uniformly random field element drawn from ``rng``."""
        return FieldElement(self, rng.randrange(self.p))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return (
            f"PrimeField(p~2^{self.p.bit_length()}, "
            f"backend={self.backend.name})"
        )


class FieldElement:
    """An immutable element of a :class:`PrimeField`."""

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int):
        self.field = field
        self.value = value

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError("elements belong to different fields")
            return other
        if isinstance(other, int):
            return FieldElement(self.field, other % self.field.p)
        return NotImplemented

    def __add__(self, other) -> "FieldElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, (self.value + other.value) % self.field.p)

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, (self.value - other.value) % self.field.p)

    def __rsub__(self, other) -> "FieldElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "FieldElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value * other.value % self.field.p)

    __rmul__ = __mul__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, -self.value % self.field.p)

    def __truediv__(self, other) -> "FieldElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "FieldElement":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return FieldElement(
            self.field, self.field.backend.fp_pow(self.value, exponent)
        )

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.backend.fp_inv(self.value))

    def square(self) -> "FieldElement":
        return FieldElement(self.field, self.value * self.value % self.field.p)

    def is_zero(self) -> bool:
        return self.value == 0

    def cube_root(self) -> "FieldElement":
        return FieldElement(self.field, cube_root_mod(self.value, self.field.p))

    def to_bytes(self) -> bytes:
        return int_to_bytes(self.value, self.field.element_bytes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.value == other % self.field.p
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.value))

    def __repr__(self) -> str:
        return f"Fp({self.value})"
