"""Optional gmpy2 backend behind a soft import.

When `gmpy2 <https://pypi.org/project/gmpy2/>`_ is installed, its
GMP-backed ``mpz`` integers replace native ints inside the kernels:
``lift`` wraps operands once at kernel entry (line-sequence steps are
converted once and cached), after which every ``*`` and ``%`` in the
generic base-class loops dispatches to GMP.  Inversion uses
``gmpy2.invert`` and modular powers use ``gmpy2.powmod``.

When gmpy2 is missing this module still imports cleanly —
:func:`gmpy2_available` reports ``False``, the ``"auto"`` selector falls
back to the python backend, and an *explicit* ``backend="gmpy2"``
request raises :class:`~repro.errors.BackendUnavailableError`.  Nothing
is ever installed on the user's behalf.

All kernel results are coerced back to canonical python ints so the
object layer (and every serialization) never sees an ``mpz``.
"""

from __future__ import annotations

from repro.errors import BackendUnavailableError, ParameterError
from repro.math.backend.base import FieldBackend

try:  # soft dependency: absence must not break import
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover - exercised on gmpy2-free CI legs
    _gmpy2 = None


def gmpy2_available() -> bool:
    """Whether the optional gmpy2 module is importable here."""
    return _gmpy2 is not None


class Gmpy2Backend(FieldBackend):
    """GMP-accelerated arithmetic via ``gmpy2.mpz`` lifting."""

    name = "gmpy2"

    def __init__(self, p: int):
        if _gmpy2 is None:
            raise BackendUnavailableError(
                "backend 'gmpy2' requested but the gmpy2 module is not "
                "installed; use backend='auto' to fall back automatically"
            )
        super().__init__(p)

    def lift(self, x: int):
        return _gmpy2.mpz(x)

    def fp_pow(self, x: int, exponent: int) -> int:
        return int(_gmpy2.powmod(x, exponent, self._p_lifted))

    def fp_inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ParameterError("0 has no inverse")
        try:
            return int(_gmpy2.invert(x, self._p_lifted))
        except ZeroDivisionError as exc:  # non-coprime under composite p
            raise ParameterError(
                f"{x} is not invertible modulo {self.p}"
            ) from exc

    def convert_steps(self, steps: tuple) -> tuple:
        lift = self.lift
        return tuple(
            (is_add, kind, lift(xv), lift(yv), lift(slope))
            for is_add, kind, xv, yv, slope in steps
        )
