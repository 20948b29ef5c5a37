"""The pure-python reference backend.

Native big-int ``%`` everywhere and extended-Euclid inversion: the
generic :class:`~repro.math.backend.base.FieldBackend` kernel bodies
with the identity lift.  It takes the same Miller paths as every
other backend, so it differs from the Montgomery backend only in the
kernels' reduction (``%`` instead of REDC).  It is the
portability and auditability baseline — every other backend is
property-tested byte-identical against it.
"""

from __future__ import annotations

from repro.math.backend.base import FieldBackend
from repro.math.modular import inverse_mod


class PythonBackend(FieldBackend):
    """Native-int arithmetic; the behavioral reference for all backends."""

    name = "python"

    def fp_inv(self, x: int) -> int:
        # The seed library's inversion: extended Euclid, with its
        # ParameterError on non-invertible input preserved verbatim.
        return inverse_mod(x, self.p)
