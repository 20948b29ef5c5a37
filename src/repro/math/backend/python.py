"""The pure-python reference backend.

Native big-int ``%`` everywhere: the generic
:class:`~repro.math.backend.base.FieldBackend` kernel bodies, its
``pow(x, -1, p)`` inversion and the identity lift.  It takes the same
Miller paths as every other backend, so it differs from the Montgomery
backend only in the replay kernel's reduction (``%`` instead of REDC).
It is the default when gmpy2 is missing, and the portability and
auditability baseline — every other backend is property-tested
byte-identical against it.
"""

from __future__ import annotations

from repro.math.backend.base import FieldBackend


class PythonBackend(FieldBackend):
    """Native-int arithmetic; the behavioral reference for all backends."""

    name = "python"
