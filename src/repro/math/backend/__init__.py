"""Pluggable field-arithmetic backends.

Three implementations of the narrow
:class:`~repro.math.backend.base.FieldBackend` interface (eight calls:
``lift``, ``fp_pow``, ``fp_inv``, ``fp_batch_inv``, ``convert_steps``,
``convert_coords``, the line-replay kernel
``eval_line_sequences_product`` and ``unitary_exp``).  Every backend
takes the same two family-A Miller paths (the fused projective loop for
one-shot arguments, record-then-replay for fixed ones) and the same
``unitary_exp`` Lucas ladder for every final exponentiation and GT
power; they differ only inside these calls:

``"python"``
    Plain big-int ``%`` kernels and ``pow(x, -1, p)`` inversion.
    Portability/auditability baseline, and the default without gmpy2.
``"montgomery"``
    Montgomery-form Fp (R = 2^k residues, CIOS-style REDC in pure
    python ints) for the line-replay kernel, with lazy-reduction Fp²
    products; the same ``pow(x, -1, p)`` inversion.  Pure python, no
    dependencies, selected only by name.
``"gmpy2"``
    GMP-backed ``mpz`` arithmetic behind a soft import; raises
    :class:`~repro.errors.BackendUnavailableError` when requested
    explicitly but not installed.

``"auto"`` (the :class:`~repro.pairing.api.PairingGroup` default) probes
gmpy2 and falls back to the python backend: Montgomery's replay kernel
is no faster than ``%`` on CPython, and its line tables cost a
conversion and more memory.

Backend instances are cached per ``(name, p)``: they are deterministic,
stateless-after-construction arithmetic providers, so sharing one across
every field object with the same modulus is safe.
"""

from __future__ import annotations

from repro.errors import BackendUnavailableError, ParameterError
from repro.math.backend.base import FieldBackend
from repro.math.backend.gmp import Gmpy2Backend, gmpy2_available
from repro.math.backend.montgomery import MontgomeryBackend
from repro.math.backend.python import PythonBackend

__all__ = [
    "FieldBackend",
    "PythonBackend",
    "MontgomeryBackend",
    "Gmpy2Backend",
    "BACKEND_NAMES",
    "available_backends",
    "gmpy2_available",
    "resolve_backend_name",
    "get_backend",
]

# The selectable names, in documentation order.
BACKEND_NAMES = ("python", "montgomery", "gmpy2")

_BACKEND_CLASSES = {
    "python": PythonBackend,
    "montgomery": MontgomeryBackend,
    "gmpy2": Gmpy2Backend,
}

# Per-(name, modulus) instance cache.
_INSTANCES: dict[tuple[str, int], FieldBackend] = {}


def available_backends() -> tuple[str, ...]:
    """The backend names usable in this environment."""
    return tuple(
        name for name in BACKEND_NAMES
        if name != "gmpy2" or gmpy2_available()
    )


def resolve_backend_name(name: str | None) -> str:
    """Map a user-facing selector (including ``None``/``"auto"``) to a
    concrete backend name.

    ``None`` and ``"auto"`` probe gmpy2 and fall back to python.
    An explicit unavailable name raises
    :class:`~repro.errors.BackendUnavailableError`; an unknown name
    raises :class:`~repro.errors.ParameterError`.
    """
    if name is None or name == "auto":
        return "gmpy2" if gmpy2_available() else "python"
    if name not in _BACKEND_CLASSES:
        raise ParameterError(
            f"unknown field backend {name!r}; known: "
            f"{', '.join(BACKEND_NAMES)} (or 'auto')"
        )
    if name == "gmpy2" and not gmpy2_available():
        raise BackendUnavailableError(
            "backend 'gmpy2' requested but the gmpy2 module is not "
            "installed; use backend='auto' to fall back automatically"
        )
    return name


def get_backend(name: str | FieldBackend | None, p: int) -> FieldBackend:
    """The (cached) backend instance for ``name`` over modulus ``p``.

    ``name`` may be a selector string (``"python"``, ``"montgomery"``,
    ``"gmpy2"``, ``"auto"``/``None``) or an already-constructed
    :class:`FieldBackend`, which is returned as-is when its modulus
    matches.
    """
    if isinstance(name, FieldBackend):
        if name.p != p:
            raise ParameterError(
                "backend instance is bound to a different modulus"
            )
        return name
    resolved = resolve_backend_name(name)
    key = (resolved, p)
    backend = _INSTANCES.get(key)
    if backend is None:
        backend = _BACKEND_CLASSES[resolved](p)
        _INSTANCES[key] = backend
    return backend
