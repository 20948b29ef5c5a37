"""Type-1 (symmetric) bilinear pairing substrate, built from scratch.

The paper needs a symmetric pairing ``ê : G1 × G1 → G2`` on a Gap
Diffie-Hellman group, which it notes "can be found in supersingular
elliptic curves over a finite field, with the bilinear pairing derived
from a Weil or Tate pairing" (§4).  This package implements exactly that:

* :mod:`repro.pairing.params` — frozen parameter sets ``p = c*q - 1``.
* :mod:`repro.pairing.supersingular` — the two classic supersingular
  families over ``Fp`` with embedding degree 2 and their distortion maps.
* :mod:`repro.pairing.miller` — Miller's algorithm: one fused
  projective loop for one-shot arguments of both families, and
  record-then-evaluate for fixed family-A ones.
* :mod:`repro.pairing.tate` — the modified (reduced) Tate pairing.
* :mod:`repro.pairing.hashing` — hash-to-group and hash-to-scalar maps.
* :mod:`repro.pairing.api` — the :class:`~repro.pairing.api.PairingGroup`
  facade every scheme in :mod:`repro.core` builds on.
"""

from repro.pairing.api import GTElement, PairingGroup
from repro.pairing.params import PARAMETER_SETS, ParameterSet, get_parameter_set

__all__ = [
    "PairingGroup",
    "GTElement",
    "ParameterSet",
    "PARAMETER_SETS",
    "get_parameter_set",
]
