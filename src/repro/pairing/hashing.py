"""Hash functions onto the pairing groups and scalar field.

Implements the paper's two random oracles plus a scalar hash used by the
CCA transforms:

* ``H1 : {0,1}* -> G1`` — :func:`hash_to_subgroup`.  Family B uses the
  deterministic Boneh–Franklin MapToPoint (cubing is a bijection when
  ``p % 3 == 2``); family A uses try-and-increment on x-coordinates.
  Both finish with cofactor clearing into the order-``q`` subgroup:
  ``H1(m) = c·P′`` for the first map point :func:`map_to_curve` gives
  whose multiple ``c·P′`` is not the point at infinity.
* The map point alone — :func:`map_to_curve`.  A party that only
  *pairs* with ``H1(m)`` can skip the cofactor multiplication, about
  three quarters of :func:`hash_to_subgroup`: the reduced Tate pairing
  is linear in its second argument over all of ``E(Fp²)``, so
  ``ê(X, c·P′) = ê((c mod q)·X, P′)`` and the cofactor moves onto a
  fixed ``X``.  The two sides differ only when ``c·P′₀ = O`` (about
  ``1/q``), where :func:`hash_to_subgroup` moves on to counter 1; the
  callers (:meth:`repro.core.bls.BLSSignatureScheme.verify`,
  ``repro.core.tre.TimedReleaseScheme._sender_keys``) detect that case
  and fall back to ``H1``.
* ``H2 : G2 -> {0,1}^n`` — :func:`hash_gt_to_bytes`, a counter-mode
  KDF over the canonical ``Fp2`` encoding.
* ``H3/H4``-style helpers — :func:`hash_to_scalar` maps arbitrary bytes
  into ``Z_q^*`` (used by Fujisaki–Okamoto and BLS internals).

Every hash is domain-separated with an explicit ASCII tag so that, e.g.,
the time-string oracle and the FO randomness oracle can never collide.
"""

from __future__ import annotations

import hashlib

from repro.ec.point import CurvePoint
from repro.errors import ParameterError
from repro.math.quadratic import QuadraticElement
from repro.pairing.supersingular import SupersingularCurve

_MAX_MAP_ATTEMPTS = 512


def _digest(tag: str, *parts: bytes) -> bytes:
    hasher = hashlib.sha512()
    hasher.update(tag.encode())
    hasher.update(len(parts).to_bytes(2, "big"))
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.digest()


def hash_to_curve_point(
    ssc: SupersingularCurve, data: bytes, tag: str = "repro:H1"
) -> CurvePoint:
    """Map bytes onto ``E(Fp)`` (full curve, before cofactor clearing)."""
    for counter in range(_MAX_MAP_ATTEMPTS):
        seed = _digest(tag, counter.to_bytes(4, "big"), data)
        point = ssc._map_seed_to_point(seed)
        if point is not None and not point.is_infinity:
            return point
    raise ParameterError("hash_to_curve_point exhausted its attempt budget")


def map_to_curve(
    ssc: SupersingularCurve, data: bytes, tag: str = "repro:H1", counter: int = 0
) -> CurvePoint:
    """``P′_counter``, the point :func:`hash_to_subgroup` clears at ``counter``.

    ``hash_to_subgroup(data) == c·map_to_curve(data)`` unless that
    multiple is the point at infinity (probability about ``1/q``).
    """
    return hash_to_curve_point(ssc, counter.to_bytes(4, "big") + data, tag)


def hash_to_subgroup(
    ssc: SupersingularCurve, data: bytes, tag: str = "repro:H1"
) -> CurvePoint:
    """The paper's ``H1``: map bytes into the order-``q`` subgroup.

    Family B needs on average one curve-mapping attempt (deterministic
    cube-root lift); family A needs about two (each x lifts with
    probability 1/2).  The cofactor multiplication dominates either way.
    """
    for counter in range(_MAX_MAP_ATTEMPTS):
        cleared = ssc.clear_cofactor(map_to_curve(ssc, data, tag, counter))
        if not cleared.is_infinity:
            return cleared
    raise ParameterError("hash_to_subgroup exhausted its attempt budget")


def hash_gt_to_bytes(
    element: QuadraticElement, length: int, tag: str = "repro:H2"
) -> bytes:
    """The paper's ``H2``: derive ``length`` mask bytes from a GT element."""
    encoded = element.to_bytes()
    blocks = []
    for counter in range((length + 63) // 64):
        blocks.append(_digest(tag, counter.to_bytes(4, "big"), encoded))
    return b"".join(blocks)[:length]


def hash_to_scalar(q: int, *parts: bytes, tag: str = "repro:Zq") -> int:
    """Map bytes into ``Z_q^*`` with negligible bias.

    Draws ``2 * len(q)`` bits before reducing, so the statistical
    distance from uniform is about ``2^-q_bits``.
    """
    need = 2 * ((q.bit_length() + 7) // 8)
    stream = b""
    counter = 0
    while len(stream) < need:
        stream += _digest(tag, counter.to_bytes(4, "big"), *parts)
        counter += 1
    value = int.from_bytes(stream[:need], "big") % (q - 1)
    return value + 1


def hash_bytes(*parts: bytes, tag: str = "repro:H") -> bytes:
    """Plain domain-separated SHA-512 over length-framed parts."""
    return _digest(tag, *parts)
