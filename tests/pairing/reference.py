"""Affine family-A Miller loop and line recorder, kept as test oracles.

The library evaluates every family-A pairing by recording ``P``'s line
sequence on the integer Jacobian kernels
(:func:`repro.pairing.miller.record_line_sequence`) and replaying it
in the backend's kernel.  The functions here are the textbook affine
forms of the same loop: one ``CurvePoint`` double/add and one slope
inversion per step, all arithmetic on field-element objects.  They
share no code with the runtime recorder or the integer kernels, so
``FE(miller_loop_denominator_free(P, phi(Q)))`` agreeing with
``tate.pair(P, Q)`` is independent evidence.
"""

from __future__ import annotations

from repro.ec.point import CurvePoint
from repro.errors import ParameterError
from repro.math.quadratic import QuadraticElement, QuadraticField
from repro.pairing.miller import (
    _LINE,
    _ONE,
    _VERT,
    PrecomputedLines,
    _line_value,
)


def miller_loop_denominator_free(
    p_point: CurvePoint,
    s_point: CurvePoint,
    order: int,
    fp2: QuadraticField,
) -> QuadraticElement:
    """``f_{order, P}(S)`` with all vertical-line factors omitted.

    ``p_point`` must have the given (odd prime) order on ``E(Fp)``;
    ``s_point`` lives on ``E(Fp2)``.  The result is only meaningful after
    the reduced-Tate final exponentiation, which is what kills the
    omitted subfield factors (distorted x-coordinates stay in ``Fp`` on
    family A).
    """
    if s_point.is_infinity:
        raise ParameterError("cannot evaluate Miller function at infinity")
    s_x, s_y = s_point.x, s_point.y
    f = fp2.one()
    v = p_point
    for bit_index in range(order.bit_length() - 2, -1, -1):
        f = f.square() * _line_value(v, v, s_x, s_y, fp2)
        v = v.double()
        if (order >> bit_index) & 1:
            f = f * _line_value(v, p_point, s_x, s_y, fp2)
            v = v + p_point
    if not v.is_infinity:
        raise ParameterError("point order does not divide the loop order")
    return f


def _line_coefficients(v: CurvePoint, w: CurvePoint):
    """The ``(kind, x_V, y_V, slope)`` record for the line through V, W."""
    if v.is_infinity or w.is_infinity:
        return (_ONE, 0, 0, 0)
    if v.x == w.x and v.y != w.y:
        return (_VERT, v.x.value, 0, 0)
    if v.x == w.x:
        if v.y.is_zero():
            return (_VERT, v.x.value, 0, 0)
        slope = (v.x.square() * 3 + v.curve.a) / (v.y * 2)
    else:
        slope = (w.y - v.y) / (w.x - v.x)
    return (_LINE, v.x.value, v.y.value, slope.value)


def record_line_sequence_affine(
    p_point: CurvePoint, order: int
) -> PrecomputedLines:
    """Run the denominator-free loop once, keeping only line coefficients.

    The affine twin of :func:`repro.pairing.miller.record_line_sequence`:
    the recorded ``steps`` must be identical.
    """
    steps = []
    v = p_point
    for bit_index in range(order.bit_length() - 2, -1, -1):
        steps.append((False,) + _line_coefficients(v, v))
        v = v.double()
        if (order >> bit_index) & 1:
            steps.append((True,) + _line_coefficients(v, p_point))
            v = v + p_point
    if not v.is_infinity:
        raise ParameterError("point order does not divide the loop order")
    return PrecomputedLines(tuple(steps), order)
