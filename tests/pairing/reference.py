"""Affine Miller loops and line recorder, kept as test oracles.

The library evaluates a one-shot pairing of either family on the fused
projective loop (:func:`repro.pairing.miller.miller_loop_projective`)
and records family-A line sequences on the integer Jacobian kernels
(:func:`repro.pairing.miller.record_line_sequence`).  The functions
here are the textbook affine forms: one ``CurvePoint`` double/add and
one slope inversion per step, all arithmetic on field-element objects.
They share no code with the runtime loops or the integer kernels, so
``FE(miller_loop_denominator_free(P, phi(Q)))`` or, on either family,
``FE(miller_loop_general(P, phi(Q), q, fp2, R))`` agreeing with
``tate.pair(P, Q)`` is independent evidence.

:func:`miller_loop_general` is the divisor form: it evaluates
``f_{q,P}`` at ``(S + R) - (R)`` for an auxiliary point ``R`` from
:func:`derive_aux_points`, keeping every vertical line, so it is exact
on family B, whose distorted x-coordinates leave ``Fp``.

:func:`miller_loop_projective_binary` is the fused loop as it was
before it walked the order in non-adjacent form: the same integer
steps, one chord with ``P`` per set bit of the order and never one
with ``-P``.  Its Miller value differs from the NAF loop's by an
``Fp*`` factor, so the two agree after the final exponentiation; a
dropped or misplaced ``-1``-digit factor shows up there.
"""

from __future__ import annotations

import hashlib

from repro.ec.point import CurvePoint
from repro.errors import ParameterError
from repro.math.quadratic import QuadraticElement, QuadraticField
from repro.pairing.miller import _LINE, _ONE, _STEPS, _VERT, PrecomputedLines
from repro.pairing.supersingular import SupersingularCurve


def _line_value(v: CurvePoint, w: CurvePoint, s_x, s_y, fp2: QuadraticField):
    """Evaluate at ``(s_x, s_y)`` the line through base-field points V, W.

    Returns the chord/tangent value ``(s_y - y_V) - lambda * (s_x - x_V)``,
    or the vertical value ``s_x - x_V`` when the line through V and W is
    vertical (``W == -V`` or a 2-torsion doubling).
    """
    if v.is_infinity or w.is_infinity:
        # Line "through infinity" contributes the constant 1.
        return fp2.one()
    if v.x == w.x and v.y != w.y:
        return s_x - fp2.from_base(v.x)
    if v.x == w.x:
        # Tangent at V.
        if v.y.is_zero():
            return s_x - fp2.from_base(v.x)
        slope = (v.x.square() * 3 + v.curve.a) / (v.y * 2)
    else:
        slope = (w.y - v.y) / (w.x - v.x)
    return (s_y - fp2.from_base(v.y)) - (s_x - fp2.from_base(v.x)) * slope.value


def _vertical_value(v: CurvePoint, s_x, fp2: QuadraticField):
    """Evaluate the vertical line through V at x-coordinate ``s_x``."""
    if v.is_infinity:
        return fp2.one()
    return s_x - fp2.from_base(v.x)


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


def derive_aux_points(ssc: SupersingularCurve, count: int = 8) -> list[CurvePoint]:
    """Deterministic auxiliary divisor points for :func:`miller_loop_general`.

    Base-field points embedded in ``E(Fp2)`` suffice: ``f_{q,P}`` at such
    an ``R`` lies in ``Fp*`` and the final exponentiation removes it.
    The only other requirements are support disjoint from
    ``div(f_P) = q(P) - q(O)`` and no accidental line zeros, which
    :func:`general_miller` enforces by retrying.
    """
    points = []
    counter = 0
    tag = f"repro:tate-aux:{ssc.params.name}:{ssc.family}".encode()
    while len(points) < count:
        seed = hashlib.sha512(tag + counter.to_bytes(4, "big")).digest()
        counter += 1
        candidate = ssc._map_seed_to_point(seed)
        if candidate is None or candidate.is_infinity:
            continue
        x = ssc.fp2.from_base(candidate.x)
        y = ssc.fp2.from_base(candidate.y)
        points.append(ssc.ext_curve.unchecked_point(x, y))
    return points


def miller_loop_general(
    p_point: CurvePoint,
    s_point: CurvePoint,
    order: int,
    fp2: QuadraticField,
    aux_point: CurvePoint,
) -> QuadraticElement:
    """``f_{order, P}`` evaluated at the divisor ``(S + R) - (R)``.

    ``aux_point`` is ``R``, a point of ``E(Fp2)`` chosen so that no line
    in the loop vanishes on it or on ``S + R``; callers retry with a
    different ``R`` if a zero is hit (raised as :class:`ParameterError`).
    Numerators and denominators accumulate separately so the whole loop
    costs a single ``Fp2`` inversion.
    """
    if s_point.is_infinity:
        raise ParameterError("cannot evaluate Miller function at infinity")
    a_point = s_point + aux_point
    if a_point.is_infinity or aux_point.is_infinity:
        raise ParameterError("degenerate auxiliary point")
    ax, ay = a_point.x, a_point.y
    bx, by = aux_point.x, aux_point.y

    num = fp2.one()
    den = fp2.one()
    v = p_point
    for bit_index in range(order.bit_length() - 2, -1, -1):
        l_a = _line_value(v, v, ax, ay, fp2)
        l_b = _line_value(v, v, bx, by, fp2)
        v2 = v.double()
        v_a = _vertical_value(v2, ax, fp2)
        v_b = _vertical_value(v2, bx, fp2)
        num = num.square() * l_a * v_b
        den = den.square() * l_b * v_a
        v = v2
        if (order >> bit_index) & 1:
            l_a = _line_value(v, p_point, ax, ay, fp2)
            l_b = _line_value(v, p_point, bx, by, fp2)
            v1 = v + p_point
            v_a = _vertical_value(v1, ax, fp2)
            v_b = _vertical_value(v1, bx, fp2)
            num = num * l_a * v_b
            den = den * l_b * v_a
            v = v1
    if not v.is_infinity:
        raise ParameterError("point order does not divide the loop order")
    if num.is_zero() or den.is_zero():
        raise ParameterError("line vanished on auxiliary divisor; retry R")
    return num * den.inverse()


def general_miller(
    ssc: SupersingularCurve, p_point: CurvePoint, q_point: CurvePoint
) -> QuadraticElement:
    """``f_{q,P}`` at ``(phi(Q) + R) - (R)`` for the first auxiliary
    point ``R`` on which no line vanishes."""
    s_point = ssc.distort(q_point)
    last_error = None
    for aux in derive_aux_points(ssc):
        try:
            return miller_loop_general(p_point, s_point, ssc.q, ssc.fp2, aux)
        except ParameterError as exc:
            last_error = exc
    raise ParameterError(f"all auxiliary points failed: {last_error}")


def miller_loop_projective_binary(tasks, order: int, fp2: QuadraticField):
    """:func:`repro.pairing.miller.miller_loop_projective` on the binary
    schedule of ``order``: a doubling per bit below the leading one and
    a chord with ``P`` on each set bit."""
    phi, square, times, tangent, chord, _ = _STEPS[fp2.beta]
    lift = fp2.backend.lift
    p = lift(fp2.p)
    points = []
    consts = []
    for p_point, q_point, conjugate in tasks:
        px, py = lift(p_point.x.value), lift(p_point.y.value)
        sx, sy, dx = phi(
            px, lift(q_point.x.value), lift(q_point.y.value), conjugate, p
        )
        points.append((px, py, 1))
        consts.append((px, py, sx, sy, dx))
    fa, fb = lift(1), lift(0)
    for bit_index in range(order.bit_length() - 2, -1, -1):
        fa, fb = square(fa, fb, p)
        add = (order >> bit_index) & 1
        for index, (px, py, sx, sy, dx) in enumerate(consts):
            point, line = tangent(*points[index], sx, sy, p)
            fa, fb = times(fa, fb, line, p)
            if add:
                point, line = chord(*point, px, py, sx, sy, dx, p)
                fa, fb = times(fa, fb, line, p)
            points[index] = point
    if any(z for _, _, z in points):
        raise ParameterError("point order does not divide the loop order")
    return QuadraticElement(fp2, int(fa), int(fb))
