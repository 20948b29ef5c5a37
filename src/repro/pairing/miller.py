"""Miller's algorithm for evaluating ``f_{q,P}`` at extension-field points.

Family A takes one of two paths, chosen by whether the first argument
already has recorded lines.  Both drop every vertical-line factor (the
BKLS/GHS denominator-free loop): distorted x-coordinates stay in
``Fp``, so the final exponentiation kills those factors.

* One-shot arguments run :func:`miller_loop_projective`: every
  ``P_i``'s Jacobian double/add chain on the integer kernels, with each
  tangent or chord evaluated at ``phi(Q_i)`` as it is met and scaled
  into ``Fp`` instead of divided, under one shared ``Fp2`` squaring
  chain.  No line table and no inversion; the value is the Miller
  value up to an ``Fp*`` factor, which the final exponentiation
  removes.

* Fixed arguments record ``P``'s line sequence once
  (:func:`record_line_sequence` — the same Jacobian chain plus two
  batch inversions that make the lines affine) and replay it against
  any number of evaluation points in the backend's one replay kernel
  (:func:`evaluate_line_sequences_product`; a single pairing is a
  one-task product).  The recording costs about 1.3 fused loops and a
  replay a little under half of one, so it breaks even at about two
  evaluations.

* :func:`miller_loop_general` — the textbook loop evaluating ``f_{q,P}``
  at the divisor ``(S + R) - (R)`` for an auxiliary point ``R``, keeping
  numerator and denominator separate (one ``Fp2`` inversion at the end).
  Correct for any supersingular family, and the only correct choice for
  family B.  This is the "slow but general" arm of the E12 ablation.

Throughout, ``P`` and the intermediate points ``V`` live on ``E(Fp)``
while the evaluation points live on ``E(Fp2)``; the general loop's
mixed-field line evaluation embeds the ``Fp`` slope via
``QuadraticElement``'s integer coercion.
"""

from __future__ import annotations

from repro.encoding import int_to_bytes
from repro.errors import ParameterError
from repro.ec import jacobian
from repro.ec.point import CurvePoint
from repro.math.backend.base import LINE as _LINE, ONE as _ONE, VERT as _VERT
from repro.math.quadratic import QuadraticElement, QuadraticField


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


class PrecomputedLines:
    """The line coefficients ``f_{order, P}`` touches, in loop order.

    Every coefficient lives in ``Fp`` (family A keeps ``P`` and all loop
    intermediates on ``E(Fp)``), so a step is four ints: an is-add flag
    plus ``(kind, x_V, y_V, slope)``.  Evaluating the sequence against a
    second argument performs only the loop's ``Fp2`` squarings and
    multiplications — no point arithmetic and no slope inversions,
    which is where the per-pairing savings come from.

    ``steps`` are always *canonical* integers in ``[0, p)`` regardless
    of the evaluating backend; a backend that wants its own
    representation (Montgomery residues, ``mpz``) converts once through
    :meth:`backend_steps` and the converted tuple is cached here per
    backend name.  The canonical steps are also what
    :meth:`to_bytes` serializes, so a sequence encodes to the same
    bytes whichever backend recorded it.
    """

    __slots__ = ("steps", "order", "_backend_steps")

    def __init__(self, steps: tuple, order: int):
        self.steps = steps
        self.order = order
        self._backend_steps: dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self.steps)

    def backend_steps(self, backend) -> tuple:
        """The steps in ``backend``'s kernel representation (cached)."""
        converted = self._backend_steps.get(backend.name)
        if converted is None:
            converted = backend.convert_steps(self.steps)
            self._backend_steps[backend.name] = converted
        return converted

    # ------------------------------------------------------------------
    # Canonical encoding, pinned by the pairing known-answer vectors.
    # Layout (all big-endian):
    #   order_len(2) || order || step_count(4) ||
    #   per step: flags(1: is_add<<2 | kind) || xv || yv || slope
    # with xv/yv/slope fixed-width at ``element_bytes``.
    # ------------------------------------------------------------------

    def to_bytes(self, element_bytes: int) -> bytes:
        order_blob = int_to_bytes(
            self.order, (self.order.bit_length() + 7) // 8 or 1
        )
        parts = [
            len(order_blob).to_bytes(2, "big"),
            order_blob,
            len(self.steps).to_bytes(4, "big"),
        ]
        for is_add, kind, xv, yv, slope in self.steps:
            parts.append(bytes([(int(is_add) << 2) | kind]))
            parts.append(int_to_bytes(xv, element_bytes))
            parts.append(int_to_bytes(yv, element_bytes))
            parts.append(int_to_bytes(slope, element_bytes))
        return b"".join(parts)


def record_line_sequence(p_point: CurvePoint, order: int) -> PrecomputedLines:
    """Record the denominator-free loop's line coefficients for ``P``.

    ``p_point`` must have the given (odd prime) order on ``E(Fp)``.  An
    affine loop would pay one inversion per step (the slope
    denominator).  This recorder walks
    the double/add schedule on the integer Jacobian kernels
    (:mod:`repro.ec.jacobian`), batch-normalizes every intermediate
    ``V`` to affine with ONE field inversion, then resolves all slope
    denominators with a second batch inversion
    (:meth:`~repro.math.backend.base.FieldBackend.fp_batch_inv`).
    Affine coordinates are canonical, so the steps do not depend on the
    backend.  The returned sequence replays against any number of
    second arguments via :func:`evaluate_line_sequences_product`.
    """
    curve = p_point.curve
    backend = curve.field.backend
    p = curve.field.p
    a_coeff = curve.int_a
    px, py = p_point.x.value, p_point.y.value
    lp, lpx, lpy = backend.lift(p), backend.lift(px), backend.lift(py)
    # Walk the chain, remembering V's Jacobian coordinates at each
    # line-evaluation site (doubling lines evaluate at V *before* the
    # doubling; addition lines at V after it).
    x, y, z = lpx, lpy, 1
    sched = []
    flags = []
    for bit_index in range(order.bit_length() - 2, -1, -1):
        sched.append((x, y, z))
        flags.append(False)
        x, y, z = jacobian.double(x, y, z, lp, a_coeff)
        if (order >> bit_index) & 1:
            sched.append((x, y, z))
            flags.append(True)
            x, y, z = jacobian.add_affine(x, y, z, lpx, lpy, lp, a_coeff)
    if z != 0:
        raise ParameterError("point order does not divide the loop order")
    # First batch inversion: normalize every finite V to affine.
    affine = jacobian.normalize(backend, sched)
    # Second batch inversion: all slope denominators at once.
    denominators: list[int] = []
    metas = []
    for is_add, coords in zip(flags, affine):
        if coords is None:
            metas.append((is_add, _ONE, 0, 0, None))
            continue
        xv, yv = coords
        if is_add and xv == px and yv != py:
            metas.append((is_add, _VERT, xv, 0, None))
            continue
        if is_add and xv != px:
            numerator = (py - yv) % p
            denominator = (px - xv) % p
        else:
            # Tangent at V (also the doubling-an-equal-point add case).
            if yv == 0:
                metas.append((is_add, _VERT, xv, 0, None))
                continue
            numerator = (3 * xv * xv + a_coeff) % p
            denominator = 2 * yv % p
        metas.append((is_add, _LINE, xv, yv, (numerator, len(denominators))))
        denominators.append(denominator)
    inverses = backend.fp_batch_inv(denominators) if denominators else []
    steps = []
    for is_add, kind, xv, yv, extra in metas:
        if kind == _LINE:
            numerator, inv_index = extra
            steps.append(
                (is_add, _LINE, xv, yv, numerator * inverses[inv_index] % p)
            )
        else:
            steps.append((is_add, kind, xv, 0, 0))
    return PrecomputedLines(tuple(steps), order)


def evaluate_line_sequences_product(
    tasks,
    fp2: QuadraticField,
) -> QuadraticElement:
    """``Π f_{order, P_i}(S_i)^{±1}`` with ONE shared squaring chain.

    ``tasks`` is a sequence of ``(lines, s_point, conjugate)`` triples:
    cached coefficients from :func:`record_line_sequence`, the ``E(Fp2)``
    evaluation point, and whether this factor enters the product
    conjugated (the unitary trick for exponent ``-1`` — after the final
    exponentiation ``FE(conj(f)) == FE(f)^-1``, so a conjugation here
    replaces a GT inversion there).

    Every sequence must be recorded for the same loop ``order``: the
    double/add step pattern is a function of the order alone, so the
    sequences align step-for-step and the accumulator squaring — one
    ``Fp2`` squaring per doubling step, normally paid once *per pairing*
    — is paid once for the whole product.  Because conjugation is a ring
    homomorphism and ``Fp2`` arithmetic is exact, the result equals the
    product of the one-task values (conjugated where requested) bit for
    bit.  The integer loop is the backend's one replay kernel
    (:meth:`~repro.math.backend.base.FieldBackend.eval_line_sequences_product`):
    canonical in, canonical out, identical bytes on every backend.  Only
    family A records lines, so ``fp2`` is ``Fp[i]`` and the kernel
    hard-codes ``u^2 = -1``.
    """
    tasks = list(tasks)
    if not tasks:
        return fp2.one()
    backend = fp2.backend
    order = tasks[0][0].order
    length = len(tasks[0][0].steps)
    prepared = []
    for lines, s_point, conjugate in tasks:
        if lines.order != order or len(lines.steps) != length:
            raise ParameterError(
                "line sequences disagree on the loop order; "
                "multi-pairing requires one shared order"
            )
        if s_point.is_infinity:
            raise ParameterError("cannot evaluate Miller function at infinity")
        prepared.append((
            lines.backend_steps(backend),
            *backend.convert_coords(
                s_point.x.a, s_point.x.b, s_point.y.a, s_point.y.b
            ),
            conjugate,
        ))
    # One shared accumulator: each step squares once and folds in every
    # task's line value (conjugation = negating the ``b`` coefficient).
    fa, fb = backend.eval_line_sequences_product(prepared)
    return QuadraticElement(fp2, fa, fb)


def _tangent(x, y, z, sx, sy, p):
    """``2V`` and the tangent at ``V`` evaluated at ``(sx, i*sy)``.

    The ``a = 1`` case of :func:`repro.ec.jacobian.double`, inlined
    because the line needs its intermediates (``Y^2``, ``Z^2``, ``M``).
    The affine tangent ``(s_y - y) - lambda*(s_x - x)`` with
    ``lambda = M/(2YZ)`` is returned scaled by ``2YZ^3``, as ``(re, im)``
    canonical ints.  ``None`` stands for a line in ``Fp*`` — through
    infinity, or the vertical tangent at a point of order two.
    """
    if not z or not y:
        return jacobian.INFINITY, None
    yy = y * y % p
    zz = z * z % p
    m = (3 * x * x + zz * zz) % p
    s = 4 * x * yy % p
    x3 = (m * m - 2 * s) % p
    z3 = 2 * y * z % p
    line = (
        (m * (x - zz * sx) - 2 * yy) % p,
        z3 * zz % p * sy % p,
    )
    return (x3, (m * (s - x3) - 8 * yy * yy) % p, z3), line


def _chord(x, y, z, px, py, sx, sy, dx, p):
    """``V + P`` and the line through them evaluated at ``(sx, i*sy)``.

    The ``a = 1`` case of :func:`repro.ec.jacobian.add_affine`, inlined
    because the line needs its intermediates (``Z^2``, ``H``, ``R``).
    The affine chord ``(s_y - y_P) - lambda*(s_x - x_P)`` with
    ``lambda = R/(ZH)`` is returned scaled by ``Z_3 = ZH``; ``dx`` is
    ``s_x - x_P``.  ``None`` as in :func:`_tangent`: the line through
    infinity, or the vertical at ``V = -P``.
    """
    if not z:
        return (px, py, 1), None
    zz = z * z % p
    u2 = px * zz % p
    s2 = py * zz % p * z % p
    if u2 == x:
        if s2 == y:
            return _tangent(x, y, z, sx, sy, p)
        return jacobian.INFINITY, None
    h = u2 - x
    r = s2 - y
    hh = h * h % p
    hhh = hh * h % p
    v = x * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    z3 = z * h % p
    line = (-(z3 * py + r * dx) % p, z3 * sy % p)
    return (x3, (r * (v - x3) - y * hhh) % p, z3), line


def _times_line(fa, fb, line, p):
    """``(fa + i*fb) * (va + i*vb)`` in ``Fp[i]``; a ``None`` line is 1."""
    if line is None:
        return fa, fb
    va, vb = line
    ac, bd = fa * va, fb * vb
    return (ac - bd) % p, ((fa + fb) * (va + vb) - ac - bd) % p


def miller_loop_projective(tasks, order: int, fp2: QuadraticField):
    """``Π f_{order, P_i}(phi(Q_i))^{±1}`` up to an ``Fp*`` factor, in one pass.

    ``tasks`` is a sequence of ``(p_point, q_point, conjugate)``: two
    points of family A's ``E(Fp)`` and whether the factor enters
    conjugated (exponent ``-1``).  The loop evaluates at the distorted
    ``phi(Q) = (-x_Q, i*y_Q)`` without building it; conjugation is
    evaluation at ``phi(-Q)``.

    Each step runs every ``P_i``'s Jacobian double or add on integers
    and multiplies the shared accumulator by the line value scaled into
    ``Fp`` — ``2YZ^3`` for a tangent, ``Z_3`` for a chord — so the loop
    needs no inversion and keeps no line table.  Vertical lines, the
    scale factors and a line through infinity all lie in ``Fp*``; since
    ``p - 1`` divides ``(p^2 - 1)/q`` the final exponentiation sends
    them to 1, so the result differs from the recorded path's Miller
    value while its reduced pairing is the same element.  One ``Fp2``
    squaring per doubling step is shared by all tasks.

    Raises :class:`ParameterError` when some ``P_i`` has an order that
    does not divide ``order``, like :func:`record_line_sequence`.
    """
    tasks = list(tasks)
    if fp2.beta != -1:
        raise ParameterError("the projective Miller loop needs Fp2 = Fp[i]")
    backend = fp2.backend
    lift = backend.lift
    p = lift(fp2.p)
    points = []
    consts = []
    for p_point, q_point, conjugate in tasks:
        px, py = lift(p_point.x.value), lift(p_point.y.value)
        sx = -lift(q_point.x.value) % p
        sy = -lift(q_point.y.value) % p if conjugate else lift(q_point.y.value)
        points.append((px, py, 1))
        consts.append((px, py, sx, sy, (sx - px) % p))
    fa, fb = lift(1), lift(0)
    for bit_index in range(order.bit_length() - 2, -1, -1):
        fa, fb = (fa + fb) * (fa - fb) % p, 2 * fa * fb % p
        add = (order >> bit_index) & 1
        for index, (px, py, sx, sy, dx) in enumerate(consts):
            point, line = _tangent(*points[index], sx, sy, p)
            fa, fb = _times_line(fa, fb, line, p)
            if add:
                point, line = _chord(*point, px, py, sx, sy, dx, p)
                fa, fb = _times_line(fa, fb, line, p)
            points[index] = point
    if any(z for _, _, z in points):
        raise ParameterError("point order does not divide the loop order")
    return QuadraticElement(fp2, int(fa), int(fb))


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
