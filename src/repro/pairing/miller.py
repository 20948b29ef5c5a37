"""Miller's algorithm for evaluating ``f_{q,P}`` at extension-field points.

``f_{q,P}`` is evaluated at the distorted point ``phi(Q)`` itself, not
at a divisor ``(phi(Q) + R) - (R)``: the final exponentiation removes
the difference (Barreto–Kim–Lynn–Scott 2002), so no auxiliary point is
needed.  There are two paths, chosen by whether the first argument
already has recorded lines.

* One-shot arguments of either family run
  :func:`miller_loop_projective`: every ``P_i``'s Jacobian double/add
  chain on the integer kernels, walked over the non-adjacent form of
  the order (a ``-1`` digit adds ``-P``), with each line evaluated at
  ``phi(Q_i)`` as it is met and scaled into ``Fp`` instead of divided,
  under one shared ``Fp2`` squaring chain.  Family A drops its vertical
  lines, which lie in ``Fp*`` (the BKLS/GHS denominator-free loop);
  family B multiplies by each one's conjugate instead.  No line table
  and no inversion.

* Fixed family-A arguments record ``P``'s line sequence once
  (:func:`record_line_sequence` — the same Jacobian chain plus two
  batch inversions that make the lines affine) and replay it against
  any number of evaluation points in the backend's one replay kernel
  (:func:`evaluate_line_sequences_product`; a single pairing is a
  one-task product).  The recording costs about 1.3 fused loops and a
  replay a little under half of one, so it breaks even at about two
  evaluations.

Throughout, ``P`` and the intermediate points ``V`` live on ``E(Fp)``
while the evaluation points live on ``E(Fp2)``.  The textbook divisor
loop, and the one-shot loop on the binary schedule, are kept in
``tests/pairing/reference.py`` as oracles.
"""

from __future__ import annotations

import functools

from repro.encoding import int_to_bytes
from repro.errors import ParameterError
from repro.ec import jacobian
from repro.ec.point import CurvePoint
from repro.math.backend.base import (
    LINE as _LINE, ONE as _ONE, VERT as _VERT, wnaf_digits,
)
from repro.math.quadratic import QuadraticElement, QuadraticField


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
    backend.  The schedule is binary, one add step per set bit of
    ``order``, unlike the one-shot loop's non-adjacent form: the
    pairing known-answer vectors pin these steps' bytes.  The returned
    sequence replays against any number of second arguments via
    :func:`evaluate_line_sequences_product`.
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


def _phi(px, xq, yq, conjugate, p):
    """``(sx, sy, sx - x_P)`` for ``phi(Q) = (sx, i*sy) = (-x_Q, i*y_Q)``;
    a conjugated task evaluates at ``phi(-Q)``, the conjugate point."""
    sx = -xq % p
    return sx, -yq % p if conjugate else yq, (sx - px) % p


def _square(fa, fb, p):
    return (fa + fb) * (fa - fb) % p, 2 * fa * fb % p


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


# Family B (``y^2 = x^3 + 1``, ``u^2 = -3``): ``sx = (sa, sb)`` is
# ``zeta*x_Q = sa + sb*u`` and ``sy = y_Q`` lies in ``Fp``, so a vertical
# line at ``phi(Q)`` is a proper ``Fp2`` value ``v``.  Each line is
# multiplied by ``conj(v)``: ``1/v`` times the norm ``N(v)``, in ``Fp*``.
# A conjugated task evaluates at ``conj(phi(Q))``; every step value is a
# polynomial over ``Fp`` in ``sx`` and ``sy``, so its Miller value is
# the conjugate.


def _phi_b(px, xq, yq, conjugate, p):
    half = xq * ((p + 1) // 2) % p  # zeta = (-1 + u)/2
    return (-half % p, -half % p if conjugate else half), yq, (-half - px) % p


def _square_b(fa, fb, p):
    ab = fa * fb
    return ((fa + fb) * (fa - 3 * fb) + 2 * ab) % p, 2 * ab % p


def _times_line_b(fa, fb, line, p):
    if line is None:
        return fa, fb
    va, vb = line
    ac, bd = fa * va, fb * vb
    return (ac - 3 * bd) % p, ((fa + fb) * (va + vb) - ac - bd) % p


def _over_vertical_b(la, lb, point, sx, p):
    """``point`` and ``la + u*lb`` times the conjugated vertical at it."""
    zz = point[2] * point[2] % p
    vertical = ((zz * sx[0] - point[0]) % p, -zz * sx[1] % p)
    return point, _times_line_b(la, lb, vertical, p)


def _tangent_b(x, y, z, sx, sy, p):
    """:func:`_tangent` for family B (``a = 0``), over the vertical at
    ``2V``; the point comes from :func:`repro.ec.jacobian.double`."""
    if not z or not y:
        return jacobian.INFINITY, None
    point = jacobian.double(x, y, z, p, 0)
    zz, m = z * z % p, 3 * x * x % p
    return _over_vertical_b(
        (m * (x - zz * sx[0]) - 2 * y * y + point[2] * zz % p * sy) % p,
        -m * zz % p * sx[1] % p, point, sx, p,
    )


def _chord_b(x, y, z, px, py, sx, sy, dx, p):
    """:func:`_chord` for family B, over the vertical at ``V + P``; the
    point comes from :func:`repro.ec.jacobian.add_affine`.  At
    ``V = -P`` the chord is the vertical ``sx - x_P`` and the vertical
    at ``V + P = O`` is 1."""
    if not z:
        return (px, py, 1), None
    zz = z * z % p
    h, r = (px * zz - x) % p, (py * zz % p * z - y) % p
    if not h:
        if not r:
            return _tangent_b(x, y, z, sx, sy, p)
        return jacobian.INFINITY, (dx, sx[1])
    point = jacobian.add_affine(x, y, z, px, py, p, 0)
    return _over_vertical_b(
        (point[2] * (sy - py) - r * dx) % p, -r * sx[1] % p, point, sx, p
    )


def _chord_b_minus(x, y, z, px, npy, sx, sy, dx, p):
    """:func:`_chord_b` with ``-P = (x_P, npy)``, times the conjugated
    vertical at ``P``: a ``-1`` digit multiplies by ``f_{-1,P} = 1/v_P``
    (a chord through infinity is 1, so it leaves that factor alone)."""
    point, line = _chord_b(x, y, z, px, npy, sx, sy, dx, p)
    return point, _times_line_b(dx, -sx[1] % p, line, p)


# Each family's evaluation point, Fp2 squaring, line product, tangent,
# chord with P and chord with -P, keyed by its non-residue ``beta``
# (``u^2 = beta``).  Family A's vertical at P lies in Fp*, so its chord
# with -P is its chord with P's negated y.
_STEPS = {
    -1: (_phi, _square, _times_line, _tangent, _chord, _chord),
    -3: (_phi_b, _square_b, _times_line_b, _tangent_b, _chord_b, _chord_b_minus),
}


@functools.lru_cache(maxsize=16)
def _naf_schedule(order: int) -> tuple[int, ...]:
    """``order``'s non-adjacent form below its leading 1, most
    significant digit first: one loop step per digit, a chord with
    ``P`` on ``+1`` and with ``-P`` on ``-1``."""
    return tuple(reversed(wnaf_digits(order, 2)[:-1]))


def miller_loop_projective(tasks, order: int, fp2: QuadraticField):
    """``Π f_{order, P_i}(phi(Q_i))^{±1}`` up to an ``Fp*`` factor, in one pass.

    ``tasks`` is a sequence of ``(p_point, q_point, conjugate)``: two
    points of ``E(Fp)`` and whether the factor enters conjugated
    (exponent ``-1``).  ``fp2`` names the family by its ``beta``: ``-1``
    for family A, ``-3`` for family B.  The loop evaluates ``f`` at the
    point ``phi(Q)`` itself, not at a divisor, without building it.

    The loop walks ``order`` in non-adjacent form (digits computed once
    per order): 59 chords instead of binary's 79 on ss512's ``q``, for
    one more doubling.  Each step runs every ``P_i``'s Jacobian double,
    then on a nonzero digit its add of ``±P_i``, on integers, and
    multiplies the shared accumulator by the line value scaled into
    ``Fp`` — ``2YZ^3`` for a tangent, ``Z_3`` for a chord — so the loop
    needs no inversion and keeps no line table.  A ``-1`` digit also
    divides by the vertical at ``P_i`` (``f_{k-1} = f_k·l/(v·v_P)``).
    On family A the vertical lines lie in ``Fp*`` and are dropped; on
    family B each line is multiplied by the conjugate of the vertical
    it would be divided by.  Scale factors, norms, verticals in ``Fp*``
    and a line through infinity are all ``Fp*`` factors; since
    ``p - 1`` divides ``(p^2 - 1)/q`` the final exponentiation sends
    them to 1, so the result differs from the textbook Miller value
    (and from the binary loop's, kept as an oracle in
    ``tests/pairing/reference.py``) while its reduced pairing is the
    same element.  One ``Fp2`` squaring per doubling step is shared by
    all tasks.

    Raises :class:`ParameterError` when some ``P_i`` has an order that
    does not divide ``order``, like :func:`record_line_sequence`.
    """
    phi, square, times, tangent, chord, chord_minus = _STEPS[fp2.beta]
    chords = (None, chord, chord_minus)  # indexed by the digit 1 or -1
    backend = fp2.backend
    lift = backend.lift
    p = lift(fp2.p)
    points = []
    consts = []
    for p_point, q_point, conjugate in tasks:
        px, py = lift(p_point.x.value), lift(p_point.y.value)
        sx, sy, dx = phi(
            px, lift(q_point.x.value), lift(q_point.y.value), conjugate, p
        )
        points.append((px, py, 1))
        # y of P and of -P, indexed by the digit like ``chords``.
        consts.append((px, (0, py, -py % p), sx, sy, dx))
    fa, fb = lift(1), lift(0)
    for digit in _naf_schedule(order):
        fa, fb = square(fa, fb, p)
        add = chords[digit]
        for index, (px, ys, sx, sy, dx) in enumerate(consts):
            point, line = tangent(*points[index], sx, sy, p)
            fa, fb = times(fa, fb, line, p)
            if add:
                point, line = add(*point, px, ys[digit], sx, sy, dx, p)
                fa, fb = times(fa, fb, line, p)
            points[index] = point
    if any(z for _, _, z in points):
        raise ParameterError("point order does not divide the loop order")
    return QuadraticElement(fp2, int(fa), int(fb))
