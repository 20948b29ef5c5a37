"""Miller's algorithm for evaluating ``f_{q,P}`` at extension-field points.

Two loops are provided, one per supersingular family:

* Family A records ``P``'s line sequence once
  (:func:`record_line_sequence` — a Jacobian double/add chain on the
  integer kernels plus two batch inversions) and replays it against
  any number of evaluation points in the backend's kernel
  (:func:`evaluate_line_sequence`, and
  :func:`evaluate_line_sequences_product` for multi-pairings).  Every
  vertical-line factor is dropped (the BKLS/GHS denominator-free loop):
  distorted x-coordinates stay in ``Fp``, so the final exponentiation
  kills those factors.  This is the only family-A path, on every
  backend.

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

from repro.encoding import int_from_bytes, int_to_bytes
from repro.errors import EncodingError, ParameterError
from repro.ec import jacobian
from repro.ec.point import CurvePoint
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


_LINE = 0   # chord/tangent: (s_y - yv) - (s_x - xv) * slope
_VERT = 1   # vertical:      s_x - xv
_ONE = 2    # line through infinity: constant 1


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
    :meth:`to_bytes` serializes, so a sequence recorded under one
    backend rehydrates identically under any other.
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
    # Wire format: ship recorded lines to worker processes instead of
    # re-recording per worker.  Layout (all big-endian):
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

    @classmethod
    def from_bytes(cls, data: bytes, element_bytes: int) -> "PrecomputedLines":
        if len(data) < 6:
            raise EncodingError("truncated line-sequence encoding")
        order_len = int.from_bytes(data[:2], "big")
        offset = 2 + order_len
        if len(data) < offset + 4:
            raise EncodingError("truncated line-sequence encoding")
        order = int_from_bytes(data[2:offset])
        count = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        step_size = 1 + 3 * element_bytes
        if len(data) != offset + count * step_size:
            raise EncodingError("line-sequence length mismatch")
        steps = []
        for _ in range(count):
            flags = data[offset]
            kind = flags & 0x03
            if kind not in (_LINE, _VERT, _ONE) or flags >> 3:
                raise EncodingError("bad line-step flags")
            xv = int_from_bytes(data[offset + 1:offset + 1 + element_bytes])
            yv = int_from_bytes(
                data[offset + 1 + element_bytes:offset + 1 + 2 * element_bytes]
            )
            slope = int_from_bytes(
                data[offset + 1 + 2 * element_bytes:offset + step_size]
            )
            steps.append((bool(flags >> 2), kind, xv, yv, slope))
            offset += step_size
        return cls(tuple(steps), order)


def record_line_sequence(p_point: CurvePoint, order: int) -> PrecomputedLines:
    """Record the denominator-free loop's line coefficients for ``P``.

    ``p_point`` must have the given (odd prime) order on ``E(Fp)``.  An
    affine loop would pay one inversion per step (the slope
    denominator), which dominates a cold pairing.  This recorder walks
    the double/add schedule on the integer Jacobian kernels
    (:mod:`repro.ec.jacobian`), batch-normalizes every intermediate
    ``V`` to affine with ONE field inversion, then resolves all slope
    denominators with a second batch inversion
    (:meth:`~repro.math.backend.base.FieldBackend.fp_batch_inv`).
    Affine coordinates are canonical, so the steps do not depend on the
    backend.  The returned sequence replays against any number of
    second arguments via :func:`evaluate_line_sequence`.
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


def evaluate_line_sequence(
    lines: PrecomputedLines,
    s_point: CurvePoint,
    fp2: QuadraticField,
) -> QuadraticElement:
    """``f_{order, P}(S)`` from cached coefficients.

    One ``Fp2`` squaring per doubling step and one multiplication per
    line, but no curve arithmetic.  The integer loop runs in the field's
    arithmetic backend
    (:meth:`~repro.math.backend.base.FieldBackend.eval_line_sequence`):
    the python backend executes a plain mod-``p`` loop, the Montgomery
    backend the lazy-reduction REDC kernel — canonical in, canonical
    out, identical bytes either way.
    """
    if s_point.is_infinity:
        raise ParameterError("cannot evaluate Miller function at infinity")
    backend = fp2.backend
    fa, fb = backend.eval_line_sequence(
        lines.backend_steps(backend),
        *backend.convert_coords(
            s_point.x.a, s_point.x.b, s_point.y.a, s_point.y.b
        ),
        fp2.beta,
    )
    return QuadraticElement(fp2, fa, fb)


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
    product of the individual :func:`evaluate_line_sequence` values
    (conjugated where requested) bit for bit.
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
    # Same integer-level kernel as evaluate_line_sequence, with one
    # shared accumulator: each step squares once and folds in every
    # task's line value (conjugation = negating the ``b`` coefficient).
    fa, fb = backend.eval_line_sequences_product(prepared, fp2.beta)
    return QuadraticElement(fp2, fa, fb)


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
