"""The narrow field-arithmetic interface every backend implements.

A :class:`FieldBackend` is bound to one prime modulus ``p`` and exposes
exactly the calls the runtime makes:

* :meth:`~FieldBackend.lift` into the kernels' integer type,
* scalar ``Fp`` power and inversion on canonical integers in ``[0, p)``,
* batch inversion (the Montgomery trick: ``n`` inverses for the price
  of one plus ``3(n-1)`` multiplications),
* :meth:`~FieldBackend.convert_steps` / :meth:`~FieldBackend.convert_coords`,
  which move recorded Miller lines and evaluation points into the
  kernels' representation, and
* the two pairing hot-loop kernels over ``Fp2 = Fp[u]/(u^2 - beta)``
  — the line replay (one or many recorded sequences under one shared
  squaring chain; family A only, so ``u^2 = -1``) and unitary
  exponentiation (a Lucas ladder on the trace, one implementation for
  every backend and both families) — that dominate every pairing's
  wall clock.

Backends trade representation for speed *inside* kernels only.  At the
object layer (``FieldElement``, ``QuadraticElement``, ``CurvePoint``)
every value is a canonical integer in ``[0, p)`` regardless of backend,
so wire formats, hashes and test vectors are byte-identical across
backends by construction; a backend that uses an internal domain (the
Montgomery backend's ``R = 2^k`` residues) converts at kernel entry and
exit, amortizing the conversions over the whole loop.

The base class implements every kernel generically over the integer
type returned by :meth:`FieldBackend.lift` — the pure-python backend
lifts to native ``int``, the gmpy2 backend lifts to ``mpz``.  Only
:meth:`fp_inv` is abstract.
"""

from __future__ import annotations

from repro.errors import ParameterError

# Line-step kinds, shared with repro.pairing.miller (which re-exports
# them as _LINE/_VERT/_ONE).
LINE = 0   # chord/tangent: (s_y - yv) - (s_x - xv) * slope
VERT = 1   # vertical:      s_x - xv
ONE = 2    # line through infinity: constant 1


class FieldBackend:
    """Arithmetic provider for one prime modulus.

    Subclasses set :attr:`name` and implement :meth:`fp_inv`; everything
    else has a generic implementation they may override for speed.
    """

    name = "abstract"

    def __init__(self, p: int):
        # Deliberately permissive: PrimeField(n, check_prime=False) on a
        # composite modulus is a supported construction (ops mod n, with
        # inverses defined only for coprime elements); backends that
        # genuinely need more (Montgomery: odd p) tighten this themselves.
        if p < 2:
            raise ParameterError("field backends require a modulus >= 2")
        self.p = p
        self._p_lifted = self.lift(p)

    # ------------------------------------------------------------------
    # Integer lifting.
    # ------------------------------------------------------------------

    def lift(self, x: int):
        """Coerce an int into the backend's preferred integer type."""
        return x

    # ------------------------------------------------------------------
    # Fp scalar operations (canonical ints in [0, p)).
    # ------------------------------------------------------------------

    def fp_pow(self, x: int, exponent: int) -> int:
        return pow(x, exponent, self.p)

    def fp_inv(self, x: int) -> int:
        """``x^-1 mod p``; :class:`ParameterError` if ``x`` is no unit.

        CPython's ``pow(x, -1, p)``: about 2.3x faster than a
        pure-python extended Euclid at 512 bits, with identical output.
        A field built with ``check_prime=False`` may have a composite
        modulus, where a nonzero ``x`` can be non-invertible too.
        """
        x %= self.p
        if x == 0:
            raise ParameterError("0 has no inverse")
        try:
            return pow(x, -1, self.p)
        except ValueError as exc:
            raise ParameterError(
                f"{x} is not invertible modulo {self.p}"
            ) from exc

    def fp_batch_inv(self, values) -> list[int]:
        """Invert every value with ONE field inversion (Montgomery trick).

        Raises :class:`~repro.errors.ParameterError` via :meth:`fp_inv`
        if any value is zero (the prefix product is then zero).  Returns
        canonical ints, same order as the input.
        """
        values = [self.lift(v) for v in values]
        if not values:
            return []
        p = self._p_lifted
        prefix = [0] * len(values)
        acc = self.lift(1)
        for index, value in enumerate(values):
            prefix[index] = acc
            acc = acc * value % p
        inv = self.lift(self.fp_inv(int(acc)))
        out = [0] * len(values)
        for index in range(len(values) - 1, -1, -1):
            out[index] = int(inv * prefix[index] % p)
            inv = inv * values[index] % p
        return out

    # ------------------------------------------------------------------
    # Miller-loop kernels.  ``steps`` are the canonical
    # (is_add, kind, xv, yv, slope) tuples recorded by
    # repro.pairing.miller; convert_steps may re-represent them once per
    # (lines, backend) pair — the result is cached by PrecomputedLines.
    # ------------------------------------------------------------------

    def convert_steps(self, steps: tuple) -> tuple:
        return steps

    def convert_coords(self, sxa: int, sxb: int, sya: int, syb: int):
        """Lift one evaluation point's coefficients for the kernels."""
        return (self.lift(sxa), self.lift(sxb), self.lift(sya), self.lift(syb))

    def eval_line_sequences_product(self, tasks):
        """``Π f_i(S_i)^{±1}`` over ``Fp[i]`` with ONE shared squaring chain.

        The one line-replay kernel: a single pairing is a one-task
        product.  Only family A records lines, so the extension is
        ``Fp[u]/(u^2 + 1)``: a square is ``((a+b)(a-b), 2ab)`` and a
        product's real part ``ac - bd``.  ``tasks`` is a list of
        ``(steps, sxa, sxb, sya, syb, conjugate)`` with steps from
        :meth:`convert_steps` and coords from :meth:`convert_coords`;
        all step sequences must be aligned (same loop order — the
        caller checks).  Conjugation is a negated ``b`` coefficient,
        exactly as in the object layer.  Returns canonical ``(a, b)``
        ints.
        """
        p = self._p_lifted
        shared_steps = tasks[0][0]
        fa, fb = self.lift(1), self.lift(0)
        for index in range(len(shared_steps)):
            if not shared_steps[index][0]:  # is_add flag, shared by all
                fa, fb = (fa + fb) * (fa - fb) % p, 2 * fa * fb % p
            for steps, sxa, sxb, sya, syb, conjugate in tasks:
                _, kind, xv, yv, slope = steps[index]
                if kind == LINE:
                    va = (sya - yv - (sxa - xv) * slope) % p
                    # Family A distorts to a purely-real x, so the line
                    # value's ``u`` coefficient is the constant ``syb``.
                    vb = (syb - sxb * slope) % p if sxb else syb
                elif kind == VERT:
                    va = (sxa - xv) % p
                    vb = sxb
                else:
                    continue
                if conjugate:
                    vb = -vb % p
                if vb:
                    ac = fa * va
                    bd = fb * vb
                    fa, fb = (
                        (ac - bd) % p,
                        ((fa + fb) * (va + vb) - ac - bd) % p,
                    )
                else:
                    fa, fb = fa * va % p, fb * va % p
        return int(fa), int(fb)

    # ------------------------------------------------------------------
    # Unitary (norm-1) exponentiation: a Lucas ladder on the trace.
    # ------------------------------------------------------------------

    def unitary_exp(self, a: int, b: int, exponent: int, beta: int):
        """``(a + bu) ** exponent`` for unitary ``z = a + bu``.

        The input must have norm ``a^2 - beta*b^2 == 1``; the result
        is meaningless otherwise (every GT element and every
        ``conj(f)/f`` in the final exponentiation qualifies).

        For such ``z`` the traces ``V_n = z^n + z^-n = 2*Re(z^n)``
        form a Lucas sequence with ``V_{2n} = V_n^2 - 2`` and
        ``V_{2n+1} = V_n*V_{n+1} - V_1`` (Scott and Barreto,
        "Compressed Pairings", CRYPTO 2004).  A Montgomery ladder keeps
        ``(V_n, V_{n+1})`` — the half-traces ``Re(z^n)``,
        ``Re(z^(n+1))`` doubled, which saves two doublings per bit —
        for one ``Fp`` squaring and one ``Fp`` multiplication per
        exponent bit, with no table.  Since ``Re(z^(n+1)) = a*Re(z^n)
        + beta*b*Im(z^n)``, one inversion at the end recovers
        ``Im(z^n) = (V_{n+1} - a*V_n) / (2*beta*b)``.

        ``beta`` is the field's small signed non-residue
        (:attr:`repro.math.quadratic.QuadraticField.beta`: -1 for family
        A, -3 for family B).  Negative exponents conjugate first;
        ``b == 0`` means ``z = ±1``, whose powers are ``(a^e mod p, 0)``.
        Exact mod-``p`` arithmetic, so every backend returns the same
        canonical ints.
        """
        p = self._p_lifted
        if exponent < 0:
            b = -b % p
            exponent = -exponent
        if exponent == 0:
            return 1, 0
        a, b = self.lift(a), self.lift(b)
        if not b:
            return int(pow(a, exponent, p)), 0
        trace = 2 * a % p
        v0, v1 = trace, (trace * trace - 2) % p
        for bit in bin(exponent)[3:]:
            if bit == "1":
                v0, v1 = (v0 * v1 - trace) % p, (v1 * v1 - 2) % p
            else:
                v0, v1 = (v0 * v0 - 2) % p, (v0 * v1 - trace) % p
        beta_b = beta * b % p
        inv = self.lift(self.fp_inv(int(2 * beta_b % p)))
        return int(v0 * beta_b * inv % p), int((v1 - a * v0) * inv % p)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p~2^{self.p.bit_length()})"


def wnaf_digits(scalar: int, width: int) -> list[int]:
    """Width-``w`` non-adjacent form of a non-negative scalar, LSB first.

    Digits are zero or odd with ``|d| < 2^(w-1)``, and any two non-zero
    digits are at least ``w`` positions apart, so a left-to-right
    evaluation performs roughly ``bits/(w+1)`` additions (or GT
    multiplications).  Used by the curve kernels in
    :mod:`repro.ec.jacobian`; it lives here so the backend layer has no
    import edge back into the object layer.
    """
    if scalar < 0:
        raise ParameterError("wNAF expects a non-negative scalar")
    if width < 2:
        raise ParameterError("wNAF width must be at least 2")
    digits = []
    modulus = 1 << width
    half = 1 << (width - 1)
    while scalar:
        if scalar & 1:
            digit = scalar & (modulus - 1)
            if digit >= half:
                digit -= modulus
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


def signed_window_digits(scalar: int, width: int) -> list[int]:
    """Base-``2^w`` digits of a non-negative scalar, LSB first, each in
    ``(-2^(w-1), 2^(w-1)]``.

    ``scalar == Σ d_j·2^(j·w)``.  A window value above ``2^(w-1)``
    becomes ``d - 2^w`` and carries one into the next window, so a
    scalar below ``2^bits`` has at most ``bits // w + 1`` digits (the
    top one absorbs the last carry; ``bits // w + 1`` is
    ``ceil((bits + 1) / w)``).  A fixed-base table therefore stores only
    the multiples ``1..2^(w-1)`` of each window, and a negative digit
    reads its entry negated: ``(x, -y)`` on a curve, the conjugate in
    the unitary group GT.
    """
    if scalar < 0:
        raise ParameterError("signed windows expect a non-negative scalar")
    if width < 1:
        raise ParameterError("window width must be at least 1")
    digits = []
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    while scalar:
        digit = scalar & mask
        scalar >>= width
        if digit > half:
            digit -= mask + 1
            scalar += 1
        digits.append(digit)
    return digits
