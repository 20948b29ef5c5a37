"""Montgomery-form Fp backend with lazy-reduction Fp² kernels.

Values inside the kernels live in the Montgomery domain: ``x`` is
represented by ``x·R mod p`` with ``R = 2^k``.  One REDC (a masked
multiply, a shift, at most one conditional subtraction — no division by
``p``) replaces every ``% p`` after a product, and additions/negations
stay in-domain for free.  Conversion happens only at kernel entry/exit
(steps are converted once per line sequence and cached), so the object
layer — and therefore every wire format and test vector — still sees
canonical integers.

Two deliberate choices, both measured on the seed hardware:

* **Headroom, not tightness.**  ``k = bits(p) + 3`` gives ``R ≥ 8p``,
  so the lazy-reduction Fp² sums (Karatsuba cross terms offset by
  ``2p²`` to stay non-negative) still satisfy ``T < R·p`` and REDC needs
  only the single conditional subtraction.  An Fp² multiply is then 3
  big-int products and exactly 2 REDCs — the reductions the schoolbook
  form would spend on ``ac`` and ``bd`` individually are *deferred
  across the accumulator sum*, which is where this backend can beat
  the eager-``%`` replay kernel.

* **Inversion is the enemy, not multiplication.**  On CPython a single
  Montgomery multiply is *not* faster than the builtin ``a*b % p`` (the
  interpreter dispatch dominates at these operand sizes).  What made a
  cold pairing slow was the per-step slope inversion of an affine
  Miller loop; every backend now runs the inversion-free fused loop
  (:func:`repro.pairing.miller.miller_loop_projective`) for a one-shot
  pairing and records a fixed argument's lines with a Jacobian chain
  plus TWO batch inversions
  (:func:`repro.pairing.miller.record_line_sequence`).  Against the
  python backend, which shares both, only the line-replay kernel
  differs.  On 2-vCPU x86-64 hosts under CPython 3.11 the REDC replay
  kernel has measured from 35% slower to 10% faster than the ``%``
  kernel, and a fresh line table pays one conversion into the domain
  (``docs/PERFORMANCE.md``), so this backend is no longer the default:
  it is selected only by name, as ``backend="montgomery"``.

Only the line-replay kernel runs in the Montgomery domain.
Unitary exponentiation (every final exponentiation and GT power) is
the base class's Lucas ladder on ``%`` reductions: an in-domain REDC
ladder measured slower on CPython.  Like the base kernel, the replay
serves family A alone (``Fp[i]``, the square is ``((a+b)(a-b), 2ab)``):
family B records no lines.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.math.backend.base import LINE, VERT, FieldBackend


class MontgomeryBackend(FieldBackend):
    """CIOS-style Montgomery REDC over pure python ints."""

    name = "montgomery"

    def __init__(self, p: int):
        super().__init__(p)
        if p % 2 == 0:
            raise ParameterError(
                "the montgomery backend requires an odd modulus"
            )
        # R = 2^k with three bits of headroom: lazy Fp² accumulations
        # reach ~6p² < R·p, keeping REDC single-subtraction.
        self.k = p.bit_length() + 3
        self.R = 1 << self.k
        self.mask = self.R - 1
        # -p^{-1} mod R: the REDC folding constant.  Derived from the
        # public modulus only — nothing here is secret material.
        self.np = (-pow(p, -1, self.R)) & self.mask
        self.r1 = self.R % p          # 1 in the Montgomery domain
        self.r2 = self.R * self.R % p  # conversion factor: to_mont(x) = redc(x*r2)
        self.p2 = p * p               # lazy-sum offsets keep terms >= 0
        self.p2_2 = 2 * self.p2

    # ------------------------------------------------------------------
    # Domain plumbing.
    # ------------------------------------------------------------------

    def redc(self, t: int) -> int:
        """Montgomery reduction: ``t·R^{-1} mod p`` for ``0 <= t < R·p``."""
        p = self.p
        m = ((t & self.mask) * self.np) & self.mask
        t = (t + m * p) >> self.k
        return t - p if t >= p else t

    def to_mont(self, x: int) -> int:
        return self.redc(x * self.r2)

    def from_mont(self, x: int) -> int:
        return self.redc(x)

    # ------------------------------------------------------------------
    # Kernel-side step/coordinate conversion (cached by the caller).
    # ------------------------------------------------------------------

    def convert_steps(self, steps: tuple) -> tuple:
        to_m = self.to_mont
        return tuple(
            (is_add, kind, to_m(xv), to_m(yv), to_m(slope))
            for is_add, kind, xv, yv, slope in steps
        )

    def convert_coords(self, sxa, sxb, sya, syb):
        to_m = self.to_mont
        return (to_m(sxa), to_m(sxb), to_m(sya), to_m(syb))

    # ------------------------------------------------------------------
    # The replay kernel over Fp[i].  The loop invariants:
    #   * every named value (fa, fb, va, vb, xv, yv, slope, s-coords)
    #     is in the Montgomery domain and < p;
    #   * products are reduced by ONE redc; sums of products carry the
    #     +p2 / +2*p2 offsets so redc's input stays in [0, R*p).
    # ------------------------------------------------------------------

    def eval_line_sequences_product(self, tasks):
        p = self.p
        p2, p2_2 = self.p2, self.p2_2
        redc = self.redc
        shared_steps = tasks[0][0]
        fa, fb = self.r1, 0
        for index in range(len(shared_steps)):
            if not shared_steps[index][0]:
                fa, fb = (
                    redc((fa + fb) * (fa - fb + p)),
                    redc(2 * fa * fb),
                )
            for steps, sxa, sxb, sya, syb, conjugate in tasks:
                _, kind, xv, yv, slope = steps[index]
                if kind == LINE:
                    va = (sya - yv - redc((sxa - xv + p) * slope) + 2 * p) % p
                    vb = (syb - redc(sxb * slope) + p) % p if sxb else syb
                elif kind == VERT:
                    va = (sxa - xv + p) % p
                    vb = sxb
                else:
                    continue
                if conjugate:
                    vb = p - vb if vb else 0
                if vb:
                    ac = fa * va
                    bd = fb * vb
                    fa, fb = (
                        redc(ac - bd + p2),
                        redc((fa + fb) * (va + vb) - ac - bd + p2_2),
                    )
                else:
                    fa, fb = redc(fa * va), redc(fb * va)
        return self.from_mont(fa), self.from_mont(fb)
