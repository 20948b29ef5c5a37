"""The modified (reduced) Tate pairing ``ê(P, Q) = f_{q,P}(phi(Q))^((p^2-1)/q)``.

``P`` and ``Q`` both come from the order-``q`` subgroup of ``E(Fp)``; the
distortion map ``phi`` moves ``Q`` off the base field, which makes the
pairing non-degenerate on ``G1 x G1`` (a *symmetric* / Type-1 pairing,
exactly the ``ê : G1 x G1 -> G2`` interface the paper's schemes use).

The final exponentiation factors as ``(p - 1) * c`` since
``(p^2 - 1)/q = (p - 1)(p + 1)/q`` and ``p + 1 = c*q``:

* ``f^(p-1)`` is one conjugation and one inversion, because the
  Frobenius on ``Fp2`` is conjugation;
* the remaining ``^c`` runs on an element that is now *unitary*
  (norm 1), so its inverse is its conjugate and
  :func:`~repro.math.quadratic.unitary_exp` — a Lucas ladder on the
  trace — applies.

Because ``p - 1`` divides the exponent, every ``Fp*`` factor of a
Miller value maps to 1.  That is what lets family A drop vertical
lines, family B multiply by a conjugated vertical instead of dividing
by it, and both, for one-shot arguments, scale each line into ``Fp``
instead of dividing and walk ``q`` in non-adjacent form
(:func:`~repro.pairing.miller.miller_loop_projective`): the Miller
values differ from the recorded-lines path and from the textbook loop,
the GT bytes do not.
"""

from __future__ import annotations

import functools
import operator

from repro.errors import NotInSubgroupError, ParameterError
from repro.ec.point import CurvePoint
from repro.math.quadratic import QuadraticElement, unitary_exp
from repro.pairing.miller import (
    PrecomputedLines,
    evaluate_line_sequences_product,
    miller_loop_projective,
    record_line_sequence,
)
from repro.pairing.supersingular import FAMILY_A, SupersingularCurve


class TatePairing:
    """Modified Tate pairing engine bound to one supersingular curve."""

    def __init__(self, ssc: SupersingularCurve):
        self.ssc = ssc
        self.fp2 = ssc.fp2

    def pair(self, p_point: CurvePoint, q_point: CurvePoint) -> QuadraticElement:
        """Compute ``ê(P, Q)`` for subgroup points P, Q of ``E(Fp)``.

        Both families run the fused projective loop: no line table is
        recorded, because ``P`` is evaluated once.  Callers that pair
        one ``P`` again and again record its lines with
        :meth:`precompute_lines` instead.  Returns the identity of
        ``G2`` when either input is infinity, mirroring the bilinear
        extension ``ê(O, Q) = 1``; raises :class:`ParameterError` when
        ``P``'s order does not divide ``q``.
        """
        return self._product([(p_point, q_point, False)])

    def precompute_lines(self, p_point: CurvePoint) -> PrecomputedLines:
        """Cache the Miller-loop line coefficients for a fixed ``P``.

        The denominator-free (family A) loop's lines depend only on
        ``P`` and the loop order ``q``; the returned sequence feeds
        :meth:`pair_with_precomp` for any number of second arguments,
        skipping all per-pairing curve arithmetic.  Recording costs
        about 1.3 fused :meth:`pair` Miller loops, so it breaks even at
        about two evaluations of ``P``.  Since the pairing is symmetric,
        callers with a fixed *second* argument simply swap it into the
        ``P`` slot.
        """
        if self.ssc.family != FAMILY_A:
            raise ParameterError(
                "line precomputation requires the denominator-free "
                "(family A) Miller loop"
            )
        if p_point.is_infinity:
            raise ParameterError("cannot precompute lines for infinity")
        if p_point.curve != self.ssc.curve:
            raise NotInSubgroupError("pairing inputs must lie on E(Fp)")
        return record_line_sequence(p_point, self.ssc.q)

    def pair_with_precomp(
        self, lines: PrecomputedLines, q_point: CurvePoint
    ) -> QuadraticElement:
        """``ê(P, Q)`` from :meth:`precompute_lines` output for ``P``.

        Byte-identical to :meth:`pair` on the same arguments: the Miller
        values differ only by an ``Fp*`` factor, which the shared final
        exponentiation removes.
        """
        return self._product([(lines, q_point, False)])

    def multi_pair(self, pairs, exponents=None) -> QuadraticElement:
        """``Π ê(P_i, Q_i)^{e_i}`` with ONE shared final exponentiation.

        ``pairs`` is a sequence of ``(P, Q)`` where ``P`` is either a
        subgroup point of ``E(Fp)`` or a :class:`PrecomputedLines`
        recorded for one (family A), and ``Q`` is a subgroup point;
        ``exponents`` is an optional matching sequence of ``+1``/``-1``
        (default all ``+1``).

        A product of ``k`` pairings normally costs ``k`` Miller loops
        *and* ``k`` final exponentiations.  Here the Miller loops run in
        lockstep accumulating into a single ``Fp2`` product (the
        per-iteration accumulator squaring is shared too: raw-point
        pairs share one fused projective loop, recorded-lines pairs one
        line-replay product, and the two values are multiplied
        before the final exponentiation), negative
        exponents enter as conjugated Miller values (valid because
        ``FE(conj(f)) == FE(f)^-1`` for the even-embedding-degree
        reduced Tate pairing — the Frobenius on ``Fp2`` is conjugation),
        and the final exponentiation is applied once to the product.
        The result is bit-for-bit equal to the product of the individual
        :meth:`pair` values (inverted where ``e_i == -1``): the final
        exponentiation and conjugation are ring homomorphisms and every
        field operation is exact.

        Pairs with an infinity argument contribute the identity factor,
        mirroring ``ê(O, Q) == 1``.
        """
        pairs = list(pairs)
        if exponents is None:
            exponents = [1] * len(pairs)
        else:
            exponents = list(exponents)
            if len(exponents) != len(pairs):
                raise ParameterError("one exponent per pair required")
            if any(e not in (1, -1) for e in exponents):
                raise ParameterError("multi_pair exponents must be +1 or -1")
        return self._product(
            (first, q_point, exponent < 0)
            for (first, q_point), exponent in zip(pairs, exponents)
        )

    def _product(self, tasks) -> QuadraticElement:
        """``Π ê(P_i, Q_i)^{±1}``: the one evaluator behind every pairing.

        ``tasks`` are ``(P or its PrecomputedLines, Q, conjugate)``.  An
        infinity argument contributes the identity factor.  The raw
        points of either family share one fused projective loop and the
        recorded lines (family A only) one replay product.  The Miller
        values are multiplied and finally exponentiated once, so a
        single pairing pays no extra ``Fp2`` operation.
        """
        recorded, raw = [], []
        for first, q_point, conjugate in tasks:
            lines = isinstance(first, PrecomputedLines)
            if q_point.is_infinity or (not lines and first.is_infinity):
                continue
            if q_point.curve != self.ssc.curve or (
                not lines and first.curve != self.ssc.curve
            ):
                raise NotInSubgroupError("pairing inputs must lie on E(Fp)")
            if lines:
                recorded.append((first, self.ssc.distort(q_point), conjugate))
            else:
                raw.append((first, q_point, conjugate))
        if recorded and self.ssc.family != FAMILY_A:
            raise ParameterError(
                "precomputed lines require the family A Miller loop"
            )
        values = []
        if raw:
            values.append(miller_loop_projective(raw, self.ssc.q, self.fp2))
        if recorded:
            values.append(evaluate_line_sequences_product(recorded, self.fp2))
        if not values:
            return self.fp2.one()
        return self.final_exponentiation(functools.reduce(operator.mul, values))

    def final_exponentiation(self, f: QuadraticElement) -> QuadraticElement:
        """Raise a Miller value to ``(p^2 - 1)/q = (p - 1) * c``."""
        if f.is_zero():
            raise ParameterError("Miller value is zero; degenerate input")
        g = f.conjugate() * f.inverse()
        return unitary_exp(g, self.ssc.cofactor)
