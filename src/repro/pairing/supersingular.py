"""The two classic supersingular curve families and their distortion maps.

Family A — ``y^2 = x^3 + x`` over ``Fp`` with ``p % 4 == 3``.
    Supersingular with ``#E(Fp) = p + 1``.  The distortion map is
    ``phi(x, y) = (-x, i*y)`` with ``i^2 = -1`` in ``Fp2 = Fp[i]``.  Its
    key property for fast pairing: ``x``-coordinates of distorted points
    stay in the base field, so all vertical-line evaluations land in
    ``Fp*`` and are annihilated by the final exponentiation — Miller's
    algorithm can skip denominators entirely.

Family B — ``y^2 = x^3 + 1`` over ``Fp`` with ``p % 3 == 2``.
    Supersingular with ``#E(Fp) = p + 1``.  The distortion map is
    ``phi(x, y) = (zeta*x, y)`` where ``zeta = (-1 + sqrt(-3)) / 2`` is a
    primitive cube root of unity in ``Fp2``.  Distorted x-coordinates are
    proper ``Fp2`` elements, so denominators must be kept — the general
    divisor-based Miller loop is required.  Its compensating advantage is
    a *deterministic* hash-to-curve (cubing is a bijection when
    ``p % 3 == 2``), the classic Boneh–Franklin MapToPoint.

Both families are exposed through :class:`SupersingularCurve`, which owns
the base curve ``E(Fp)``, the extension curve ``E(Fp2)`` (where distorted
points live), the distortion map, and a deterministically derived
generator of the order-``q`` subgroup.
"""

from __future__ import annotations

import hashlib

from repro.errors import NotInSubgroupError, ParameterError
from repro.ec.curve import EllipticCurve
from repro.ec.point import CurvePoint
from repro.math.field import PrimeField
from repro.math.modular import sqrt_if_square
from repro.math.quadratic import QuadraticField
from repro.pairing.params import ParameterSet

FAMILY_A = "A"
FAMILY_B = "B"


class SupersingularCurve:
    """A supersingular curve/distortion-map pair over a parameter set."""

    def __init__(self, params: ParameterSet, family: str = FAMILY_A,
                 backend=None):
        if family not in (FAMILY_A, FAMILY_B):
            raise ParameterError(f"unknown curve family {family!r}")
        self.params = params
        self.family = family
        self.q = params.q
        self.cofactor = params.c
        self.p = params.p

        self.fp = PrimeField(params.p, check_prime=False, backend=backend)
        if family == FAMILY_A:
            if params.p % 4 != 3:
                raise ParameterError("family A needs p % 4 == 3")
            beta = -1
            a_coeff, b_coeff = self.fp(1), self.fp(0)
        else:
            if params.p % 3 != 2:
                raise ParameterError("family B needs p % 3 == 2")
            beta = -3
            a_coeff, b_coeff = self.fp(0), self.fp(1)
        self.fp2 = QuadraticField(self.fp, beta)
        self.curve = EllipticCurve(self.fp, a_coeff, b_coeff)
        self.ext_curve = EllipticCurve(
            self.fp2,
            self.fp2.from_base(a_coeff),
            self.fp2.from_base(b_coeff),
        )
        if family == FAMILY_B:
            # zeta = (-1 + u) / 2 with u = sqrt(-3): a primitive cube root
            # of unity, zeta^3 == 1 and zeta != 1.
            inv2 = pow(2, -1, self.p)
            self._zeta = self.fp2((self.p - 1) * inv2, inv2)
            if self._zeta * self._zeta * self._zeta != self.fp2.one():
                raise ParameterError("zeta is not a cube root of unity")

        self.generator = self._derive_generator()

    # ------------------------------------------------------------------
    # Distortion map.
    # ------------------------------------------------------------------

    def distort(self, point: CurvePoint) -> CurvePoint:
        """Apply the family's distortion map, landing in ``E(Fp2)``.

        The image of an order-``q`` base-field point is an order-``q``
        point linearly independent from it, which is what makes the
        modified Tate pairing non-degenerate on ``G1 x G1``.
        """
        if point.is_infinity:
            return self.ext_curve.infinity()
        x = self.fp2.from_base(point.x)
        y = self.fp2.from_base(point.y)
        if self.family == FAMILY_A:
            # lint: allow[point-validation] distortion maps send curve points
            # to curve points; the input was validated when constructed
            return self.ext_curve.unchecked_point(-x, y * self.fp2.u())
        # lint: allow[point-validation] same argument for the family-B map
        return self.ext_curve.unchecked_point(x * self._zeta, y)

    # ------------------------------------------------------------------
    # Subgroup utilities.
    # ------------------------------------------------------------------

    def clear_cofactor(self, point: CurvePoint) -> CurvePoint:
        """Project a curve point into the order-``q`` subgroup.

        ``#E(Fp) = c·q`` (checked by the parameter set), so ``c·P`` lies
        in G1 for every base-curve point ``P``: the result carries that
        proof (:attr:`~repro.ec.point.CurvePoint.proven_order`).
        """
        cleared = point * self.cofactor
        if point.curve == self.curve:
            cleared.prove_order(self.q)
        return cleared

    def in_subgroup(self, point: CurvePoint) -> bool:
        """Whether a point lies in the prime-order-``q`` subgroup.

        The check is exact and each point pays for it once.  A base-curve
        point that already carries the proof ``q`` (from an earlier check,
        from :meth:`clear_cofactor`, or from a group multiplication of a
        proven point) passes at once.  Otherwise ``q·P = O`` is computed,
        and a pass is recorded on the point; a failure records nothing,
        so asking again recomputes and fails again.
        """
        if point.is_infinity:
            return True
        if point.curve != self.curve:
            return False
        if point.proven_order == self.q:
            return True
        if not (point * self.q).is_infinity:
            return False
        point.prove_order(self.q)
        return True

    def ensure_in_subgroup(self, point: CurvePoint) -> CurvePoint:
        if not self.in_subgroup(point):
            raise NotInSubgroupError("point is outside the order-q subgroup")
        return point

    def _derive_generator(self) -> CurvePoint:
        """A fixed generator, derived by hashing a domain tag to the curve.

        Deterministic so that two parties constructing the same
        ``(parameter set, family)`` agree on ``G`` without communication.
        The scheme itself lets the *server* pick ``G``; this is just the
        library default.
        """
        tag = f"repro:generator:{self.params.name}:{self.family}".encode()
        counter = 0
        while True:
            # lint: allow[hash-domain] tag is the only variable-length part
            # and the counter suffix is fixed-width; reframing would change
            # every derived generator and the cross-version test vectors
            seed = hashlib.sha512(tag + counter.to_bytes(4, "big")).digest()
            candidate = self._map_seed_to_point(seed)
            if candidate is not None:
                point = self.clear_cofactor(candidate)
                if not point.is_infinity:
                    return point
            counter += 1

    def _map_seed_to_point(self, seed: bytes) -> CurvePoint | None:
        """Map a hash output to a curve point (not yet cofactor-cleared)."""
        value = int.from_bytes(seed, "big") % self.p
        if self.family == FAMILY_B:
            # Deterministic: x = (y^2 - 1)^(1/3) always succeeds.
            y = self.fp(value)
            x = (y.square() - self.fp(1)).cube_root()
            return self.curve.unchecked_point(x, y)
        # Family A: try x = value, succeed iff x^3 + x is a square; one
        # exponentiation both tests residuosity and yields the root.
        root = sqrt_if_square(value * value * value + value, self.p)
        if root is None:
            return None
        y = self.fp(root)
        if seed[0] & 1:
            y = -y
        return self.curve.unchecked_point(self.fp(value), y)

    def __repr__(self) -> str:
        return (
            f"SupersingularCurve(family={self.family}, "
            f"params={self.params.name})"
        )
