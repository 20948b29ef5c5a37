"""BN254 (alt_bn128) — a Type-3 asymmetric pairing backend, from scratch.

The paper's constructions are phrased over a symmetric (Type-1) pairing
because that is what existed in 2005.  Modern deployments of exactly
this design — drand's timelock encryption ("tlock") — run on *Type-3*
pairings ``ê : G1 × G2 → GT`` over pairing-friendly curves like BN254,
where no efficiently computable map between ``G1`` and ``G2`` exists.
This module provides that substrate so :mod:`repro.core.tlock` can
implement the modern descendant and experiment E15 can price Type-1
against Type-3.

Construction (py_ecc-compatible conventions):

* ``G1``: ``y² = x³ + 3`` over ``Fp``; prime order ``q`` (cofactor 1).
* ``G2``: the sextic twist ``y² = x³ + 3/(9+i)`` over
  ``Fp2 = Fp[i]/(i²+1)``; the order-``q`` subgroup has cofactor
  ``2p - q``.
* ``GT ⊂ Fp12`` with ``Fp12 = Fp[w]/(w¹² - 18w⁶ + 82)``; ``G2`` points
  embed into ``E(Fp12)`` via the twist isomorphism.
* The ate Miller loop runs over ``6u + 2 = 29793968203157093288`` with
  two Frobenius correction steps, followed by the reduced
  exponentiation to ``(p¹² - 1)/q`` — computed in the staged form
  ``((f^(p⁶-1))^(p²+1))^((p⁴-p²+1)/q)``, which is ~13× cheaper than the
  monolithic exponent.

Everything runs on the same generic substrate as the Type-1 engine:
:class:`repro.ec.curve.EllipticCurve` over
:class:`repro.math.polyext.PolyExtensionField`.
"""

from __future__ import annotations

import hashlib
import random

from repro.ec.curve import EllipticCurve
from repro.ec.point import CurvePoint
from repro.errors import NotInSubgroupError, ParameterError
from repro.math.field import PrimeField
from repro.math.modular import sqrt_if_square
from repro.math.polyext import PolyElement, PolyExtensionField

# alt_bn128 parameters (Ethereum precompile curve).
FIELD_MODULUS = int(
    "21888242871839275222246405745257275088696311157297823662689037894645226208583"
)
CURVE_ORDER = int(
    "21888242871839275222246405745257275088548364400416034343698204186575808495617"
)
ATE_LOOP_COUNT = 29793968203157093288  # 6u + 2 for u = 4965661367192848881
_LOG_ATE_LOOP_COUNT = 63

G2_COFACTOR = 2 * FIELD_MODULUS - CURVE_ORDER


def _digest(tag: str, *parts: bytes) -> bytes:
    """Domain-tagged SHA-512 over length-framed parts (RP105 pattern)."""
    hasher = hashlib.sha512()
    hasher.update(len(tag).to_bytes(2, "big"))
    hasher.update(tag.encode())
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.digest()


class BN254:
    """The BN254 pairing engine: groups, generators, ate pairing."""

    def __init__(self, backend=None):
        p = FIELD_MODULUS
        self.p = p
        self.q = CURVE_ORDER
        # The backend accelerates G1 (Fp) arithmetic — fixed-base table
        # normalization rides its batch inversion.  The Fp12 tower has
        # its own arithmetic and is unaffected; outputs are identical
        # for every backend.
        self.fp = PrimeField(p, check_prime=False, backend=backend)
        self.backend_name = self.fp.backend.name
        # Fp2 = Fp[i]/(i² + 1); Fp12 = Fp[w]/(w¹² − 18w⁶ + 82).
        self.fq2 = PolyExtensionField(p, (1, 0))
        self.fq12 = PolyExtensionField(
            p, (82, 0, 0, 0, 0, 0, -18, 0, 0, 0, 0, 0)
        )

        self.curve_g1 = EllipticCurve(self.fp, self.fp(0), self.fp(3))
        b2 = self.fq2((3, 0)) / self.fq2((9, 1))
        self.curve_g2 = EllipticCurve(self.fq2, self.fq2.zero(), b2)
        b12 = self.fq12(3)
        self.curve_g12 = EllipticCurve(self.fq12, self.fq12.zero(), b12)

        self.g1 = self.curve_g1.point(self.fp(1), self.fp(2))
        self.g2 = self.curve_g2.point(
            self.fq2((
                10857046999023057135944570762232829481370756359578518086990519993285655852781,
                11559732032986387107991004021392285783925812861821192530917403151452391805634,
            )),
            self.fq2((
                8495653923123431417604973247489272438418190587263600148770280649306958101930,
                4082367875863433681332203403145435568316851327593401208105741076214120093531,
            )),
        )

        # Staged final exponentiation: (p^6-1), (p^2+1), (p^4-p^2+1)/q.
        self._exp_easy1 = p**6 - 1
        self._exp_easy2 = p**2 + 1
        self._exp_hard = (p**4 - p**2 + 1) // self.q

        self.point_bytes_g1 = 1 + 2 * self.fp.element_bytes
        self.point_bytes_g2 = 1 + 2 * self.fq2.element_bytes
        self.gt_bytes = self.fq12.element_bytes
        self.scalar_bytes = (self.q.bit_length() + 7) // 8

    # ------------------------------------------------------------------
    # Group membership.
    # ------------------------------------------------------------------

    def in_g1(self, point: CurvePoint) -> bool:
        """G1 is the whole curve (cofactor 1)."""
        return point.is_infinity or (
            point.curve == self.curve_g1 and self.curve_g1.contains(point.x, point.y)
        )

    def in_g2(self, point: CurvePoint) -> bool:
        if point.is_infinity:
            return True
        if point.curve != self.curve_g2:
            return False
        return (point * self.q).is_infinity

    # ------------------------------------------------------------------
    # Twist: E'(Fp2) -> E(Fp12).
    # ------------------------------------------------------------------

    def twist(self, point: CurvePoint) -> CurvePoint:
        """Map a G2 point onto the Fp12 curve (py_ecc's isomorphism)."""
        if point.is_infinity:
            return self.curve_g12.infinity()
        # Coefficient change Fp[i]/(i²+1) -> Fp[z]/(z² - 18z + 82) with
        # z = w⁶: (a + b·i) -> (a - 9b) + b·z.
        x0, x1 = point.x.coeffs
        y0, y1 = point.y.coeffs
        p = self.p
        nx = self.fq12(
            ((x0 - 9 * x1) % p, 0, 0, 0, 0, 0, x1, 0, 0, 0, 0, 0)
        )
        ny = self.fq12(
            ((y0 - 9 * y1) % p, 0, 0, 0, 0, 0, y1, 0, 0, 0, 0, 0)
        )
        w = self.fq12.x()
        # lint: allow[point-validation] the twist isomorphism maps curve
        # points to curve points; validation happened when `point` was built
        return self.curve_g12.unchecked_point(nx * w.square(), ny * w * w.square())

    def _cast_g1(self, point: CurvePoint) -> CurvePoint:
        return self.curve_g12.unchecked_point(
            self.fq12(point.x.value), self.fq12(point.y.value)
        )

    # ------------------------------------------------------------------
    # Ate pairing.
    # ------------------------------------------------------------------

    @staticmethod
    def _linefunc(p1: CurvePoint, p2: CurvePoint, t: CurvePoint) -> PolyElement:
        """Evaluate at T the (denominator-free) line through P1 and P2."""
        x1, y1 = p1.x, p1.y
        x2, y2 = p2.x, p2.y
        xt, yt = t.x, t.y
        if x1 != x2:
            slope = (y2 - y1) / (x2 - x1)
            return slope * (xt - x1) - (yt - y1)
        if y1 == y2:
            slope = x1.square() * 3 / (y1 * 2)
            return slope * (xt - x1) - (yt - y1)
        return xt - x1

    def _frobenius_point(self, point: CurvePoint, negate_y: bool) -> CurvePoint:
        x = point.x ** self.p
        y = point.y ** self.p
        if negate_y:
            y = -y
        return self.curve_g12.unchecked_point(x, y)

    def miller_loop(self, q_twisted: CurvePoint, p_cast: CurvePoint) -> PolyElement:
        """The ate Miller loop over 6u+2 with Frobenius corrections."""
        if q_twisted.is_infinity or p_cast.is_infinity:
            return self.fq12.one()
        r = q_twisted
        f = self.fq12.one()
        for i in range(_LOG_ATE_LOOP_COUNT, -1, -1):
            f = f * f * self._linefunc(r, r, p_cast)
            r = r.double()
            if ATE_LOOP_COUNT & (1 << i):
                f = f * self._linefunc(r, q_twisted, p_cast)
                r = r + q_twisted
        q1 = self._frobenius_point(q_twisted, negate_y=False)
        nq2 = self._frobenius_point(q1, negate_y=True)
        f = f * self._linefunc(r, q1, p_cast)
        r = r + q1
        f = f * self._linefunc(r, nq2, p_cast)
        return f

    def final_exponentiate(self, f: PolyElement) -> PolyElement:
        """``f^((p¹²-1)/q)`` in the staged easy/hard decomposition."""
        eased = (f ** self._exp_easy1) ** self._exp_easy2
        return eased ** self._exp_hard

    def pair(self, p_point: CurvePoint, q_point: CurvePoint) -> PolyElement:
        """``ê(P, Q)`` for ``P ∈ G1`` and ``Q ∈ G2`` (reduced)."""
        if p_point.is_infinity or q_point.is_infinity:
            return self.fq12.one()
        if not self.in_g1(p_point):
            raise NotInSubgroupError("first pairing argument must lie in G1")
        if q_point.curve != self.curve_g2:
            raise NotInSubgroupError("second pairing argument must lie in G2")
        f = self.miller_loop(self.twist(q_point), self._cast_g1(p_point))
        return self.final_exponentiate(f)

    # ------------------------------------------------------------------
    # Scalars and hashing.
    # ------------------------------------------------------------------

    def random_scalar(self, rng: random.Random) -> int:
        return rng.randrange(1, self.q)

    def hash_to_g1(self, data: bytes, tag: str = "repro:bn254:H1") -> CurvePoint:
        """Try-and-increment onto G1 (cofactor 1, p ≡ 3 mod 4 sqrt)."""
        for counter in range(512):
            digest = _digest(tag, counter.to_bytes(4, "big"), data)
            x = int.from_bytes(digest, "big") % self.p
            rhs = (x * x * x + 3) % self.p
            if rhs == 0:
                continue
            root = sqrt_if_square(rhs, self.p)
            if root is not None:
                y = self.fp(root)
                if digest[0] & 1:
                    y = -y
                # lint: allow[point-validation] y is a square root of the
                # curve equation's RHS, so (x, y) is on G1 (cofactor 1)
                return self.curve_g1.unchecked_point(self.fp(x), y)
        raise ParameterError("hash_to_g1 exhausted its attempt budget")

    def mask_bytes(
        self, element: PolyElement, length: int, tag: str = "repro:bn254:H2"
    ) -> bytes:
        encoded = element.to_bytes()
        blocks = []
        for counter in range((length + 63) // 64):
            blocks.append(_digest(tag, counter.to_bytes(4, "big"), encoded))
        return b"".join(blocks)[:length]

    def __repr__(self) -> str:
        return f"BN254(backend={self.backend_name!r})"


_ENGINES: dict[str, BN254] = {}


def bn254(backend: str | None = None) -> BN254:
    """The shared BN254 engine (construction is cheap but not free).

    ``backend`` selects the Fp arithmetic backend (see
    :mod:`repro.math.backend`); ``None`` keeps the pure-python default.
    Engines are cached per resolved backend name.
    """
    from repro.math.backend import resolve_backend_name

    name = resolve_backend_name("python" if backend is None else backend)
    engine = _ENGINES.get(name)
    if engine is None:
        engine = _ENGINES[name] = BN254(backend=name)
    return engine
