"""The public pairing-group facade used by every scheme in the library.

A :class:`PairingGroup` bundles a supersingular curve family, its Tate
pairing engine, the hash maps, serialization, and an operation counter
behind one object with the exact algebraic interface of the paper's §4:

* ``G1`` — the additive order-``q`` subgroup of ``E(Fp)`` (curve points);
* ``G2`` (called GT here to avoid clashing with Type-3 terminology) —
  the multiplicative order-``q`` subgroup of ``Fp2*``, wrapped in
  :class:`GTElement`;
* ``ê = group.pair`` — bilinear, non-degenerate, efficiently computable.

Example::

    group = PairingGroup("toy64")
    s = group.random_scalar(rng)
    left = group.pair(group.mul(group.generator, s), group.generator)
    right = group.pair(group.generator, group.generator) ** s
    assert left == right
"""

from __future__ import annotations

import os
import random
import weakref

from repro.ec.point import CurvePoint
from repro.ec.precompute import FixedBaseTable
from repro.errors import (
    DecodingError,
    GroupMismatchError,
    NotInSubgroupError,
    ParameterError,
)
from repro.math.quadratic import GTFixedBaseTable, QuadraticElement, unitary_exp
from repro.pairing import hashing
from repro.pairing.miller import PrecomputedLines
from repro.pairing.opcount import (
    FINAL_EXP,
    FIXED_BASE_MULT,
    GT_EXP,
    GT_FIXED_BASE,
    GT_MUL,
    HASH_TO_CURVE,
    HASH_TO_GROUP,
    MILLER_LOOP,
    MULTI_PAIRING,
    PAIRING,
    PAIRING_PRECOMP,
    POINT_ADD,
    SCALAR_MULT,
    OperationCounter,
)
from repro.pairing.params import ParameterSet, get_parameter_set
from repro.pairing.supersingular import FAMILY_A, SupersingularCurve
from repro.pairing.tate import TatePairing


class GTElement:
    """An element of the order-``q`` target group, always unitary."""

    __slots__ = ("group", "value")

    def __init__(self, group: "PairingGroup", value: QuadraticElement):
        self.group = group
        self.value = value

    def _check(self, other: "GTElement") -> None:
        if not isinstance(other, GTElement) or other.group is not self.group:
            raise GroupMismatchError("GT elements from different groups")

    def __mul__(self, other: "GTElement") -> "GTElement":
        self._check(other)
        self.group.counters.record(GT_MUL)
        return GTElement(self.group, self.value * other.value)

    def __truediv__(self, other: "GTElement") -> "GTElement":
        self._check(other)
        self.group.counters.record(GT_MUL)
        return GTElement(self.group, self.value * other.value.conjugate())

    def __pow__(self, exponent: int) -> "GTElement":
        # Routed through the group so a GTFixedBaseTable cached by
        # precompute_gt is picked up transparently (same element either
        # way; the table only changes the wall-clock cost).
        return self.group.gt_exp(self, exponent)

    def inverse(self) -> "GTElement":
        # Unitary: the conjugate is the inverse.
        return GTElement(self.group, self.value.conjugate())

    def is_identity(self) -> bool:
        return self.value.is_one()

    def to_bytes(self) -> bytes:
        return self.value.to_bytes()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GTElement)
            and other.group is self.group
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("GT", self.value))

    def __repr__(self) -> str:
        return f"GTElement({self.value!r})"


class PairingPrecomputation:
    """Cached Miller-line coefficients for one fixed pairing argument.

    Built by :meth:`PairingGroup.precompute_pairing`.  On family A the
    line coefficients of ``f_{q,P}`` are recorded once; :meth:`pair`
    then evaluates them against any second argument, skipping all curve
    arithmetic in the Miller loop.  On family B (no denominator-free
    loop) the object transparently falls back to the direct pairing, so
    callers can precompute unconditionally.
    """

    __slots__ = ("group", "point", "lines")

    def __init__(self, group: "PairingGroup", point: CurvePoint):
        self.group = group
        self.point = point
        self.lines = None
        if group.family == FAMILY_A and not point.is_infinity:
            group.ssc.ensure_in_subgroup(point)
            self.lines = group.tate.precompute_lines(point)

    def pair(self, q_point: CurvePoint) -> "GTElement":
        """``ê(P, Q)`` — byte-identical to ``group.pair(P, Q)``."""
        fixed = self.point if self.lines is None else self.lines
        return self.group._pair_resolved(fixed, q_point)

    def __repr__(self) -> str:
        kind = "lines" if self.lines is not None else "fallback"
        return f"PairingPrecomputation({kind}, steps={len(self.lines or ())})"


# Every live group, so forked children can drop precomputation caches
# they inherited from the parent.  The caches are pure accelerators
# (byte-identical results with or without them), but letting a child
# keep probing — and lazily extending — a copy-on-write copy of the
# parent's tables means parent and child caches silently diverge, and
# each lazy extension forces a private page copy.  Clearing in the
# child is the fork-safe discipline (lint rules RP302/RP304); entries
# are weak so the registry never extends a group's lifetime.  Keyed by
# identity: groups over the same parameters compare equal, so a set
# would hold only the first of them and skip the others' caches.
_LIVE_GROUPS: "weakref.WeakValueDictionary[int, PairingGroup]" = (
    weakref.WeakValueDictionary()
)


def _clear_caches_after_fork() -> None:
    """At-fork child hook: each group rebuilds caches on demand."""
    for group in _LIVE_GROUPS.values():
        group.clear_precomputations()


if hasattr(os, "register_at_fork"):  # not available on all platforms
    os.register_at_fork(after_in_child=_clear_caches_after_fork)


class PairingGroup:
    """A symmetric pairing group ``ê : G1 × G1 → GT`` with hashing.

    Parameters
    ----------
    params:
        A parameter-set name (``"toy64"``, ``"ss512"``, ...) or a
        :class:`~repro.pairing.params.ParameterSet`.
    family:
        Supersingular family, ``"A"`` (default; denominator-free Miller
        loop) or ``"B"`` (deterministic MapToPoint, general Miller loop).
    backend:
        Field-arithmetic backend (see :mod:`repro.math.backend`):
        ``"python"``, ``"montgomery"``, ``"gmpy2"``, or ``"auto"``
        (the default, also chosen for ``None``): ``gmpy2`` when it is
        importable, else ``python``.  Every group element and wire
        format is byte-identical across backends; only the wall clock
        changes.
    """

    def __init__(self, params="ss512", family: str = FAMILY_A,
                 backend: str | None = None):
        if isinstance(params, str):
            params = get_parameter_set(params)
        if not isinstance(params, ParameterSet):
            raise ParameterError("params must be a name or ParameterSet")
        self.params = params
        self.family = family
        self.ssc = SupersingularCurve(
            params, family, backend="auto" if backend is None else backend
        )
        self.backend = self.ssc.fp.backend
        self.backend_name = self.backend.name
        self.tate = TatePairing(self.ssc)
        self.counters = OperationCounter()
        self.q = params.q
        self.generator = self.ssc.generator
        self.point_bytes = 1 + 2 * self.ssc.fp.element_bytes
        self.gt_bytes = 2 * self.ssc.fp.element_bytes
        self.scalar_bytes = (self.q.bit_length() + 7) // 8
        # c mod q, which pair_h1 moves onto the fixed pairing argument.
        self.h1_cofactor = params.c % params.q
        # Fixed-argument caches, populated only by explicit precompute
        # calls; mul/pair/gt_exp probe them with a dict lookup per call.
        self._fixed_base: dict[CurvePoint, FixedBaseTable] = {}
        self._pairing_precomp: dict[CurvePoint, PairingPrecomputation] = {}
        self._gt_fixed_base: dict[QuadraticElement, GTFixedBaseTable] = {}
        # Fixed-argument tuples seen once by _precompute_on_second_use.
        self._seen_once: set[tuple[CurvePoint, ...]] = set()
        _LIVE_GROUPS[id(self)] = self

    # ------------------------------------------------------------------
    # Scalars.
    # ------------------------------------------------------------------

    def random_scalar(self, rng: random.Random) -> int:
        """A uniform element of ``Z_q^*``."""
        return rng.randrange(1, self.q)

    def hash_to_scalar(self, *parts: bytes, tag: str = "repro:Zq") -> int:
        return hashing.hash_to_scalar(self.q, *parts, tag=tag)

    # ------------------------------------------------------------------
    # G1 operations (counted).
    # ------------------------------------------------------------------

    def identity(self) -> CurvePoint:
        return self.ssc.curve.infinity()

    def mul(self, point: CurvePoint, scalar: int) -> CurvePoint:
        """``scalar·point``, with the scalar reduced mod ``q``.

        G1 is closed under scalar multiplication, so the product of a
        point proven to lie in it (see
        :meth:`~repro.pairing.supersingular.SupersingularCurve.in_subgroup`)
        carries the same proof, on the fixed-base path too.
        """
        self.counters.record(SCALAR_MULT)
        table = self._fixed_base.get(point)
        if table is not None:
            self.counters.record(FIXED_BASE_MULT)
            product = table.mult(scalar % self.q)
        else:
            product = point * (scalar % self.q)
        if point.proven_order is not None:
            product.prove_order(point.proven_order)
        return product

    def precompute(self, point: CurvePoint) -> FixedBaseTable:
        """Build (and cache) a fixed-base table for ``point``.

        Subsequent :meth:`mul` calls on the same point use the table —
        zero doublings, one mixed addition per 4-bit window —
        and return byte-identical results.  Amortizes after a handful of
        multiplications; see ``docs/PERFORMANCE.md`` for the memory /
        break-even numbers.  :meth:`clear_precomputations` frees tables.
        """
        table = self._fixed_base.get(point)
        if table is None:
            table = FixedBaseTable(point, self.q.bit_length())
            self._fixed_base[point] = table
        return table

    def add(self, left: CurvePoint, right: CurvePoint) -> CurvePoint:
        self.counters.record(POINT_ADD)
        return left + right

    def negate(self, point: CurvePoint) -> CurvePoint:
        return -point

    def hash_to_g1(self, data: bytes, tag: str = "repro:H1") -> CurvePoint:
        """The paper's ``H1 : {0,1}* → G1`` random oracle."""
        self.counters.record(HASH_TO_GROUP)
        return hashing.hash_to_subgroup(self.ssc, data, tag)

    def _map_to_curve(self, data: bytes, tag: str = "repro:H1") -> CurvePoint:
        """``P′₀``, the point :meth:`hash_to_g1` clears first, uncleared.

        Its one caller is :meth:`pair_h1`, which pairs against ``P′₀``
        and owns the fallback for ``c·P′₀ = O``.  Counted as
        ``hash_to_curve``, not ``hash_to_group``.
        """
        self.counters.record(HASH_TO_CURVE)
        return hashing.map_to_curve(self.ssc, data, tag)

    def pair_h1(
        self,
        fixed: CurvePoint,
        data: bytes,
        tag: str = "repro:H1",
        *,
        scalar: int = 1,
        derived: CurvePoint | None = None,
        over: tuple[CurvePoint, CurvePoint] | None = None,
    ) -> GTElement:
        """``ê(scalar·fixed, H1(data))``, divided by ``ê(*over)`` if given.

        The one place a fixed G1 argument is paired against ``H1``.  It
        never clears ``H1(data) = c·P′₀``'s cofactor: the reduced Tate
        pairing is linear in its second argument over all of
        ``E(Fp²)``, so ``ê(X, c·P′₀) = ê((c mod q)·X, P′₀)``, and it
        pairs the map point ``P′₀`` against
        ``derived = (c·scalar mod q)·fixed``.  A caller that pairs one
        ``fixed`` often passes ``derived`` and records its Miller lines
        with :meth:`precompute_pairing`; :meth:`pair` and
        :meth:`multi_pair` pick them up.  With ``over = (Y, Z)`` the
        ratio ``ê(derived, P′₀) / ê(Y, Z)`` stays one multi-pairing with
        one final exponentiation.

        The two sides differ only when ``c·P′₀ = O`` and ``H1`` moves
        on to counter 1 (probability about ``1/q``).  Then
        ``ê(derived, P′₀) = 1``, or its Miller value is zero
        (:class:`ParameterError`), and exactly then the value is
        recomputed against ``H1(data)`` itself.  Without ``over`` an
        identity result shows it.  With ``over``, whose points must lie
        in G1 off infinity so that ``ê(Y, Z) ≠ 1``, an identity ratio
        is exact, and a non-identity one clears ``P′₀``'s cofactor to
        tell.  Callers that need ``H1(data)`` as a point in G1 (signing,
        key extraction, recording its lines) use :meth:`hash_to_g1`.
        """
        def value(first: CurvePoint, second: CurvePoint) -> GTElement:
            if over is None:
                return self.pair(first, second)
            return self.multi_pair(((first, second), over), (1, -1))

        uncleared = self._map_to_curve(data, tag)
        if derived is None:
            derived = self.mul(fixed, self.h1_cofactor * scalar)
        try:
            result = value(derived, uncleared)
        except ParameterError:
            result = None  # a zero Miller value: c·P′₀ = O
        if result is not None:
            if over is None:
                exact = not result.is_identity()
            else:
                exact = result.is_identity() or not self.ssc.clear_cofactor(
                    uncleared).is_infinity
            if exact:
                return result
        return value(self.mul(fixed, scalar), self.hash_to_g1(data, tag))

    def random_point(self, rng: random.Random) -> CurvePoint:
        """A uniform element of the order-``q`` subgroup."""
        return self.mul(self.generator, self.random_scalar(rng))

    def in_group(self, point: CurvePoint) -> bool:
        """Whether ``point`` lies in G1; exact, and free once proven.

        See :meth:`~repro.pairing.supersingular.SupersingularCurve.in_subgroup`.
        """
        return self.ssc.in_subgroup(point)

    def point_to_bytes(self, point: CurvePoint) -> bytes:
        encoded = point.to_bytes()
        if len(encoded) == 1:
            # Pad the infinity encoding to the fixed width so all G1
            # serializations have equal length.
            return encoded.ljust(self.point_bytes, b"\x00")
        return encoded

    def point_from_bytes(self, data: bytes) -> CurvePoint:
        """Inverse of :meth:`point_to_bytes`, validating G1 membership.

        Infinity decodes only from its canonical padded encoding, as
        :meth:`point_from_bytes_compressed` already requires.  Any other
        point passes the on-curve check and the ``q·P = O`` subgroup
        check, and comes back carrying that proof.
        """
        if data[:1] == b"\x00":
            if data != bytes(self.point_bytes):
                raise DecodingError("bad infinity encoding")
            return self.identity()
        point = self.ssc.curve.point_from_bytes(data)
        self.ssc.ensure_in_subgroup(point)
        return point

    # ------------------------------------------------------------------
    # Compressed encoding: x plus one parity bit, ~half the bytes.
    # Useful when broadcast size matters (the time-bound key update is
    # exactly one point); decompression costs one square root.
    # ------------------------------------------------------------------

    @property
    def compressed_point_bytes(self) -> int:
        return 1 + self.ssc.fp.element_bytes

    def point_to_bytes_compressed(self, point: CurvePoint) -> bytes:
        """``prefix || x`` with the y-parity in the prefix (02/03)."""
        if point.is_infinity:
            return b"\x00".ljust(self.compressed_point_bytes, b"\x00")
        prefix = 0x02 | (point.y.value & 1)
        return bytes([prefix]) + point.x.to_bytes()

    def point_from_bytes_compressed(self, data: bytes) -> CurvePoint:
        if len(data) != self.compressed_point_bytes:
            raise DecodingError(
                f"expected {self.compressed_point_bytes} compressed bytes, "
                f"got {len(data)}"
            )
        if data[0] == 0x00:
            if any(data[1:]):
                raise DecodingError("bad infinity encoding")
            return self.identity()
        if data[0] not in (0x02, 0x03):
            raise DecodingError("bad compressed-point prefix")
        x = self.ssc.fp.from_bytes(data[1:])
        point = self.ssc.curve.point_from_x(x, y_parity=data[0] & 1)
        self.ssc.ensure_in_subgroup(point)
        return point

    # ------------------------------------------------------------------
    # Pairing and GT.
    # ------------------------------------------------------------------

    def pair(self, p_point: CurvePoint, q_point: CurvePoint) -> GTElement:
        """The symmetric bilinear map ``ê(P, Q)``.

        If either argument has cached Miller lines (see
        :meth:`precompute_pairing`), the pairing is evaluated from them
        — symmetry lets a cached *second* argument swap into the fixed
        slot.  Results are identical either way.
        """
        return self._pair_resolved(*self._resolve(p_point, q_point))

    def multi_pair(self, pairs, exponents=None) -> GTElement:
        """``Π ê(P_i, Q_i)^{e_i}`` with ONE shared final exponentiation.

        ``pairs`` is a sequence of ``(P, Q)`` point pairs and
        ``exponents`` an optional matching sequence of ``+1``/``-1``
        (default all ``+1`` — a plain pairing product).  The Miller
        loops run in lockstep into a single accumulator and the final
        exponentiation is applied once, so a product that would cost
        ``k`` pairings and ``k`` final exponentiations costs ``k``
        Miller loops and one final exponentiation; negative exponents
        cost one ``Fp2`` conjugation per line instead of a GT inversion.
        Cached Miller lines (:meth:`precompute_pairing`) are picked up
        on either argument of each pair, exactly like :meth:`pair`.

        The result is byte-identical to computing ``group.pair`` per
        pair and multiplying (inverting the ``e_i == -1`` factors).
        """
        resolved = [self._resolve(p_point, q_point) for p_point, q_point in pairs]
        if not resolved:
            return self.gt_identity()
        live = [self._count(first, second) for first, second in resolved]
        self.counters.record(MULTI_PAIRING)
        if any(live):
            self.counters.record(FINAL_EXP)
        return GTElement(self, self.tate.multi_pair(resolved, exponents))

    def _resolve(self, p_point: CurvePoint, q_point: CurvePoint):
        """``(P, Q)`` with a cached argument's Miller lines in the fixed slot.

        The one probe of the :meth:`precompute_pairing` cache: ``P``
        first, then ``Q`` (the pairing is symmetric, so a cached second
        argument swaps into the fixed slot).  An entry without lines
        (family B, or infinity) leaves the points as they are.
        """
        for fixed, other in ((p_point, q_point), (q_point, p_point)):
            precomp = self._pairing_precomp.get(fixed)
            if precomp is not None and precomp.lines is not None:
                return precomp.lines, other
        return p_point, q_point

    def _count(self, first, second: CurvePoint) -> bool:
        """Record one pairing of resolved arguments; whether it is live.

        A pairing counts as ``pairing``, and as ``pairing_precomp`` when
        ``first`` is recorded lines; a live one (no infinity argument)
        also counts a ``miller_loop``.
        """
        self.counters.record(PAIRING)
        recorded = isinstance(first, PrecomputedLines)
        if recorded:
            self.counters.record(PAIRING_PRECOMP)
        live = not second.is_infinity and (recorded or not first.is_infinity)
        if live:
            self.counters.record(MILLER_LOOP)
        return live

    def _pair_resolved(self, first, second: CurvePoint) -> GTElement:
        """One counted pairing of resolved arguments (see :meth:`_resolve`)."""
        if self._count(first, second):
            self.counters.record(FINAL_EXP)
        if isinstance(first, PrecomputedLines):
            return GTElement(self, self.tate.pair_with_precomp(first, second))
        return GTElement(self, self.tate.pair(first, second))

    def pair_ratio_is_one(self, numerators, denominators=()) -> bool:
        """Verify ``Π ê(numerators) == Π ê(denominators)`` in one shot.

        The pairing-product equation behind every verification in the
        library (BLS, update self-authentication, receiver-key
        well-formedness, threshold shares, resilient node keys) checked
        with a single multi-pairing: one combined Miller loop and one
        final exponentiation instead of one of each per pairing.

        As a verifier entry point this rejects degenerate equations: if
        any input point is the point at infinity the check returns
        ``False`` (an infinity factor contributes the identity, which
        would let a forged element cancel out of the equation).  Callers
        comparing products that may legitimately contain infinity use
        :meth:`multi_pair` directly.
        """
        numerators = list(numerators)
        denominators = list(denominators)
        for p_point, q_point in (*numerators, *denominators):
            if p_point.is_infinity or q_point.is_infinity:
                return False
        exponents = [1] * len(numerators) + [-1] * len(denominators)
        return self.multi_pair([*numerators, *denominators], exponents).is_identity()

    def precompute_pairing(self, point: CurvePoint) -> PairingPrecomputation:
        """Cache Miller lines for a fixed pairing argument.

        Returns a :class:`PairingPrecomputation` whose ``pair(Q)``
        evaluates ``ê(point, Q)`` from the cached lines; :meth:`pair`
        also probes this cache on both arguments, so existing call
        sites speed up without changes.  Recording the lines costs
        about 1.3 uncached Miller loops and each later evaluation saves
        a little more than half of one, so precomputation breaks even
        at about the second pairing with ``point`` and pays off from
        the third; a one-off pairing is cheaper uncached.  Two checks
        record their fixed server-key points here by themselves from
        their second use (:meth:`_precompute_on_second_use`): the
        receiver-key check ``(G, sG)``
        (:meth:`~repro.core.keys.UserPublicKey.verify_well_formed`) and
        the update check ``(D, G)`` with ``D = (c mod q)·sG``
        (:meth:`~repro.core.bls.BLSSignatureScheme.verify`).
        Only public points belong in this cache: lines derived from a
        secret, such as a receiver's ``a·I_T``, go in a transient
        :class:`PairingPrecomputation` that the caller drops.  On
        family B the returned object falls back to the direct pairing
        (no denominator-free loop to cache).
        :meth:`clear_precomputations` frees the cache.
        """
        precomp = self._pairing_precomp.get(point)
        if precomp is None:
            precomp = PairingPrecomputation(self, point)
            self._pairing_precomp[point] = precomp
        return precomp

    def _precompute_on_second_use(self, *points: CurvePoint) -> None:
        """Record lines for fixed ``points`` the second time they come.

        The first call only remembers the tuple, so a one-shot caller
        keeps the fused Miller loop and pays nothing for a table it
        never reuses; the second records every point (family A only),
        and later calls find them cached.  :meth:`clear_precomputations`
        forgets the tuples too.  Its callers are the two checks against
        a server key a process holds for its whole life: the
        receiver-key check with ``(G, sG)``
        (:meth:`~repro.core.keys.UserPublicKey.verify_well_formed`) and
        the update check with ``(D, G)``
        (:meth:`~repro.core.bls.BLSSignatureScheme.verify`).
        """
        if self.family != FAMILY_A:
            return
        if points not in self._seen_once:
            self._seen_once.add(points)
            return
        for point in points:
            self.precompute_pairing(point)

    def clear_precomputations(self) -> None:
        """Drop all fixed-base tables, cached Miller lines, and GT tables.

        Long-running processes that precompute per-epoch updates (e.g.
        archive catch-up over thousands of labels) call this to bound
        memory; correctness is unaffected.  The second-use record of
        :meth:`_precompute_on_second_use` is dropped too, so the next
        receiver-key or update check runs cold again.
        """
        self._fixed_base.clear()
        self._pairing_precomp.clear()
        self._gt_fixed_base.clear()
        self._seen_once.clear()

    def gt_exp(self, gt: GTElement, exponent: int) -> GTElement:
        """``gt ** exponent`` (exponent reduced mod ``q``).

        The single entry point every GT exponentiation goes through
        (``GTElement.__pow__`` delegates here): if the base has a table
        cached by :meth:`precompute_gt` the exponentiation is
        table-driven — one ``Fp2`` multiplication per window, zero
        squarings — and the advisory ``gt_fixed_base`` counter records
        the hit.  Without a table it runs the Lucas ladder of
        :func:`~repro.math.quadratic.unitary_exp`.  The result is the
        same group element either way.
        """
        if not isinstance(gt, GTElement) or gt.group is not self:
            raise GroupMismatchError("gt_exp expects a GT element of this group")
        self.counters.record(GT_EXP)
        exponent %= self.q
        table = self._gt_fixed_base.get(gt.value)
        if table is not None:
            self.counters.record(GT_FIXED_BASE)
            return GTElement(self, table.exp(exponent))
        return GTElement(self, unitary_exp(gt.value, exponent))

    def precompute_gt(self, base: GTElement) -> GTFixedBaseTable:
        """Build (and cache) a windowed exponentiation table for ``base``.

        The GT analog of :meth:`precompute`: subsequent ``base ** k``
        (equivalently :meth:`gt_exp`) calls on the same element read one
        stored power per 4-bit window of ``k`` — **zero
        squarings** — and return the identical group element.  This is
        the sender-side fast path: once ``g = ê(asG, H1(T))`` is cached
        for a fixed (receiver, T), every encryption costs one
        table-driven GT exponentiation instead of a pairing.  Memory is
        ``15 * ceil(q_bits/4)`` Fp2 elements;
        :meth:`clear_precomputations` frees the tables.
        """
        table = self._gt_fixed_base.get(base.value)
        if table is None:
            table = GTFixedBaseTable(base.value, self.q.bit_length())
            self._gt_fixed_base[base.value] = table
        return table

    def gt_identity(self) -> GTElement:
        return GTElement(self, self.ssc.fp2.one())

    def ensure_in_gt(self, value: QuadraticElement) -> QuadraticElement:
        """Reject ``Fp2`` elements outside the order-``q`` target group.

        Membership needs two facts: the element is unitary (norm 1, so
        the conjugate is the inverse every GT operation relies on) and
        its order divides ``q``.  Accepting anything else would let a
        malicious serialization smuggle in a small-order element and
        bias the masks derived from it.
        """
        if not (value * value.conjugate()).is_one():
            raise NotInSubgroupError("GT element is not unitary")
        if not unitary_exp(value, self.q).is_one():
            raise NotInSubgroupError("GT element is outside the order-q subgroup")
        return value

    def gt_from_bytes(self, data: bytes) -> GTElement:
        """Decode a GT element, validating subgroup membership.

        The order check always runs (one ``q``-bit exponentiation).
        """
        value = self.ssc.fp2.from_bytes(data)
        self.ensure_in_gt(value)
        return GTElement(self, value)

    def mask_bytes(self, gt: GTElement, length: int, tag: str = "repro:H2") -> bytes:
        """The paper's ``H2 : G2 → {0,1}^n`` mask-derivation oracle."""
        return hashing.hash_gt_to_bytes(gt.value, length, tag)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PairingGroup)
            and other.params == self.params
            and other.family == self.family
        )

    def __hash__(self) -> int:
        return hash(("PairingGroup", self.params.name, self.family))

    def __repr__(self) -> str:
        return (
            f"PairingGroup({self.params.name!r}, family={self.family!r}, "
            f"backend={self.backend_name!r})"
        )
