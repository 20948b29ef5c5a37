"""Lightweight operation counting for platform-independent benchmarks.

Wall-clock numbers depend on the host; the *shape* of the paper's
efficiency claims (how many pairings, scalar multiplications and
map-to-point calls each scheme performs) does not.  Every
:class:`~repro.pairing.api.PairingGroup` owns an :class:`OperationCounter`
and bumps it on each counted primitive, so benchmark harnesses can report
exact op counts alongside timings.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

PAIRING = "pairing"
SCALAR_MULT = "scalar_mult"
POINT_ADD = "point_add"
HASH_TO_GROUP = "hash_to_group"
# The map point of H1 without its cofactor multiplication: what a party
# that only pairs with H1(T) computes (PairingGroup._map_to_curve).
HASH_TO_CURVE = "hash_to_curve"
GT_EXP = "gt_exp"
GT_MUL = "gt_mul"
# One interleaved sum of several scalar multiples (PairingGroup.
# multi_scalar_mult); its terms are not counted as scalar_mult.
MULTI_SCALAR_MULT = "multi_scalar_mult"

# Advisory sub-counters for the precomputation fast paths: recorded *in
# addition to* the primary counter above (a table-driven multiply still
# counts as one scalar_mult), so cost-model assertions on the primary
# names stay stable while the fast-path hit rate remains observable.
# GT_FIXED_BASE is the GT analog of FIXED_BASE_MULT: a gt_exp that read
# a windowed GTFixedBaseTable instead of running square-and-multiply.
FIXED_BASE_MULT = "fixed_base_mult"
PAIRING_PRECOMP = "pairing_precomp"
GT_FIXED_BASE = "gt_fixed_base"

# Pairing internals, counted separately so the multi-pairing saving is
# visible: a direct pairing is one Miller loop plus one final
# exponentiation, while a k-fold multi-pairing is k Miller loops and ONE
# final exponentiation.  Like the fast-path counters these ride along
# with the primary ``pairing`` count (a pairing evaluated inside a
# multi-pairing still records one ``pairing``).
MILLER_LOOP = "miller_loop"
FINAL_EXP = "final_exp"
MULTI_PAIRING = "multi_pair"


class OperationCounter:
    """A named multiset of primitive-operation counts."""

    def __init__(self):
        self.counts: Counter[str] = Counter()

    def record(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def reset(self) -> None:
        self.counts.clear()

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)

    def total(self, name: str) -> int:
        return self.counts.get(name, 0)

    @contextmanager
    def measure(self):
        """Yield a dict that is filled with the ops recorded in the block."""
        before = Counter(self.counts)
        delta: dict[str, int] = {}
        try:
            yield delta
        finally:
            after = Counter(self.counts)
            after.subtract(before)
            delta.update({k: v for k, v in after.items() if v})

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OperationCounter({inner})"
