"""A symbolic cost model for every scheme in the library.

The paper argues efficiency in units of group operations; this module
writes those budgets down *as data* so they can be (a) printed in docs
and benchmarks and (b) asserted against the live operation counters —
any refactor that silently changes a scheme's op count fails
``tests/analysis/test_costmodel.py``.

Counts exclude the optional receiver-key well-formedness check
(2 pairings, amortizable across messages) and update
self-authentication (2 pairings, once per broadcast, not per message);
both are listed separately.

``H1(T) = c·P′`` is counted two ways.  ``hash_to_group`` is the full
hash, cofactor multiplication included; ``hash_to_curve`` is the map
point ``P′`` alone, which is all a party that only *pairs* with
``H1(T)`` computes: it moves the cofactor onto its fixed G1 argument,
``ê(X, c·P′) = ê((c mod q)·X, P′)`` (docs/PERFORMANCE.md, "H1 without
its cofactor").
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.tre import SHARED_H1_RECEIVERS


# Recording one argument's Miller lines, in one-shot (fused) Miller
# loops: measured on ss512, see "Cold pairings" in docs/PERFORMANCE.md.
LINE_RECORDING_MILLER_LOOPS = 1.3

# H1's map point without the cofactor multiplication, as a share of
# the full hash (the hash is charged one scalar-mult equivalent).  The
# 352-bit cofactor multiplication is about three quarters of
# hash_to_g1 on ss512 (docs/PERFORMANCE.md, "H1 without its cofactor").
MAP_TO_CURVE_SHARE = 0.25

# dominant_cost's weights, in scalar-mult equivalents: the measured
# ratios in BENCH_pairing.json.
PAIRING_WEIGHT = 10.0
PRECOMP_PAIRING_WEIGHT = 4.0
# scalar_mult:ss512:fixed_base over scalar_mult:ss512:direct, one
# session: 1.38 / 10.00 ms per 8 multiplications on the width-8 table.
FIXED_BASE_WEIGHT = 0.14
FINAL_EXP_WEIGHT = 2.0
GT_FIXED_BASE_WEIGHT = 0.4


@dataclass(frozen=True)
class OpBudget:
    """Operation counts for one protocol step.

    ``fixed_base_mults`` and ``precomputed_pairings`` are *subsets* of
    ``scalar_mults`` / ``pairings`` taken via the precomputation fast
    paths (mirroring the advisory counters in
    :mod:`repro.pairing.opcount`), not additional operations.
    """

    pairings: int = 0
    scalar_mults: int = 0
    hash_to_group: int = 0
    # H1's map point only, no cofactor multiplication (mirrors
    # HASH_TO_CURVE in repro.pairing.opcount).
    hash_to_curve: int = 0
    gt_exps: int = 0
    point_adds: int = 0
    fixed_base_mults: int = 0
    precomputed_pairings: int = 0
    # Subset of ``gt_exps`` served by a windowed GT fixed-base table
    # (mirrors GT_FIXED_BASE in repro.pairing.opcount): zero squarings,
    # one GT multiplication per exponent window.
    gt_fixed_base_exps: int = 0
    # Pairing substructure (mirrors MILLER_LOOP / FINAL_EXP /
    # MULTI_PAIRING in repro.pairing.opcount): ``miller_loops`` is one
    # per live pairing, while a k-fold multi-pairing shares ONE final
    # exponentiation across its k pairings, so ``final_exps`` can be
    # smaller than ``pairings``.
    miller_loops: int = 0
    final_exps: int = 0
    multi_pairs: int = 0
    # Interleaved sums Σ k_i·P_i (mirrors MULTI_SCALAR_MULT in
    # repro.pairing.opcount), each one call whatever its term count;
    # their terms are not in scalar_mults.
    multi_scalar_mults: int = 0
    # Miller-line recordings for a one-off argument (a transient
    # PairingPrecomputation).  No counter sees them, so they stay out
    # of as_dict; dominant_cost charges each 1.3 one-shot Miller loops
    # (the record-vs-fuse table in docs/PERFORMANCE.md).
    line_recordings: int = 0

    def __add__(self, other: "OpBudget") -> "OpBudget":
        """Two steps run one after the other: every count adds up."""
        return OpBudget(**{
            item.name: getattr(self, item.name) + getattr(other, item.name)
            for item in fields(self)
        })

    def as_dict(self) -> dict[str, int]:
        mapping = {
            "pairing": self.pairings,
            "scalar_mult": self.scalar_mults,
            "hash_to_group": self.hash_to_group,
            "hash_to_curve": self.hash_to_curve,
            "gt_exp": self.gt_exps,
            "point_add": self.point_adds,
            "fixed_base_mult": self.fixed_base_mults,
            "pairing_precomp": self.precomputed_pairings,
            "gt_fixed_base": self.gt_fixed_base_exps,
            "miller_loop": self.miller_loops,
            "final_exp": self.final_exps,
            "multi_pair": self.multi_pairs,
            "multi_scalar_mult": self.multi_scalar_mults,
        }
        return {name: count for name, count in mapping.items() if count}

    def dominant_cost(self) -> float:
        """A single comparable number: scalar-mult-equivalents.

        Precomputed pairings keep the final exponentiation but drop the
        Miller-loop curve arithmetic; table-driven multiplications drop
        all doublings.  A multi-pairing budget (``multi_pairs > 0``)
        gets credited the final exponentiations it shares away:
        ``pairings - final_exps`` of them, each worth
        :data:`FINAL_EXP_WEIGHT`.  A table-driven GT exponentiation
        (``gt_fixed_base_exps``, a subset of ``gt_exps``) drops all
        squarings the same way a fixed-base multiplication does, and
        earns the same discount.  A map point without its cofactor
        (``hash_to_curve``) costs :data:`MAP_TO_CURVE_SHARE` of a full
        ``hash_to_group``.  A line recording costs
        :data:`LINE_RECORDING_MILLER_LOOPS` one-shot Miller loops, a
        Miller loop being a pairing without its final exponentiation.
        A multi-scalar sum costs one scalar multiplication: its doubling
        chain is one multiplication's, and its additions, about a fifth
        of a multiplication per 128-bit term on ss512, are left out.
        The weights are the module constants above.
        """
        direct_pairings = self.pairings - self.precomputed_pairings
        direct_mults = self.scalar_mults - self.fixed_base_mults
        direct_gt_exps = self.gt_exps - self.gt_fixed_base_exps
        # Budgets written before the multi-pairing kernel leave
        # final_exps at 0 ("not modeled") — only credit the saving when
        # the budget explicitly declares multi-pairing structure.
        saved_final_exps = (
            self.pairings - self.final_exps if self.multi_pairs else 0
        )
        return (
            direct_pairings * PAIRING_WEIGHT
            + self.precomputed_pairings * PRECOMP_PAIRING_WEIGHT
            + direct_mults
            + self.multi_scalar_mults
            + self.fixed_base_mults * FIXED_BASE_WEIGHT
            + self.hash_to_group
            + self.hash_to_curve * MAP_TO_CURVE_SHARE
            + direct_gt_exps
            + self.gt_fixed_base_exps * GT_FIXED_BASE_WEIGHT
            + 0.01 * self.point_adds
            + self.line_recordings * LINE_RECORDING_MILLER_LOOPS
            * (PAIRING_WEIGHT - FINAL_EXP_WEIGHT)
            - saved_final_exps * FINAL_EXP_WEIGHT
        )


@dataclass(frozen=True)
class SchemeCost:
    name: str
    encrypt: OpBudget
    decrypt: OpBudget
    notes: str = ""


# The §5.1 scheme: Encrypt = r·G and K = ê(r·asG, H1(T)), computed as
# ê(asG, P′)^(c·r mod q) from H1's map point P′ alone: one map point,
# one scalar multiplication (U), one pairing and one GT exponentiation.
# Decrypt = one pairing then ^a.
TRE_COST = SchemeCost(
    name="TRE",
    encrypt=OpBudget(
        pairings=1, scalar_mults=1, hash_to_curve=1, gt_exps=1,
        miller_loops=1, final_exps=1,
    ),
    decrypt=OpBudget(pairings=1, gt_exps=1, miller_loops=1, final_exps=1),
    notes="receiver-key check: +2 pairings (amortizable)",
)

# §5.2: Encrypt is the §5.1 sender key for the two labels (ID, T) under
# X = sG: r·G, per label H1's map point P′ and one pairing ê(sG, P′),
# and one GT exponentiation of their product to c·r mod q, which is
# ê(r·sG, H1(ID) + H1(T)).
IDTRE_COST = SchemeCost(
    name="ID-TRE",
    encrypt=OpBudget(
        pairings=2, scalar_mults=1, hash_to_curve=2, gt_exps=1,
        miller_loops=2, final_exps=2,
    ),
    decrypt=OpBudget(pairings=1, point_adds=1, miller_loops=1, final_exps=1),
    notes="escrow inherent; no receiver certificate",
)

# Footnote 3: ElGamal KEM (2 smul) + BF-IBE (1 pairing + 2 smul +
# 1 H1 + 1 GT exp).
HYBRID_COST = SchemeCost(
    name="hybrid PKE+IBE",
    encrypt=OpBudget(
        pairings=1, scalar_mults=3, hash_to_group=1, gt_exps=1,
        miller_loops=1, final_exps=1,
    ),
    decrypt=OpBudget(pairings=1, scalar_mults=1, miller_loops=1, final_exps=1),
    notes="2 group elements per ciphertext (TRE: 1)",
)


def multiserver_cost(servers: int) -> SchemeCost:
    """§5.3.5: one r·G_i per server, then the §5.1 sender key with
    ``X = Σ a·s_iG_i`` (H1's map point, one pairing and one GT
    exponentiation, like TRE); decryption is
    ONE N-fold multi-pairing (N Miller loops, one shared final
    exponentiation)."""
    return SchemeCost(
        name=f"multi-server (N={servers})",
        encrypt=OpBudget(
            pairings=1,
            scalar_mults=servers,
            hash_to_curve=1,
            gt_exps=1,
            point_adds=servers - 1,
            miller_loops=1,
            final_exps=1,
        ),
        decrypt=OpBudget(
            pairings=servers, gt_exps=1,
            miller_loops=servers, final_exps=1, multi_pairs=1,
        ),
    )


def resilient_cost(depth: int) -> SchemeCost:
    """§6 construction at tree depth d (decrypting from a leaf key)."""
    return SchemeCost(
        name=f"resilient (d={depth})",
        encrypt=OpBudget(
            # U_0 = r·G, U_i = r·P_i for levels 2..d (each P_i hashed
            # into G1) and K = ê(asG, P′_1)^(c·r mod q) on P_1's map
            # point, like TRE.
            pairings=1, scalar_mults=depth, hash_to_group=depth - 1,
            hash_to_curve=1, gt_exps=1, miller_loops=1, final_exps=1,
        ),
        decrypt=OpBudget(
            pairings=depth, gt_exps=1,
            miller_loops=depth, final_exps=1, multi_pairs=1,
        ),
        notes="decrypt pairings = 1 + (d-1) translation ratios",
    )


# Every pairing-product *verification* is one multi-pairing ratio check:
# two (or more) Miller loops, a single shared final exponentiation.  The
# update check ê(sG, H1(T)) == ê(G, I_T) runs as ê(D, P′) == ê(G, I_T)
# with D = (c mod q)·sG, so it hashes only to H1's map point P′.
UPDATE_VERIFY_COST = OpBudget(
    pairings=2, hash_to_curve=1, miller_loops=2, final_exps=1, multi_pairs=1
)
# Once per ServerPublicKey object, on its first update check (or in
# ServerPublicKey.precompute): deriving D = (c mod q)·sG.
UPDATE_KEY_DERIVATION_COST = OpBudget(scalar_mults=1)
RECEIVER_KEY_CHECK_COST = OpBudget(
    pairings=2, miller_loops=2, final_exps=1, multi_pairs=1
)

# ----------------------------------------------------------------------
# Precomputed variants (same primary op counts — the fast paths change
# *how* an operation runs, never how many run; the sub-counters assert
# the fast paths actually engaged).
# ----------------------------------------------------------------------

# §5.1 Encrypt after TimedReleaseScheme.precompute_sender (no labels),
# or from a cold sender's second send on: its one scalar multiplication,
# rG, comes from G's fixed-base table.
TRE_PRECOMP_ENCRYPT_COST = OpBudget(
    pairings=1, scalar_mults=1, hash_to_curve=1, gt_exps=1,
    fixed_base_mults=1, miller_loops=1, final_exps=1,
)

# §5.1 Encrypt after precompute_sender(..., time_labels=[T]) — the GT
# fast path.  Unlike the other precomputed variants this one genuinely
# *eliminates* primary operations rather than rerouting them: the
# constant pairing ê(asG, H1(T)) is cached, so the pairing, the
# hash-to-curve and the r·asG multiplication all vanish, leaving one
# fixed-base U = rG and one table-driven GT exponentiation g^r.  This
# is the encryption collapse the E4c table demonstrates
# (dominant cost: 12.25 -> ~0.8 scalar-mult equivalents).
TRE_GT_ENCRYPT_COST = OpBudget(
    scalar_mults=1, fixed_base_mults=1, gt_exps=1, gt_fixed_base_exps=1,
)

# Warming it: per receiver key object, D = (c mod q)·asG (asG has no
# table: no send multiplies it) and one recording of D's lines; per
# label, H1's map point P′ and one replay of D's lines,
# g_{R,T} = ê(D, P′).
SENDER_KEY_DERIVATION_COST = OpBudget(scalar_mults=1, line_recordings=1)
SENDER_LABEL_COST = OpBudget(
    pairings=1, hash_to_curve=1, precomputed_pairings=1, miller_loops=1, final_exps=1,
)


def broadcast_encrypt_cost(recipients: int, warm: bool = True) -> OpBudget:
    """One broadcast encryption to ``recipients`` receivers.

    Warm (GT caches built by ``BroadcastTimedReleaseScheme.
    precompute_sender``): one shared fixed-base ``U = rG`` plus one
    table-driven GT exponentiation per recipient — no pairings at all.
    Cold, fewer than :data:`~repro.core.tre.SHARED_H1_RECEIVERS` (four,
    where the two forms break even on ss512): one ``rG`` and one map
    point of ``H1(T)``, then per recipient one pairing and one GT
    exponentiation.
    Cold, that many or more: one ``H1(T)``, two scalar multiplications
    (``rG`` and ``r·H1(T)``), one shared recording of the Miller lines
    of ``r·H1(T)`` and one precomputed pairing per recipient.
    ``rG`` is counted cold; from the sender's second send on it is
    table-driven (one fixed-base multiplication).
    """
    if recipients < 1:
        raise ValueError("a broadcast needs at least one recipient")
    if warm:
        return OpBudget(
            scalar_mults=1, fixed_base_mults=1,
            gt_exps=recipients, gt_fixed_base_exps=recipients,
        )
    if recipients < SHARED_H1_RECEIVERS:
        return OpBudget(
            pairings=recipients, scalar_mults=1, hash_to_curve=1,
            gt_exps=recipients, miller_loops=recipients, final_exps=recipients,
        )
    return OpBudget(
        pairings=recipients, scalar_mults=2, hash_to_group=1,
        precomputed_pairings=recipients, line_recordings=1,
        miller_loops=recipients, final_exps=recipients,
    )

# Update self-authentication against recorded (D, G) lines: after
# precompute_public (verify_archive's per-update pass calls it) or
# ServerPublicKey.precompute, or from the third check per server key
# and group (the second records them).  Both pairings evaluate cached
# Miller lines inside one multi-pairing.  D was derived when the lines
# were recorded, so no scalar multiplication.
PRECOMP_UPDATE_VERIFY_COST = OpBudget(
    pairings=2, hash_to_curve=1, precomputed_pairings=2,
    miller_loops=2, final_exps=1, multi_pairs=1,
)

# The receiver-key check from its third use against one server key
# (the second records (G, sG)): both pairings evaluate cached lines
# inside one multi-pairing, symmetry swapping sG into the fixed slot.
PRECOMP_KEY_CHECK_COST = OpBudget(
    pairings=2, precomputed_pairings=2,
    miller_loops=2, final_exps=1, multi_pairs=1,
)


def archive_verify_cost(n: int, fallback: bool = False) -> OpBudget:
    """``verify_archive`` on a freshly decoded backlog of ``n`` updates.

    A backlog of one is the single update check,
    :data:`UPDATE_VERIFY_COST`.  From two on it is one batched
    equation ``ê(D, Σ r_i·P′_i) / ê(G, Σ r_i·I_i) == 1``: ``n`` map
    points ``P′_i`` (``hash_to_curve``), the two multi-scalar sums
    ``Σ r_i·P′_i`` and ``Σ r_i·I_i`` (two ``multi_scalar_mult``) and one
    fused multi-pairing (two Miller loops, one final exponentiation),
    recording no lines.  With ``fallback`` (the batch failed on one bad
    update) the server key's ``(D, G)`` lines are recorded next and
    every update is checked on its own against them, on the map point
    it already has (:data:`PRECOMP_UPDATE_VERIFY_COST` without its
    ``hash_to_curve``); the bad update then runs the full check once
    more (:data:`PRECOMP_UPDATE_VERIFY_COST`), hashing its label again.
    Deriving ``D = (c mod q)·sG``, once per key object, is
    :data:`UPDATE_KEY_DERIVATION_COST` and stays outside.
    """
    if n < 1:
        raise ValueError("a backlog to verify holds at least one update")
    if n == 1:
        return UPDATE_VERIFY_COST
    budget = OpBudget(
        pairings=2, hash_to_curve=n, multi_scalar_mults=2,
        miller_loops=2, final_exps=1, multi_pairs=1,
    )
    if fallback:
        single = OpBudget(
            pairings=2, precomputed_pairings=2,
            miller_loops=2, final_exps=1, multi_pairs=1,
        )
        budget = budget + OpBudget(line_recordings=2)
        for _ in range(n):
            budget = budget + single
        budget = budget + PRECOMP_UPDATE_VERIFY_COST
    return budget


def tre_batch_decrypt_cost(n: int) -> OpBudget:
    """Decrypting ``n`` ciphertexts sharing one ``I_T``.

    One scalar multiplication ``a·I_T`` and one transient recording of
    its lines per batch, then one line evaluation and one final
    exponentiation per ciphertext: ``ê(U_i, a·I_T) = ê(U_i, I_T)^a``,
    so no GT exponentiation.  The pairings stay independent (each
    ciphertext needs its own GT value), so no final exponentiations are
    shared here.  This path's lever is the transient ``a·I_T`` line
    table: it turns each ciphertext's pairing into a line replay and
    removes the per-ciphertext GT exponentiation.
    """
    return OpBudget(
        pairings=n, scalar_mults=1, precomputed_pairings=n,
        miller_loops=n, final_exps=n, line_recordings=1,
    )
