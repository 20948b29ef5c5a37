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
FIXED_BASE_WEIGHT = 0.4
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
# ê((c·r mod q)·asG, P′) from H1's map point P′ alone: one map point,
# two scalar multiplications, one pairing.  Decrypt = one pairing
# then ^a.
TRE_COST = SchemeCost(
    name="TRE",
    encrypt=OpBudget(
        pairings=1, scalar_mults=2, hash_to_curve=1,
        miller_loops=1, final_exps=1,
    ),
    decrypt=OpBudget(pairings=1, gt_exps=1, miller_loops=1, final_exps=1),
    notes="receiver-key check: +2 pairings (amortizable)",
)

# §5.2: Encrypt is the §5.1 sender key for the two labels (ID, T) under
# X = sG: r·G, one D = (c·r mod q)·sG, and per label H1's map point P′
# and one pairing ê(D, P′); the two factors multiply to
# ê(r·sG, H1(ID) + H1(T)).
IDTRE_COST = SchemeCost(
    name="ID-TRE",
    encrypt=OpBudget(
        pairings=2, scalar_mults=2, hash_to_curve=2,
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
    ``X = Σ a·s_iG_i`` (H1's map point only, like TRE); decryption is
    ONE N-fold multi-pairing (N Miller loops, one shared final
    exponentiation)."""
    return SchemeCost(
        name=f"multi-server (N={servers})",
        encrypt=OpBudget(
            pairings=1,
            scalar_mults=servers + 1,
            hash_to_curve=1,
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
            # into G1) and K = ê((c·r mod q)·asG, P′_1) on P_1's map
            # point, like TRE.
            pairings=1, scalar_mults=depth + 1, hash_to_group=depth - 1,
            hash_to_curve=1, miller_loops=1, final_exps=1,
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

# §5.1 Encrypt after TimedReleaseScheme.precompute_sender: both scalar
# multiplications (rG, (c·r mod q)·asG) come from fixed-base tables.
TRE_PRECOMP_ENCRYPT_COST = OpBudget(
    pairings=1, scalar_mults=2, hash_to_curve=1, fixed_base_mults=2,
    miller_loops=1, final_exps=1,
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

# Warming it: per receiver key object, D = (c mod q)·asG from asG's
# fixed-base table and one recording of D's lines; per label, H1's map
# point P′ and one replay of D's lines, g_{R,T} = ê(D, P′).
SENDER_KEY_DERIVATION_COST = OpBudget(scalar_mults=1, fixed_base_mults=1, line_recordings=1)
SENDER_LABEL_COST = OpBudget(
    pairings=1, hash_to_curve=1, precomputed_pairings=1, miller_loops=1, final_exps=1,
)


def broadcast_encrypt_cost(recipients: int, warm: bool = True) -> OpBudget:
    """One broadcast encryption to ``recipients`` receivers.

    Warm (GT caches built by ``BroadcastTimedReleaseScheme.
    precompute_sender``): one shared fixed-base ``U = rG`` plus one
    table-driven GT exponentiation per recipient — no pairings at all.
    Cold, one recipient: :data:`TRE_COST` — ``H1(T)``'s map point,
    ``rG``, ``(c·r mod q)·asG`` and one pairing.
    Cold, two or more: one ``H1(T)``, two scalar multiplications
    (``rG`` and ``r·H1(T)``), one shared recording of the Miller lines
    of ``r·H1(T)`` and one precomputed pairing per recipient.
    """
    if recipients < 1:
        raise ValueError("a broadcast needs at least one recipient")
    if warm:
        return OpBudget(
            scalar_mults=1, fixed_base_mults=1,
            gt_exps=recipients, gt_fixed_base_exps=recipients,
        )
    if recipients == 1:
        return TRE_COST.encrypt
    return OpBudget(
        pairings=recipients, scalar_mults=2, hash_to_group=1,
        precomputed_pairings=recipients, line_recordings=1,
        miller_loops=recipients, final_exps=recipients,
    )

# Update self-authentication against recorded (D, G) lines: after
# precompute_public, ServerPublicKey.precompute or verify_archive, or
# from the third check per server key and group (the second records
# them).  Both pairings evaluate cached Miller lines inside one
# multi-pairing.  D was derived when the lines were recorded, so no
# scalar multiplication.
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


def cost_table() -> str:
    """Render the fixed budgets as an aligned table (for docs/benches)."""
    from repro.analysis.table import format_table

    def ops(budget: OpBudget) -> str:
        hashes = f"{budget.hash_to_group}H"
        if budget.hash_to_curve:
            hashes += f" {budget.hash_to_curve}h"
        return (
            f"{budget.pairings}P {budget.scalar_mults}M {hashes} "
            f"{budget.gt_exps}E"
        )

    rows = []
    for cost in (
        TRE_COST, IDTRE_COST, HYBRID_COST, multiserver_cost(3), resilient_cost(8)
    ):
        rows.append((
            cost.name,
            ops(cost.encrypt),
            ops(cost.decrypt),
            f"{cost.encrypt.dominant_cost():.0f}",
            f"{cost.decrypt.dominant_cost():.0f}",
        ))
    return format_table(
        ("scheme", "encrypt", "decrypt", "enc cost*", "dec cost*"),
        rows,
        title=(
            "Symbolic op budgets (*scalar-mult equivalents, pairing=10; "
            "h = H1 map point without its cofactor)"
        ),
    )
