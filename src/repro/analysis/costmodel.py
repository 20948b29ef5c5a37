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

from dataclasses import asdict, dataclass, replace

from repro.core.tre import SHARED_H1_RECEIVERS
from repro.errors import ParameterError


@dataclass(frozen=True)
class OpBudget:
    """Operation counts for one protocol step, one field per counter of
    :mod:`repro.pairing.opcount`, named as the counter is.

    ``fixed_base_mult``, ``pairing_precomp`` and ``gt_fixed_base`` are
    *subsets* of ``scalar_mult`` / ``pairing`` / ``gt_exp`` taken via
    the precomputation fast paths, not additional operations.  A
    k-fold multi-pairing is k ``miller_loop`` and ONE ``final_exp``, so
    ``final_exp`` can be smaller than ``pairing``.  A
    ``multi_scalar_mult`` is one interleaved sum Σ k_i·P_i whatever its
    term count; its terms are not in ``scalar_mult``.  ``gt_mul`` is a
    product of two GT values outside a pairing.  One kind of work has
    no field: recording a one-off argument's Miller lines, which no
    counter sees.
    """

    pairing: int = 0
    scalar_mult: int = 0
    point_add: int = 0
    hash_to_group: int = 0
    hash_to_curve: int = 0
    gt_exp: int = 0
    gt_mul: int = 0
    multi_scalar_mult: int = 0
    fixed_base_mult: int = 0
    pairing_precomp: int = 0
    gt_fixed_base: int = 0
    miller_loop: int = 0
    final_exp: int = 0
    multi_pair: int = 0

    def __add__(self, other: "OpBudget") -> "OpBudget":
        """Two steps run one after the other: every count adds up."""
        return OpBudget(**{
            name: count + getattr(other, name) for name, count in asdict(self).items()
        })

    def as_dict(self) -> dict[str, int]:
        """The nonzero counts by counter name, as
        ``OperationCounter.measure`` reports them."""
        return {name: count for name, count in asdict(self).items() if count}


@dataclass(frozen=True)
class SchemeCost:
    encrypt: OpBudget
    decrypt: OpBudget


# The §5.1 scheme: Encrypt = r·G and K = ê(r·asG, H1(T)), computed as
# ê(asG, P′)^(c·r mod q) from H1's map point P′ alone: one map point,
# one scalar multiplication (U), one pairing and one GT exponentiation.
# Decrypt = one pairing then ^a.
TRE_COST = SchemeCost(
    encrypt=OpBudget(
        pairing=1, scalar_mult=1, hash_to_curve=1, gt_exp=1,
        miller_loop=1, final_exp=1,
    ),
    decrypt=OpBudget(pairing=1, gt_exp=1, miller_loop=1, final_exp=1),
)

# §5.2: Encrypt is the §5.1 sender key for the two labels (ID, T) under
# X = sG: r·G, per label H1's map point P′ and one pairing ê(sG, P′),
# one GT multiplication for their product, and one GT exponentiation of
# it to c·r mod q, which is ê(r·sG, H1(ID) + H1(T)).
IDTRE_COST = SchemeCost(
    encrypt=OpBudget(
        pairing=2, scalar_mult=1, hash_to_curve=2, gt_exp=1, gt_mul=1,
        miller_loop=2, final_exp=2,
    ),
    decrypt=OpBudget(pairing=1, point_add=1, miller_loop=1, final_exp=1),
)

# Footnote 3: ElGamal KEM (2 smul) + BF-IBE (1 pairing + 2 smul +
# 1 H1 + 1 GT exp).
HYBRID_COST = SchemeCost(
    encrypt=OpBudget(
        pairing=1, scalar_mult=3, hash_to_group=1, gt_exp=1,
        miller_loop=1, final_exp=1,
    ),
    decrypt=OpBudget(pairing=1, scalar_mult=1, miller_loop=1, final_exp=1),
)


def multiserver_cost(servers: int) -> SchemeCost:
    """§5.3.5: one r·G_i per server, then the §5.1 sender key with
    ``X = Σ a·s_iG_i`` (one point addition per server, onto the
    identity, then H1's map point, one pairing and one GT
    exponentiation, like TRE); decryption is ONE N-fold multi-pairing
    (N Miller loops, one shared final exponentiation)."""
    return SchemeCost(
        encrypt=OpBudget(
            pairing=1, scalar_mult=servers, point_add=servers,
            hash_to_curve=1, gt_exp=1, miller_loop=1, final_exp=1,
        ),
        decrypt=OpBudget(
            pairing=servers, gt_exp=1,
            miller_loop=servers, final_exp=1, multi_pair=1,
        ),
    )


def resilient_cost(depth: int) -> SchemeCost:
    """§6 construction at tree depth d (decrypting from a leaf key)."""
    return SchemeCost(
        encrypt=OpBudget(
            # U_0 = r·G, U_i = r·P_i for levels 2..d (each P_i hashed
            # into G1) and K = ê(asG, P′_1)^(c·r mod q) on P_1's map
            # point, like TRE.
            pairing=1, scalar_mult=depth, hash_to_group=depth - 1,
            hash_to_curve=1, gt_exp=1, miller_loop=1, final_exp=1,
        ),
        decrypt=OpBudget(
            pairing=depth, gt_exp=1,
            miller_loop=depth, final_exp=1, multi_pair=1,
        ),
    )


# Every pairing-product *verification* is one multi-pairing ratio check:
# two (or more) Miller loops, a single shared final exponentiation.  The
# update check ê(sG, H1(T)) == ê(G, I_T) runs as ê(D, P′) == ê(G, I_T)
# with D = (c mod q)·sG, so it hashes only to H1's map point P′.
UPDATE_VERIFY_COST = OpBudget(
    pairing=2, hash_to_curve=1, miller_loop=2, final_exp=1, multi_pair=1
)
# Once per ServerPublicKey object, on its first update check (or in
# BLSSignatureScheme.precompute_public): deriving D = (c mod q)·sG.
UPDATE_KEY_DERIVATION_COST = OpBudget(scalar_mult=1)
RECEIVER_KEY_CHECK_COST = OpBudget(
    pairing=2, miller_loop=2, final_exp=1, multi_pair=1
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
    pairing=1, scalar_mult=1, hash_to_curve=1, gt_exp=1,
    fixed_base_mult=1, miller_loop=1, final_exp=1,
)

# §5.1 Encrypt after precompute_sender(..., time_labels=[T]) — the GT
# fast path.  Unlike the other precomputed variants this one genuinely
# *eliminates* primary operations rather than rerouting them: the
# constant pairing ê(asG, H1(T)) is cached, so the pairing, the
# hash-to-curve and the r·asG multiplication all vanish, leaving one
# fixed-base U = rG and one table-driven GT exponentiation g^r.  This
# is the encryption collapse the E4c table demonstrates.
TRE_GT_ENCRYPT_COST = OpBudget(
    scalar_mult=1, fixed_base_mult=1, gt_exp=1, gt_fixed_base=1,
)

# Warming it: per receiver key object, D = (c mod q)·asG (asG has no
# table: no send multiplies it) and one recording of D's lines, which
# no counter sees; per label, H1's map point P′ and one replay of D's
# lines, g_{R,T} = ê(D, P′).
SENDER_KEY_DERIVATION_COST = OpBudget(scalar_mult=1)
SENDER_LABEL_COST = OpBudget(
    pairing=1, hash_to_curve=1, pairing_precomp=1, miller_loop=1, final_exp=1,
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
        raise ParameterError("a broadcast needs at least one recipient")
    if warm:
        return OpBudget(
            scalar_mult=1, fixed_base_mult=1,
            gt_exp=recipients, gt_fixed_base=recipients,
        )
    if recipients < SHARED_H1_RECEIVERS:
        return OpBudget(
            pairing=recipients, scalar_mult=1, hash_to_curve=1,
            gt_exp=recipients, miller_loop=recipients, final_exp=recipients,
        )
    return OpBudget(
        pairing=recipients, scalar_mult=2, hash_to_group=1,
        pairing_precomp=recipients, miller_loop=recipients, final_exp=recipients,
    )

# Update self-authentication against recorded (D, G) lines: after
# BLSSignatureScheme.precompute_public (verify_archive's per-update pass
# calls it), or from the second check per server key and group on (the
# second records them first).  Both pairings evaluate cached
# Miller lines inside one multi-pairing.  D was derived when the lines
# were recorded, so no scalar multiplication.
PRECOMP_UPDATE_VERIFY_COST = OpBudget(
    pairing=2, hash_to_curve=1, pairing_precomp=2,
    miller_loop=2, final_exp=1, multi_pair=1,
)

# The receiver-key check from its second use against one server key
# on (the second records (G, sG) first): both pairings evaluate cached lines
# inside one multi-pairing, symmetry swapping sG into the fixed slot.
PRECOMP_KEY_CHECK_COST = OpBudget(
    pairing=2, pairing_precomp=2,
    miller_loop=2, final_exp=1, multi_pair=1,
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
        raise ParameterError("a backlog to verify holds at least one update")
    if n == 1:
        return UPDATE_VERIFY_COST
    budget = OpBudget(
        pairing=2, hash_to_curve=n, multi_scalar_mult=2,
        miller_loop=2, final_exp=1, multi_pair=1,
    )
    if fallback:
        single = replace(PRECOMP_UPDATE_VERIFY_COST, hash_to_curve=0)
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
        pairing=n, scalar_mult=1, pairing_precomp=n,
        miller_loop=n, final_exp=n,
    )
