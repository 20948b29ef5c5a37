"""The TRE scheme — the paper's primary contribution (§5.1).

Encryption of ``M`` for receiver ``(aG, asG)`` under server ``(G, sG)``
with release time ``T``:

1. check the receiver key is well-formed: ``ê(aG, sG) == ê(G, asG)``;
2. pick ``r ∈ Z_q^*``, compute ``U = rG`` and ``r·asG``;
3. ``K = ê(r·asG, H1(T)) = ê(G, H1(T))^{ras}``;
4. ciphertext ``C = ⟨U, M ⊕ H2(K)⟩``.

Decryption with private key ``a`` and update ``I_T = s·H1(T)``:
``K' = ê(U, I_T)^a``, then ``M = V ⊕ H2(K')``.

Decryption therefore requires *both* the receiver's secret and the
server's broadcast — neither alone suffices (tested in
``tests/core/test_tre_security.py``).  As in the paper, this base scheme
is one-way/CPA-secure; apply :mod:`repro.core.fujisaki_okamoto` or
:mod:`repro.core.react` for chosen-ciphertext security, and
:mod:`repro.core.hybrid_tre` for long messages.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

from repro.core.keys import ServerPublicKey, UserKeyPair, UserPublicKey
from repro.core.timeserver import TimeBoundKeyUpdate
from repro.ec.point import CurvePoint
from repro.encoding import BYTES, POINT, codec, xor_bytes
from repro.errors import UpdateVerificationError
from repro.pairing.api import GTElement, PairingGroup, PairingPrecomputation

H1_TAG = "repro:H1"
H2_TAG = "repro:H2"

# Cold receivers of one broadcast from which they share one r·H1(T) and
# its recorded Miller lines instead of a pairing and a GT exponentiation
# each (measured in docs/PERFORMANCE.md, "The cold multi-receiver
# threshold").
SHARED_H1_RECEIVERS = 4


@codec(u_point=POINT, masked=BYTES, time_label=BYTES)
@dataclass(frozen=True)
class TRECiphertext:
    """``C = ⟨U, V⟩`` plus the (public) release-time label.

    The paper transmits ``T`` alongside the ciphertext so the receiver
    knows which update to wait for; it is not secret from the receiver,
    and the *server* never sees it.
    """

    u_point: CurvePoint
    masked: bytes
    time_label: bytes


class TimedReleaseScheme:
    """The server-passive, user-anonymous timed release encryption scheme."""

    def __init__(self, group: PairingGroup):
        # The scheme is stateless beyond its group, which holds every
        # warm sender pairing g_{R,T} (PairingGroup.precompute_pair_h1):
        # every layer on this KEM shares one warm state.
        self.group = group

    # ------------------------------------------------------------------
    # Key generation (delegates to repro.core.keys, kept here so the
    # scheme object exposes the paper's full interface).
    # ------------------------------------------------------------------

    def generate_user_keypair(
        self, server_public: ServerPublicKey, rng: random.Random
    ) -> UserKeyPair:
        return UserKeyPair.generate(self.group, server_public, rng)

    # ------------------------------------------------------------------
    # The pairing-derived shared secret (KEM core).
    # ------------------------------------------------------------------

    def _sender_key(
        self,
        point: CurvePoint,
        labels: tuple[bytes, ...],
        r: int,
    ) -> GTElement:
        """``K = Π_j ê(r·X, H1(T_j)) = ê(r·X, Σ_j H1(T_j))``, the §5.1
        key for a conjunction of labels: ``(T,)`` under a receiver's
        ``asG`` (multi-server: ``Σ a·s_iG_i``), ``(ID, T)`` under ``sG``
        for ID-TRE, an AND lock's conditions under ``asG``.

        A warm ``(X, T_j)`` (:meth:`precompute_sender`) costs
        ``ê(X, H1(T_j))^r``, one table-driven GT exponentiation.  A cold
        label costs ``H1(T_j)``'s map point ``P′_j`` and one pairing
        ``ê(X, P′_j) = ê(c⁻¹·X, H1(T_j))`` with its own fallback
        (:meth:`~repro.pairing.api.PairingGroup.pair_h1` with
        ``scalar = c⁻¹ mod q``), and the cold labels' product is raised
        to ``c·r mod q`` once: no scalar multiplication of ``X``.
        One pairing against ``Σ_j P′_j`` would be inexact: it cannot
        tell when a single label's ``c·P′_j = O``.
        """
        factors = []
        cold = None
        for label in labels:
            g = self.group.cached_pair_h1(point, label)
            if g is not None:
                factors.append(g ** r)
                continue
            g = self.group.pair_h1(
                point, label, H1_TAG, scalar=self.group.h1_cofactor_inverse
            )
            cold = g if cold is None else cold * g
        if cold is not None:
            factors.append(cold ** (self.group.h1_cofactor * r))
        return reduce(operator.mul, factors)

    def _sender_keys(
        self,
        points: Sequence[CurvePoint],
        time_label: bytes,
        r: int,
    ) -> list[GTElement]:
        """``K_i = ê(r·X_i, H1(T))`` for every point ``X_i``, in order.

        A warm point costs ``ê(X_i, H1(T))^r``, one table-driven GT
        exponentiation.  Fewer than :data:`SHARED_H1_RECEIVERS` cold
        points share one map point ``P′₀`` of ``H1(T)``, and each costs
        one pairing ``ê(X_i, P′₀)`` raised to ``c·r mod q``, with its
        own fallback (:meth:`~repro.pairing.api.PairingGroup.pair_h1`).
        From that many cold points on they share one ``H1(T)`` (cleared:
        a recorded argument must lie in G1), one ``r·H1(T)`` and one
        recording of its Miller lines; each then costs one replay and
        one final exponentiation, ``ê(X_i, r·H1(T))``, the same element.
        """
        warm = [self.group.cached_pair_h1(point, time_label) for point in points]
        cold = [point for point, g in zip(points, warm) if g is None]
        if len(cold) < SHARED_H1_RECEIVERS:
            # No map point at all when every point is warm.
            cold_keys = cold and self.group.pair_h1(
                cold, time_label, H1_TAG, scalar=r
            )
        else:
            h_t = self.group.hash_to_g1(time_label, tag=H1_TAG)
            # Transient on purpose: r is fresh per encryption, so these
            # lines are never reused and must not enter the group cache.
            shared = PairingPrecomputation(self.group, self.group.mul(h_t, r))
            cold_keys = [shared.pair(point) for point in cold]
        keys = iter(cold_keys)
        return [next(keys) if g is None else g ** r for g in warm]

    def _receiver_key(
        self,
        u_point: CurvePoint,
        receiver: UserKeyPair | int,
        point: CurvePoint,
    ) -> GTElement:
        """``K' = ê(U, Z)^a`` — computed by the receiver.

        ``Z`` is the update ``I_T`` (or, for a conjunction of
        conditions, the sum of their attestations).
        """
        private = receiver.private if isinstance(receiver, UserKeyPair) else receiver
        return self.group.pair(u_point, point) ** private

    # ------------------------------------------------------------------
    # Fixed-argument precomputation.
    # ------------------------------------------------------------------

    def precompute_sender(
        self,
        receiver_public: UserPublicKey,
        server_public: ServerPublicKey,
        time_labels: Iterable[bytes] = (),
    ) -> None:
        """Warm the sender's fixed-argument caches for repeated encryption.

        Builds the fixed-base table of the server's ``G``, so every
        ``U = rG`` after it is table-driven via ``group.mul`` (a cold
        sender gets the same table on its second send, see
        :meth:`~repro.pairing.api.PairingGroup._mul_on_second_use`).
        ``asG`` gets no table: no send multiplies it.

        ``time_labels`` unlocks the GT fast path: for each label ``T``
        the constant pairing ``g_{R,T} = ê(asG, H1(T))`` is computed
        once and cached on the group with a windowed exponentiation
        table (:meth:`~repro.pairing.api.PairingGroup.precompute_pair_h1`),
        after which every encryption for that (receiver, T) pair on the
        group, through this scheme or any layer on its KEM (hybrid, FO,
        REACT, broadcast, policy locks), costs one table-driven
        fixed-base multiplication (``U = rG``) plus one table-driven GT
        exponentiation (``g_{R,T}^r``) — no pairing, no hash-to-curve —
        with byte-identical ciphertexts.  A label costs ``H1(T)``'s map
        point and one replay of the Miller lines of ``(c mod q)·asG``,
        derived once per receiver key object and recorded once per
        group.  :meth:`~repro.pairing.api.PairingGroup.clear_precomputations`
        is the one reset: it drops the pairings with their tables.
        """
        self.group.precompute(server_public.generator)
        time_labels = list(time_labels)
        if time_labels:
            self.group.precompute_pair_h1(
                receiver_public.as_generator,
                receiver_public.cofactor_as_generator(self.group),
                time_labels,
            )

    # ------------------------------------------------------------------
    # Encryption / decryption (§5.1 verbatim).
    # ------------------------------------------------------------------

    def encrypt(
        self,
        message: bytes,
        receiver_public: UserPublicKey,
        server_public: ServerPublicKey,
        time_label: bytes,
        rng: random.Random,
        verify_receiver_key: bool = True,
    ) -> TRECiphertext:
        """Encrypt ``message`` so it opens at/after ``time_label``.

        ``verify_receiver_key=False`` skips the step-1 pairing check for
        callers who have already validated (or certified) the key; the
        check costs two pairings, which E1 accounts separately.
        """
        mask, u_point = self.encapsulate(
            receiver_public,
            server_public,
            time_label,
            rng,
            key_bytes=len(message),
            verify_receiver_key=verify_receiver_key,
        )
        return TRECiphertext(u_point, xor_bytes(message, mask), time_label)

    def decrypt(
        self,
        ciphertext: TRECiphertext,
        receiver: UserKeyPair | int,
        update: TimeBoundKeyUpdate,
        server_public: ServerPublicKey | None = None,
    ) -> bytes:
        """Decrypt with the receiver's secret and the matching update.

        When ``server_public`` is given, the update is first
        self-authenticated (``ê(sG, H1(T)) == ê(G, I_T)``) and its label
        checked against the ciphertext — catching a wrong-epoch or forged
        update *before* producing garbage plaintext; an update already
        accepted under that key object passes at no cost (see
        :meth:`~repro.core.timeserver.TimeBoundKeyUpdate.verify`).
        Without it, the method is the paper's bare two-step decryption.
        """
        if server_public is not None:
            update.ensure_opens(ciphertext.time_label, self.group, server_public)
        mask = self.decapsulate(
            ciphertext.u_point, receiver, update, key_bytes=len(ciphertext.masked)
        )
        return xor_bytes(ciphertext.masked, mask)

    def decrypt_batch(
        self,
        ciphertexts: list[TRECiphertext],
        receiver: UserKeyPair | int,
        update: TimeBoundKeyUpdate,
        server_public: ServerPublicKey | None = None,
    ) -> list[bytes]:
        """Decrypt many ciphertexts bound to the *same* release time.

        This is the deployment-shaped hot path: one broadcast ``I_T``
        unlocks every ciphertext labelled ``T``.  By bilinearity
        ``ê(U, I_T)^a = ê(U, a·I_T)``, so the batch computes the
        receiver's epoch key ``a·I_T`` once, records its Miller lines
        once (the pairing is symmetric, so it takes the fixed slot) and
        each ciphertext then costs one line evaluation and one final
        exponentiation, with no GT exponentiation.  ``a·I_T`` opens
        every ciphertext for ``T``, so its lines live in a transient
        :class:`~repro.pairing.api.PairingPrecomputation` dropped on
        return; they never enter the group cache.
        Recording re-checks that ``a·I_T`` lies in G1, which costs
        nothing when ``I_T`` carries its subgroup proof (every decoded
        or signed update does; ``group.mul`` passes the proof on) and
        one ``q·P`` multiplication otherwise.
        Against evaluating ``I_T``'s lines and raising each result to
        ``a``, a batch of three or fewer pays at most the one scalar
        multiplication more, and every larger batch saves one GT
        exponentiation per ciphertext; one path serves every size.
        Outputs are byte-identical to calling :meth:`decrypt` once per
        ciphertext; a ciphertext with a different label raises
        :class:`UpdateVerificationError` before any plaintext is
        produced.  ``server_public``, when given, self-authenticates
        the update once for the whole batch, and not at all if the
        update was already accepted under that key object.  The batch
        runs in this process: with no GT exponentiation left per
        ciphertext, two worker processes measured no faster at any
        batch size a workload issues (docs/PERFORMANCE.md, "Why there
        is no process pool").
        """
        private = receiver.private if isinstance(receiver, UserKeyPair) else receiver
        for ciphertext in ciphertexts:
            if ciphertext.time_label != update.time_label:
                raise UpdateVerificationError(
                    "batch contains a ciphertext for a different release time"
                )
        if server_public is not None:
            update.ensure_valid(self.group, server_public)
        # Transient on purpose: a·I_T is the receiver's decryption key
        # for T, so neither it nor its lines may outlive this batch.
        epoch_key = PairingPrecomputation(
            self.group, self.group.mul(update.point, private)
        )
        plaintexts = []
        for ciphertext in ciphertexts:
            k = epoch_key.pair(ciphertext.u_point)
            mask = self.group.mask_bytes(k, len(ciphertext.masked), tag=H2_TAG)
            plaintexts.append(xor_bytes(ciphertext.masked, mask))
        return plaintexts

    # ------------------------------------------------------------------
    # KEM view (used by the hybrid, CCA and policy-lock layers).
    # ------------------------------------------------------------------

    def encapsulate(
        self,
        receiver_public: UserPublicKey,
        server_public: ServerPublicKey,
        time_label: bytes,
        rng: random.Random,
        key_bytes: int = 32,
        verify_receiver_key: bool = True,
    ) -> tuple[bytes, CurvePoint]:
        """Produce ``(shared_key, U)``; the receiver recovers the key
        from ``U`` with :meth:`decapsulate` once the update is out."""
        if verify_receiver_key:
            receiver_public.ensure_well_formed(self.group, server_public)
        r = self.group.random_scalar(rng)
        u_point = self.group._mul_on_second_use(server_public.generator, r)
        k = self._sender_key(receiver_public.as_generator, (time_label,), r)
        return self.group.mask_bytes(k, key_bytes, tag=H2_TAG), u_point

    def decapsulate(
        self,
        u_point: CurvePoint,
        receiver: UserKeyPair | int,
        update: TimeBoundKeyUpdate,
        key_bytes: int = 32,
    ) -> bytes:
        k = self._receiver_key(u_point, receiver, update.point)
        return self.group.mask_bytes(k, key_bytes, tag=H2_TAG)


class KEMScheme:
    """A scheme layered on the §5.1 KEM.

    Its sender reads the group's warm pairings: warm a (receiver, T)
    with :meth:`TimedReleaseScheme.precompute_sender` on the same group
    and the layer's encryptions skip the pairing, byte-identically.
    """

    def __init__(self, group: PairingGroup):
        self.group = group
        self._kem = TimedReleaseScheme(group)
