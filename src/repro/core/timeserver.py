"""The completely passive time server (paper §3).

The server's entire job is:

1. periodically output a *time-bound key update* ``I_T = s·H1(T)`` for
   the current time string ``T`` (a BLS signature on ``T``), and
2. keep an archive of old updates at a publicly accessible place so a
   receiver who missed a broadcast can still look it up.

It holds **no** per-user state, performs **no** interaction with senders
or receivers, and need not pre-publish anything for future instants —
footnote 4: it "can generate a key update for any particular instant
directly using its private key".  The trust assumptions from §3 are
enforced here operationally: the server refuses to *publish* an update
whose time has not yet arrived on its clock (``issue_update`` exists
separately to model a corrupt server in the tests).

Time strings are arbitrary bytes, exactly as in the paper.  For epoch
maths (key insulation, simulations) :func:`epoch_label` provides a
canonical, lexicographically ordered label family.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.bls import BLSSignatureScheme
from repro.core.keys import ServerKeyPair, ServerPublicKey
from repro.ec.point import CurvePoint
from repro.encoding import BYTES, POINT, codec, pack_chunks, unpack_chunks
from repro.errors import (
    ReproError,
    UpdateNotAvailableError,
    UpdateVerificationError,
)
from repro.pairing import hashing
from repro.pairing.api import PairingGroup


def epoch_label(epoch: int, prefix: str = "epoch") -> bytes:
    """A canonical label for integer epochs, ordered lexicographically."""
    if epoch < 0:
        raise ValueError("epochs are non-negative")
    return f"{prefix}:{epoch:012d}".encode()


@codec(time_label=BYTES, point=POINT)
@dataclass(frozen=True)
class TimeBoundKeyUpdate:
    """``I_T = s·H1(T)`` — identical for all users, self-authenticating."""

    time_label: bytes
    point: CurvePoint
    # (server key object, group) under which the check last accepted;
    # set by _check.  Outside equality, hash, repr and the wire.
    _accepted_under: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def verify(self, group: PairingGroup, server_public: ServerPublicKey) -> bool:
        """Anyone can check ``ê(sG, H1(T)) == ê(G, I_T)`` (§5.1).

        An update remembers the server-key object it last verified
        under, so asking again under that same object (and an equal
        group) returns ``True`` with no work.  Any other key object and
        every reject run the full check.
        """
        return self._check(BLSSignatureScheme(group), server_public)

    def _check(self, bls: BLSSignatureScheme, server_public) -> bool:
        """:meth:`verify` through ``bls``, recording an accept."""
        if self._accepted(server_public, bls.group):
            return True
        if not bls.verify(server_public, self.time_label, self.point):
            return False
        self._record(server_public, bls.group)
        return True

    def _accepted(self, server_public, group: PairingGroup) -> bool:
        """Whether a check already accepted this update under that key
        object and an equal group."""
        accepted = self._accepted_under
        return (accepted is not None and accepted[0] is server_public
                and accepted[1] == group)

    def _record(self, server_public, group: PairingGroup) -> None:
        """Record an accept (a frozen dataclass: set past __setattr__)."""
        object.__setattr__(self, "_accepted_under", (server_public, group))

    def ensure_valid(
        self, group: PairingGroup, server_public: ServerPublicKey
    ) -> None:
        if not self.verify(group, server_public):
            raise UpdateVerificationError(
                f"update for {self.time_label!r} failed self-authentication"
            )

    def ensure_opens(
        self,
        time_label: bytes,
        group: PairingGroup,
        server_public: ServerPublicKey | None,
    ) -> None:
        """The one gate an update passes before decryption.

        Raises :class:`UpdateVerificationError` unless the update is
        for ``time_label`` (the ciphertext's release time) and, when
        ``server_public`` is given, self-authenticates under it
        (:meth:`ensure_valid`) — catching a wrong-epoch or forged
        update before it produces garbage plaintext.
        """
        if self.time_label != time_label:
            raise UpdateVerificationError(
                "update is for a different release time than the ciphertext"
            )
        if server_public is not None:
            self.ensure_valid(group, server_public)


class PassiveTimeServer:
    """A trusted-but-passive time reference (the paper's GPS analogy).

    Parameters
    ----------
    group:
        The pairing group shared by everyone.
    rng:
        Randomness for key generation (only used at construction).
    keypair:
        Optionally supply an existing :class:`ServerKeyPair`.
    clock:
        Optional callable returning the current integer epoch.  When
        given, :meth:`publish_update` enforces the §3 trust assumption
        "do not give out any I_T before its release time" for labels
        created by :func:`epoch_label`: no epoch after ``now`` is
        published, whatever a caller's clock says.  Injecting the clock
        keeps the node, the simulator and the tests off the wall clock
        entirely.
    """

    def __init__(
        self,
        group: PairingGroup,
        rng: random.Random | None = None,
        keypair: ServerKeyPair | None = None,
        clock=None,
    ):
        if keypair is None:
            if rng is None:
                raise ValueError("need an rng or an existing keypair")
            keypair = ServerKeyPair.generate(group, rng)
        self.group = group
        self._keypair = keypair
        self._bls = BLSSignatureScheme(group)
        self._clock = clock
        # The public archive of past updates (§3: "keep a list of old key
        # updates ... at a publicly accessible place").
        self._archive: dict[bytes, TimeBoundKeyUpdate] = {}
        self.updates_published = 0
        self.bytes_broadcast = 0

    @property
    def public_key(self) -> ServerPublicKey:
        return self._keypair.public

    # ------------------------------------------------------------------
    # Update generation.
    # ------------------------------------------------------------------

    def issue_update(self, time_label: bytes) -> TimeBoundKeyUpdate:
        """Sign ``T`` directly from the private key (footnote 4).

        This is the raw capability — no release-time policy.  Tests use
        it to model a colluding/corrupt server; honest operation goes
        through :meth:`publish_update`.
        """
        point = self._bls.sign(self._keypair, time_label)
        return TimeBoundKeyUpdate(time_label, point)

    def publish_update(self, time_label: bytes) -> TimeBoundKeyUpdate:
        """Generate, archive and return the single broadcast for ``T``.

        One update serves *every* receiver — the call is O(1) in the
        number of users, which experiment E2 measures against the
        per-user baselines.
        """
        self._enforce_release_policy(time_label)
        if time_label in self._archive:
            return self._archive[time_label]
        update = self.issue_update(time_label)
        self._archive[time_label] = update
        self.updates_published += 1
        self.bytes_broadcast += len(update.to_bytes(self.group))
        return update

    def _enforce_release_policy(self, time_label: bytes) -> None:
        if self._clock is None:
            return
        try:
            epoch = int(time_label.rsplit(b":", 1)[-1])
        except ValueError:
            return  # Free-form labels carry no enforceable ordering.
        now = self._clock()
        if epoch > now:
            # The text reaches the wire as an ERR_UNAVAILABLE detail, which
            # transcripts hash: keep it byte for byte.
            raise UpdateNotAvailableError(
                f"refusing to publish update for epoch {epoch} at time {now} "
                "(skew tolerance 0)"
            )

    # ------------------------------------------------------------------
    # The public archive.
    # ------------------------------------------------------------------

    def lookup(self, time_label: bytes) -> TimeBoundKeyUpdate:
        """Fetch an old update whose release time has passed (§3)."""
        try:
            return self._archive[time_label]
        except KeyError:
            raise UpdateNotAvailableError(
                f"no published update for {time_label!r}"
            )

    def archive_labels(self) -> list[bytes]:
        return sorted(self._archive)

    def archive_since(self, after: bytes = b"") -> list[TimeBoundKeyUpdate]:
        """Archived updates with labels strictly after ``after``, sorted.

        The catch-up primitive: a receiver that saw nothing since label
        ``after`` fetches exactly the backlog it missed.  Labels from
        :func:`epoch_label` sort chronologically; free-form labels sort
        lexicographically, which is still deterministic.
        """
        return [self._archive[label] for label in sorted(self._archive)
                if label > after]

    def snapshot_archive(self) -> bytes:
        """Serialize the public archive for crash/restart recovery.

        Only the archive (public data) is serialized — the keypair is
        the supervisor's responsibility, so no secret ever enters the
        snapshot.  Restore with :meth:`restore_archive`.
        """
        return pack_chunks(
            *(self._archive[label].to_bytes(self.group)
              for label in sorted(self._archive))
        )

    def restore_archive(self, snapshot: bytes) -> int:
        """Re-load an archive snapshot, verifying every update first.

        Each update must self-authenticate under *this* server's public
        key, checked as one backlog by :func:`verify_archive` (one
        batched equation, two Miller loops for the whole snapshot; an
        update-by-update pass only if it fails) — a corrupted or
        foreign snapshot raises
        :class:`UpdateVerificationError` rather than poisoning the
        archive.  Returns the number of updates restored (existing
        entries are kept; counters are not replayed).
        """
        updates = [
            TimeBoundKeyUpdate.from_bytes(self.group, blob)
            for blob in unpack_chunks(snapshot)
        ]
        if verify_archive(self.group, self.public_key, updates):
            raise UpdateVerificationError(
                "snapshot holds an update that fails self-authentication"
            )
        restored = 0
        for update in updates:
            if update.time_label not in self._archive:
                self._archive[update.time_label] = update
                restored += 1
        return restored

    def __repr__(self) -> str:
        return (
            f"PassiveTimeServer(updates={self.updates_published}, "
            f"archive={len(self._archive)})"
        )


# Domain tag of the digest that derives verify_archive's batch weights.
_WEIGHT_TAG = "repro:archive-weights"


def verify_archive(
    group: PairingGroup,
    server_public,
    updates: list[TimeBoundKeyUpdate],
) -> list[bytes]:
    """Archive catch-up: authenticate a backlog, naming every bad label.

    Returns the labels that FAILED ``ê(sG, H1(T)) == ê(G, I_T)`` (empty
    list == all authentic), exactly as checking each update on its own
    would.  The updates still pending, two or more, are first checked
    as ONE equation (Bellare–Garay–Rabin small-exponent batching)::

        ê(D, Σ r_i·P′_i) / ê(G, Σ r_i·I_i) == 1

    with ``D = (c mod q)·sG``, ``P′_i`` the uncleared map point of
    ``H1(T_i)`` that the single check pairs against, ``r_1 = 1`` and
    each other ``r_i`` a nonzero 128-bit weight hashed from the server
    key and every pending ``(label, point)`` (:func:`_batch_weights`;
    no rng is drawn).  The two sums are one
    :meth:`~repro.pairing.api.PairingGroup.multi_scalar_mult` each and
    the ratio is one fused multi-pairing: two Miller loops and one
    final exponentiation for the whole backlog, with no Miller lines
    recorded.

    Soundness and exactness.  Each ratio ``ê(D, P′_i) / ê(G, I_i)``
    lies in the order-``q`` group, so a wrong update passes the batch
    with probability at most ``2⁻¹²⁷``, and since every weight hashes
    every pending update, a forger cannot choose updates after seeing
    the weights.  An accept implies each per-label check: every ``I_i``
    lies in G1 off infinity (else the batch is not tried), so
    ``ê(G, I_i) ≠ 1``, which forces ``ê(D, P′_i) ≠ 1``, hence
    ``c·P′_i ≠ O`` and ``H1(T_i) = c·P′_i``.  A label with
    ``c·P′_j = O`` (where a lone check against a sum of labels would be
    inexact) can only make the batch fail.  Whenever it fails, an input
    is infinity or outside G1, or a Miller value is zero, every update
    is checked on its own: the server key's ``(D, G)`` lines are
    recorded (:meth:`~repro.core.bls.BLSSignatureScheme.precompute_public`)
    and each update is first checked with the one-element form of the
    same equation, ``ê(D, P′_i) / ê(G, I_i) == 1`` on its map point
    already hashed, with no weights and no sums.  The argument above
    holds for one update too, so an accept there is final.  Only an
    update that fails it runs :meth:`TimeBoundKeyUpdate.verify`'s check,
    whose ``H1`` fallback is exact, so the failed labels are pinpointed
    exactly, and only a failed update hashes its label a second time.
    A backlog of one is that single check: no weights and no second
    pass.

    Each accept is recorded on its update as
    :meth:`TimeBoundKeyUpdate.verify` records one: an update already
    accepted under the ``server_public`` object is not checked again,
    and a later ``verify``/``ensure_valid`` under it costs nothing.

    Partial-failure semantics: an update that cannot even be *checked*
    (a malformed point, a group mismatch, an identity-element input the
    verifier rejects) counts as failed and verification continues with
    the rest of the backlog — it never aborts the whole call.

    The backlog is checked in this process, in order; the batched
    equation leaves a process pool nothing to share out
    (docs/PERFORMANCE.md, "Why there is no process pool").
    """
    bls = BLSSignatureScheme(group)
    pending = [u for u in updates if not u._accepted(server_public, group)]
    if len(pending) > 1:
        maps = [group._map_to_curve(u.time_label, bls.hash_tag) for u in pending]
        if _batch_holds(bls, server_public, pending, maps):
            for update in pending:
                update._record(server_public, group)
            return []
        bls.precompute_public(server_public)
        for update, map_point in zip(pending, maps):
            if _batch_holds(bls, server_public, [update], [map_point]):
                update._record(server_public, group)
    failed = []
    for update in updates:
        try:
            ok = update._check(bls, server_public)
        except ReproError:
            # An uncheckable update is a failed update, not an abort:
            # the caller learns *which* labels are bad either way.
            ok = False
        if not ok:
            failed.append(update.time_label)
    return failed


def _batch_holds(
    bls: BLSSignatureScheme,
    server_public,
    pending: list[TimeBoundKeyUpdate],
    maps: list[CurvePoint],
) -> bool:
    """Whether ``ê(D, Σ r_i·P′_i) / ê(G, Σ r_i·I_i) == 1`` over ``pending``,
    whose map points ``P′_i`` are ``maps``; for one update it is
    ``ê(D, P′_1) / ê(G, I_1) == 1``, with no weights and no sums.

    ``False`` also when the equation cannot be exact: an ``I_i`` at
    infinity or outside G1, an infinity input to the pairing, or a
    check that raises (a zero Miller value).  See :func:`verify_archive`.
    """
    group = bls.group
    try:
        if any(u.point.is_infinity or not group.in_group(u.point)
               for u in pending):
            return False
        if len(pending) == 1:
            map_sum, point_sum = maps[0], pending[0].point
        else:
            weights = _batch_weights(
                server_public.to_bytes(group),
                [update.to_bytes(group) for update in pending],
            )
            map_sum = group.multi_scalar_mult(zip(weights, maps))
            point_sum = group.multi_scalar_mult(
                [(r, update.point) for r, update in zip(weights, pending)]
            )
        return group.pair_ratio_is_one(
            ((server_public.cofactor_s_generator(group), map_sum),),
            ((server_public.generator, point_sum),),
        )
    except ReproError:
        return False


def _batch_weights(key_bytes: bytes, entries: list[bytes]) -> list[int]:
    """``r_1 = 1``, then an odd (so nonzero) 128-bit weight per further entry.

    Every weight comes from one digest of the server key's bytes and
    all the entries' bytes, so a change to any byte of any of them
    changes every weight after the first.
    """
    seed = hashing.hash_bytes(
        key_bytes, pack_chunks(*entries), tag=_WEIGHT_TAG
    )
    return [1] + [
        int.from_bytes(hashing.hash_bytes(
            seed, index.to_bytes(4, "big"), tag=_WEIGHT_TAG
        )[:16], "big") | 1
        for index in range(1, len(entries))
    ]
