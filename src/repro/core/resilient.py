"""Missing-update-resilient TRE — the paper's stated future work (§6).

In plain TRE "a key update ``s·H1(T)`` could only be used to decrypt
messages with release time ``T``, but not any ``T_i < T``"; receivers
who miss a broadcast must consult the server's archive.  The paper's
conclusion proposes fixing this "using the hierarchical identity based
encryption in a way similar to forward secure encryption [7]".  This
module builds exactly that construction:

* Time is a depth-``d`` binary tree; epoch ``t`` is the leaf whose path
  is the ``d``-bit binary expansion of ``t``.
* A Gentry–Silverberg HIBE node key for path ``(b_1..b_k)`` is

      S = s·P_1 + Σ_{i=2..k} r_i·P_i,    Q_i = r_i·G,

  with ``P_i = H1(b_1..b_i)``.  Holding a node key lets *anyone* derive
  keys for all descendants (add a fresh ``r·P`` per level) — but never
  for any other subtree.
* At time ``t`` the server broadcasts node keys for the **left cover**
  of ``[0, t]``: the ≤ d+1 maximal subtrees containing exactly the
  leaves ``0..t``.  One such broadcast therefore unlocks *every elapsed
  epoch at once* — a receiver who missed arbitrarily many updates
  recovers from the single latest one.
* Encryption stays receiver-bound exactly as in TRE: the session key is
  ``ê(a·sG, P_1)^r``, so decryption needs the receiver's ``a`` *and* a
  node key covering the release epoch; the server (before time ``t``)
  and other users still learn nothing.  Like TRE's, the sender's key
  pairs against ``P_1``'s map point alone; only levels ``2..d`` are
  hashed into G1, for ``U_i = r·P_i``.

Costs (measured in experiment E13): the update grows from one point to
O(d²/2) points worst-case and decryption from one pairing to ≤ d+1
pairings — the price of resilience, exactly the trade the paper
anticipated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.keys import ServerKeyPair, ServerPublicKey, UserKeyPair, UserPublicKey
from repro.core.tre import H2_TAG
from repro.ec.point import CurvePoint
from repro.encoding import BITS, BYTES, POINT, U16, U64, codec, nested, pack_chunks, seq, xor_bytes
from repro.errors import (
    ParameterError,
    UpdateNotAvailableError,
    UpdateVerificationError,
)
from repro.pairing.api import GTElement, PairingGroup

_TREE_TAG = "repro:H1:tree"
# The first chunk of every node label.
_NAMESPACE = b"time"


def epoch_path(epoch: int, depth: int) -> tuple[int, ...]:
    """The leaf path of ``epoch``: its ``depth``-bit big-endian expansion."""
    if not 0 <= epoch < (1 << depth):
        raise ParameterError(f"epoch {epoch} out of range for depth {depth}")
    return tuple((epoch >> (depth - 1 - i)) & 1 for i in range(depth))


def left_cover(epoch: int, depth: int) -> list[tuple[int, ...]]:
    """Maximal subtree roots covering exactly the leaves ``0..epoch``.

    For every 1-bit in the path, the 0-sibling subtree at that level is
    entirely in the past; the leaf itself completes the cover.
    """
    path = epoch_path(epoch, depth)
    cover: list[tuple[int, ...]] = []
    for level, bit in enumerate(path):
        if bit == 1:
            cover.append(path[:level] + (0,))
    cover.append(path)
    return cover


@codec(path=BITS, s_point=POINT, q_points=seq(POINT))
@dataclass(frozen=True)
class NodeKey:
    """A GS-HIBE node key: ``(path, S, [Q_2..Q_k])``."""

    path: tuple[int, ...]
    s_point: CurvePoint
    q_points: tuple[CurvePoint, ...]

    @property
    def depth(self) -> int:
        return len(self.path)

    def covers(self, leaf: tuple[int, ...]) -> bool:
        return leaf[: len(self.path)] == self.path

    def point_count(self) -> int:
        return 1 + len(self.q_points)


@codec(epoch=U64, depth=U16, node_keys=seq(nested(NodeKey)))
@dataclass(frozen=True)
class ResilientUpdate:
    """The broadcast for time ``t``: node keys for the left cover of [0,t]."""

    epoch: int
    depth: int
    node_keys: tuple[NodeKey, ...]

    def point_count(self) -> int:
        return sum(key.point_count() for key in self.node_keys)


@codec(epoch=U64, depth=U16, u0=POINT, u_points=seq(POINT), masked=BYTES)
@dataclass(frozen=True)
class ResilientCiphertext:
    """``(U_0, U_2..U_d, V)`` plus the release epoch."""

    epoch: int
    depth: int
    u0: CurvePoint
    u_points: tuple[CurvePoint, ...]  # r·P_i for levels 2..d
    masked: bytes


class HierarchicalTimeTree:
    """Shared tree geometry + hash-to-group identities for one deployment."""

    def __init__(self, group: PairingGroup, depth: int):
        if depth < 1:
            raise ParameterError("tree depth must be at least 1")
        self.group = group
        self.depth = depth

    def _node_label(self, path: tuple[int, ...]) -> bytes:
        return pack_chunks(
            _NAMESPACE,
            self.depth.to_bytes(2, "big"),
            bytes(path),
        )

    def node_point(self, path: tuple[int, ...]) -> CurvePoint:
        """``P_k = H1(b"time", depth, b_1..b_k)``."""
        return self.group.hash_to_g1(self._node_label(path), tag=_TREE_TAG)

    def path_points(self, path: tuple[int, ...]) -> list[CurvePoint]:
        return [self.node_point(path[: i + 1]) for i in range(len(path))]


class ResilientTimeServer:
    """A passive server whose broadcasts unlock *all* elapsed epochs.

    Its key pair is fresh from ``rng``.
    """

    def __init__(self, group: PairingGroup, depth: int, rng: random.Random):
        self.group = group
        self.tree = HierarchicalTimeTree(group, depth)
        self._keypair = ServerKeyPair.generate(group, rng)
        self._rng = rng
        self.latest_epoch: int | None = None

    @property
    def public_key(self) -> ServerPublicKey:
        return self._keypair.public

    @property
    def depth(self) -> int:
        return self.tree.depth

    def _make_node_key(self, path: tuple[int, ...]) -> NodeKey:
        """``S = s·P_1 + Σ r_i·P_i`` with fresh ``r_i`` (footnote 4 still
        holds: nothing is remembered between broadcasts)."""
        points = self.tree.path_points(path)
        s_point = self.group.mul(points[0], self._keypair.private)
        q_points = []
        for point in points[1:]:
            r = self.group.random_scalar(self._rng)
            s_point = self.group.add(s_point, self.group.mul(point, r))
            q_points.append(self.group.mul(self.public_key.generator, r))
        return NodeKey(path, s_point, tuple(q_points))

    def publish_update(self, epoch: int) -> ResilientUpdate:
        """One broadcast covering every epoch ``<= epoch``."""
        cover = left_cover(epoch, self.depth)
        update = ResilientUpdate(
            epoch, self.depth, tuple(self._make_node_key(p) for p in cover)
        )
        if self.latest_epoch is None or epoch > self.latest_epoch:
            self.latest_epoch = epoch
        return update

    def verify_node_key(self, key: NodeKey) -> bool:
        """Self-authentication, generalized: check
        ``ê(G, S) == ê(sG, P_1) · Π ê(Q_i, P_i)``.

        The whole product equation is one multi-pairing ratio check —
        ``k + 2`` Miller loops in lockstep, a single final
        exponentiation — instead of ``k + 2`` standalone pairings.
        """
        if not self.group.in_group(key.s_point):
            return False
        points = self.tree.path_points(key.path)
        if len(points) != len(key.q_points) + 1:
            return False
        return self.group.pair_ratio_is_one(
            ((self.public_key.generator, key.s_point),),
            [
                (self.public_key.s_generator, points[0]),
                *zip(key.q_points, points[1:]),
            ],
        )


class ResilientTRE:
    """TRE whose decryption accepts any covering node key.

    Bound to one server's public key: the translation points ``Q_i``
    must use the same generator as the ciphertext's ``U_0`` for the
    pairing ratios to cancel, so key derivation needs ``G``.
    """

    def __init__(
        self,
        group: PairingGroup,
        tree: HierarchicalTimeTree,
        server_public: ServerPublicKey,
    ):
        self.group = group
        self.tree = tree
        self.server_public = server_public

    def generate_user_keypair(
        self, server_public: ServerPublicKey, rng: random.Random
    ) -> UserKeyPair:
        return UserKeyPair.generate(self.group, server_public, rng)

    def encrypt(
        self,
        message: bytes,
        receiver_public: UserPublicKey,
        epoch: int,
        rng: random.Random,
        verify_receiver_key: bool = True,
    ) -> ResilientCiphertext:
        """GS-HIBE encryption bound to the receiver's ``asG``."""
        if verify_receiver_key:
            receiver_public.ensure_well_formed(self.group, self.server_public)
        path = epoch_path(epoch, self.tree.depth)
        r = self.group.random_scalar(rng)
        u0 = self.group._mul_on_second_use(self.server_public.generator, r)
        u_points = tuple(
            self.group.mul(self.tree.node_point(path[:level]), r)
            for level in range(2, len(path) + 1)
        )
        # K = ê(r·asG, P_1) — receiver-bound and paired like plain TRE.
        k = self.group.pair_h1(
            receiver_public.as_generator, self.tree._node_label(path[:1]),
            _TREE_TAG, scalar=r,
        )
        mask = self.group.mask_bytes(k, len(message), tag=H2_TAG)
        return ResilientCiphertext(
            epoch, self.tree.depth, u0, u_points, xor_bytes(message, mask)
        )

    def derive_leaf_key(
        self, node_key: NodeKey, epoch: int, rng: random.Random
    ) -> NodeKey:
        """Public derivation: extend a covering node key down to a leaf.

        Each added level appends a fresh ``r·P`` to ``S`` and ``r·G`` to
        the translation list — no secret input needed, which is what
        makes one broadcast serve every past epoch.
        """
        leaf = epoch_path(epoch, self.tree.depth)
        if not node_key.covers(leaf):
            raise UpdateNotAvailableError(
                f"node key for {node_key.path} does not cover epoch {epoch}"
            )
        s_point = node_key.s_point
        q_points = list(node_key.q_points)
        for level in range(node_key.depth, self.tree.depth):
            point = self.tree.node_point(leaf[: level + 1])
            r = self.group.random_scalar(rng)
            s_point = self.group.add(s_point, self.group.mul(point, r))
            q_points.append(self.group.mul(self.server_public.generator, r))
        return NodeKey(leaf, s_point, tuple(q_points))

    def find_covering_key(
        self, update: ResilientUpdate, epoch: int
    ) -> NodeKey:
        if update.depth != self.tree.depth:
            raise UpdateVerificationError("update is for another tree depth")
        leaf = epoch_path(epoch, self.tree.depth)
        for key in update.node_keys:
            if key.covers(leaf):
                return key
        raise UpdateNotAvailableError(
            f"update for epoch {update.epoch} does not cover epoch {epoch}"
        )

    def decrypt(
        self,
        ciphertext: ResilientCiphertext,
        receiver: UserKeyPair | int,
        update_or_leaf_key: ResilientUpdate | NodeKey,
        rng: random.Random | None = None,
    ) -> bytes:
        """Decrypt with any update published at or after the release epoch.

        ``K' = [ê(U_0, S_leaf) / Π ê(Q_i, U_i)]^a``.
        """
        if ciphertext.depth != self.tree.depth:
            raise UpdateVerificationError("ciphertext is for another tree depth")
        private = receiver.private if isinstance(receiver, UserKeyPair) else receiver
        if isinstance(update_or_leaf_key, ResilientUpdate):
            if rng is None:
                raise ParameterError("derivation from an update needs an rng")
            covering = self.find_covering_key(update_or_leaf_key, ciphertext.epoch)
            leaf_key = self.derive_leaf_key(covering, ciphertext.epoch, rng)
        else:
            leaf_key = update_or_leaf_key
        leaf = epoch_path(ciphertext.epoch, self.tree.depth)
        if leaf_key.path != leaf:
            raise UpdateVerificationError(
                "leaf key does not match the ciphertext's release epoch"
            )
        if len(leaf_key.q_points) != len(ciphertext.u_points):
            raise UpdateVerificationError("malformed leaf key or ciphertext")
        # One multi-pairing for the whole ratio: d+1 Miller loops in
        # lockstep (divisions become conjugated factors), one final exp.
        k: GTElement = self.group.multi_pair(
            [
                (ciphertext.u0, leaf_key.s_point),
                *zip(leaf_key.q_points, ciphertext.u_points),
            ],
            [1] + [-1] * len(leaf_key.q_points),
        )
        k = k ** private
        mask = self.group.mask_bytes(k, len(ciphertext.masked), tag=H2_TAG)
        return xor_bytes(ciphertext.masked, mask)
