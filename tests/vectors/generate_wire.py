"""Regenerate ``tests/vectors/wire.json``, the known-answer vectors of the
wire objects no other vector file pins.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/generate_wire.py

On the same sets as ``tre.json`` (toy64 families A and B, ss512 family
A), from a seeded RNG, each set records:

* the server and receiver public keys;
* a 2-of-3 threshold server: the update shares ``s_i·H1(T)`` of
  members 1–3 and the update combined from members 1 and 2;
* a depth-4 resilient server (§6): its public key and its updates for
  epochs 0, 5 and 15, and a ``ResilientTRE`` ciphertext for epoch 5,
  pinned component by component;
* key insulation (§5.3.3): a TRE ciphertext, its update and the
  plaintext ``decrypt_with_epoch_key`` recovers;
* the layouts that came with ``repro.encoding.codec``: the resilient
  ciphertext's bytes, and a policy-lock OR ciphertext over three
  conditions and a 2-of-3 one;
* ``PassiveTimeServer.snapshot_archive()`` after three publishes;
* every ``repro.service.wire`` frame: ``GetUpdate``, ``GetArchive``
  with an empty and a non-empty ``after``, ``Health``, ``Announce``,
  ``UpdateResponse``, ``ArchiveResponse`` with 0, 1 and 3 blobs,
  ``HealthResponse`` with 0 and 2 pairs and ``ErrorResponse`` with
  both error codes.

Each part draws from its own seeded RNG, so a replay of one does not
depend on another.  Every plaintext is fixed (``message(name)``).  The
vectors were generated once and committed; ``test_wire_vectors.py``
replays them on every available backend.  Regenerate only when a change
is *meant* to move these bytes, and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.core.key_insulation import SafeDevice, decrypt_with_epoch_key
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.policylock import PolicyLockScheme, ThresholdPolicyScheme
from repro.core.resilient import ResilientTRE, ResilientTimeServer
from repro.core.threshold import ThresholdTimeServer
from repro.core.timeserver import PassiveTimeServer
from repro.core.tre import TimedReleaseScheme
from repro.pairing.api import PairingGroup
from repro.service import wire

OUT = pathlib.Path(__file__).with_name("wire.json")

SETS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A")]
LABEL = b"repro:wire-vectors:T"
ARCHIVE_LABELS = [
    b"repro:wire-vectors:A0",
    b"repro:wire-vectors:A1",
    b"repro:wire-vectors:A2",
]
MEMBERS = 3
THRESHOLD = 2
DEPTH = 4
EPOCHS = (0, 5, 15)
RELEASE_EPOCH = 5
CONDITIONS = [
    b"repro:wire-vectors:C0",
    b"repro:wire-vectors:C1",
    b"repro:wire-vectors:C2",
]

# Each part's RNG is seeded with set_seed(...) + offset.
OFFSETS = {
    "threshold": 1,
    "resilient": 2,
    "resilient_encrypt": 3,
    "insulated": 4,
    "policy_any": 5,
    "policy_threshold": 6,
}


def set_seed(params: str, family: str) -> int:
    digest = hashlib.sha256(f"repro:wire-vectors:{params}:{family}".encode())
    return int.from_bytes(digest.digest()[:8], "big")


def message(name: str) -> bytes:
    """The fixed plaintext of part ``name``."""
    return f"repro wire vector message for {name}".encode() + bytes(range(23))


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(seed + OFFSETS[name])


def keys(group: PairingGroup, seed: int):
    """Seeded ``(server, user)`` key pairs."""
    rng = random.Random(seed)
    server = ServerKeyPair.generate(group, rng)
    user = UserKeyPair.generate(group, server.public, rng)
    return server, user


def resilient(group: PairingGroup, seed: int):
    """Seeded ``(resilient server, scheme, receiver)``."""
    rng = _rng(seed, "resilient")
    server = ResilientTimeServer(group, DEPTH, rng)
    scheme = ResilientTRE(group, server.tree, server.public_key)
    user = scheme.generate_user_keypair(server.public_key, rng)
    return server, scheme, user


def frames(update_blobs: list[bytes]) -> dict:
    """Every service frame kind, named, carrying ``update_blobs``."""
    return {
        "get_update": wire.GetUpdate(LABEL),
        "get_archive_empty": wire.GetArchive(b""),
        "get_archive_after": wire.GetArchive(ARCHIVE_LABELS[0]),
        "health": wire.Health(),
        "announce": wire.Announce(update_blobs[0]),
        "update": wire.UpdateResponse(update_blobs[0]),
        "archive_0": wire.ArchiveResponse(()),
        "archive_1": wire.ArchiveResponse(tuple(update_blobs[:1])),
        "archive_3": wire.ArchiveResponse(tuple(update_blobs[:3])),
        "health_ok_0": wire.HealthResponse(()),
        "health_ok_2": wire.HealthResponse(
            ((b"status", b"ok"), (b"epoch", b"12"))
        ),
        "error_unavailable": wire.ErrorResponse(
            wire.ERR_UNAVAILABLE, b"not published yet"
        ),
        "error_bad_request": wire.ErrorResponse(
            wire.ERR_BAD_REQUEST, b"unknown request"
        ),
    }


def build(group: PairingGroup, seed: int) -> dict:
    """Every pinned object of one set, live."""
    server, user = keys(group, seed)

    coordinator, members = ThresholdTimeServer.setup(
        group, MEMBERS, THRESHOLD, _rng(seed, "threshold")
    )
    shares = [member.issue_update_share(LABEL) for member in members]
    combined = coordinator.combine(shares[:THRESHOLD])

    resilient_server, resilient_scheme, resilient_user = resilient(group, seed)
    resilient_updates = [resilient_server.publish_update(e) for e in EPOCHS]
    resilient_ciphertext = resilient_scheme.encrypt(
        message("resilient"), resilient_user.public, RELEASE_EPOCH,
        _rng(seed, "resilient_encrypt"),
    )

    time_server = PassiveTimeServer(group, keypair=server)
    update = time_server.issue_update(LABEL)
    ciphertext = TimedReleaseScheme(group).encrypt(
        message("insulated"), user.public, server.public, LABEL,
        _rng(seed, "insulated"),
    )
    epoch_key = SafeDevice(group, user, server.public).derive_epoch_key(update)

    policy_any = PolicyLockScheme(group).encrypt_any(
        message("policy_any"), user.public, server.public, CONDITIONS,
        _rng(seed, "policy_any"),
    )
    policy_threshold = ThresholdPolicyScheme(group).encrypt(
        message("policy_threshold"), user.public, server.public, CONDITIONS,
        THRESHOLD, _rng(seed, "policy_threshold"),
    )

    archive_server = PassiveTimeServer(group, keypair=server)
    archived = [archive_server.publish_update(label) for label in ARCHIVE_LABELS]

    return {
        "server_public": server.public,
        "user_public": user.public,
        "threshold_public": coordinator.public_key,
        "update_shares": shares,
        "combined_update": combined,
        "resilient_public": resilient_server.public_key,
        "resilient_user_public": resilient_user.public,
        "resilient_updates": resilient_updates,
        "resilient_ciphertext": resilient_ciphertext,
        "insulated_update": update,
        "insulated_ciphertext": ciphertext,
        "insulated_plaintext": decrypt_with_epoch_key(group, ciphertext, epoch_key),
        "policy_any": policy_any,
        "policy_threshold": policy_threshold,
        "archive_snapshot": archive_server.snapshot_archive(),
        "frames": frames([u.to_bytes(group) for u in archived]),
    }


def encode(group: PairingGroup, objects: dict) -> dict:
    """The JSON form of :func:`build`'s output."""
    resilient_ciphertext = objects["resilient_ciphertext"]
    return {
        "server_public": objects["server_public"].to_bytes(group).hex(),
        "user_public": objects["user_public"].to_bytes(group).hex(),
        "threshold_public": objects["threshold_public"].to_bytes(group).hex(),
        "update_shares": [
            share.to_bytes(group).hex() for share in objects["update_shares"]
        ],
        "combined_update": objects["combined_update"].to_bytes(group).hex(),
        "resilient_public": objects["resilient_public"].to_bytes(group).hex(),
        "resilient_user_public": (
            objects["resilient_user_public"].to_bytes(group).hex()
        ),
        "resilient_updates": [
            update.to_bytes(group).hex()
            for update in objects["resilient_updates"]
        ],
        "resilient_ciphertext": {
            "epoch": resilient_ciphertext.epoch,
            "depth": resilient_ciphertext.depth,
            "u0": group.point_to_bytes(resilient_ciphertext.u0).hex(),
            "u_points": [
                group.point_to_bytes(u).hex()
                for u in resilient_ciphertext.u_points
            ],
            "masked": resilient_ciphertext.masked.hex(),
        },
        "resilient_ciphertext_bytes": resilient_ciphertext.to_bytes(group).hex(),
        "policy_any": objects["policy_any"].to_bytes(group).hex(),
        "policy_threshold": objects["policy_threshold"].to_bytes(group).hex(),
        "insulated": {
            "update": objects["insulated_update"].to_bytes(group).hex(),
            "ciphertext": objects["insulated_ciphertext"].to_bytes(group).hex(),
            "plaintext": objects["insulated_plaintext"].hex(),
        },
        "archive_snapshot": objects["archive_snapshot"].hex(),
        "frames": {
            name: wire.encode_message(frame).hex()
            for name, frame in objects["frames"].items()
        },
    }


def build_set(params: str, family: str) -> dict:
    group = PairingGroup(params, family=family, backend="python")
    seed = set_seed(params, family)
    return {
        "params": params,
        "family": family,
        "seed": seed,
        "objects": encode(group, build(group, seed)),
    }


def main() -> None:
    doc = {
        "description": (
            "Known-answer vectors of the wire objects; "
            "see tests/vectors/generate_wire.py"
        ),
        "label": LABEL.hex(),
        "archive_labels": [label.hex() for label in ARCHIVE_LABELS],
        "members": MEMBERS,
        "threshold": THRESHOLD,
        "depth": DEPTH,
        "epochs": list(EPOCHS),
        "release_epoch": RELEASE_EPOCH,
        "conditions": [c.hex() for c in CONDITIONS],
        "sets": [build_set(params, family) for params, family in SETS],
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
