"""Regenerate ``tests/vectors/schemes.json``, the known-answer vectors of
the schemes built on the §5.1 core.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/generate_schemes.py

The vectors pin, on the same sets as ``tre.json`` (toy64 families A and
B, ss512 family A), the bytes of every scheme that computes §5.1's
sender key ``ê(r·X, H1(L))`` for some receiver point ``X`` and label
``L``.  From a seeded RNG each set records:

* the witness/time server and receiver public keys, the witness
  attestations ``s·H1(C_j)`` for three conditions and the updates
  ``s·H1(T)`` for two labels;
* policy-lock ciphertexts: ``encrypt_all`` under the first two
  conditions, ``encrypt_any`` under all three and
  ``ThresholdPolicyScheme.encrypt`` 2-of-3.  The last two were pinned
  before they had a wire form, so their U points and sealed blob (the
  masked per-condition keys or shares plus the AEAD payload) are pinned
  one by one; ``wire.json`` pins their bytes;
* multi-server TRE with three servers: every server key, the receiver's
  key components, each server's update and the ciphertext;
* FO, REACT and ID-TRE ciphertexts (and the ID-TRE user key).

Each scheme encrypts from its own seeded RNG, so a replay of one does
not depend on another.  Every plaintext is fixed (``message(name)``).
The vectors were generated once and committed;
``test_scheme_vectors.py`` replays them on every available backend.
Regenerate only when a change is *meant* to move these bytes, and say
so in the commit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.core.fujisaki_okamoto import FOTimedReleaseScheme
from repro.core.idtre import IdentityTimedReleaseScheme
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.multiserver import (
    MultiServerTimedReleaseScheme,
    MultiServerUserKeyPair,
)
from repro.core.policylock import PolicyLockScheme, ThresholdPolicyScheme
from repro.core.react import ReactTimedReleaseScheme
from repro.core.timeserver import PassiveTimeServer
from repro.pairing.api import PairingGroup

OUT = pathlib.Path(__file__).with_name("schemes.json")

SETS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A")]
CONDITIONS = [
    b"repro:scheme-vectors:C0",
    b"repro:scheme-vectors:C1",
    b"repro:scheme-vectors:C2",
]
ALL_CONDITIONS = CONDITIONS[:2]
THRESHOLD = 2
LABELS = [b"repro:scheme-vectors:T0", b"repro:scheme-vectors:T1"]
IDENTITY = b"repro:scheme-vectors:alice"
SERVERS = 3

# Each scheme's encryption RNG is seeded with set_seed(...) + offset.
OFFSETS = {
    "policy_all": 1,
    "policy_any": 2,
    "policy_threshold": 3,
    "multiserver": 4,
    "fo": 5,
    "react": 6,
    "idtre": 7,
}


def set_seed(params: str, family: str) -> int:
    digest = hashlib.sha256(f"repro:scheme-vectors:{params}:{family}".encode())
    return int.from_bytes(digest.digest()[:8], "big")


def message(name: str) -> bytes:
    """The fixed plaintext of scheme ``name``."""
    return f"repro scheme vector message for {name}".encode() + bytes(range(19))


def keys(group: PairingGroup, seed: int):
    """Seeded ``(server, user, multi_servers, multi_user)`` keys."""
    rng = random.Random(seed)
    server = ServerKeyPair.generate(group, rng)
    user = UserKeyPair.generate(group, server.public, rng)
    multi_servers = [ServerKeyPair.generate(group, rng) for _ in range(SERVERS)]
    multi_user = MultiServerUserKeyPair.generate(
        group, [s.public for s in multi_servers], rng
    )
    return server, user, multi_servers, multi_user


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(seed + OFFSETS[name])


def encrypt(group: PairingGroup, keyset, seed: int) -> dict:
    """Every scheme's seeded ciphertext, each from a fresh scheme object."""
    server, user, multi_servers, multi_user = keyset
    policy = PolicyLockScheme(group)
    multiserver = MultiServerTimedReleaseScheme(
        group, [s.public for s in multi_servers]
    )
    return {
        "policy_all": policy.encrypt_all(
            message("policy_all"), user.public, server.public,
            ALL_CONDITIONS, _rng(seed, "policy_all"),
        ),
        "policy_any": policy.encrypt_any(
            message("policy_any"), user.public, server.public,
            CONDITIONS, _rng(seed, "policy_any"),
        ),
        "policy_threshold": ThresholdPolicyScheme(group).encrypt(
            message("policy_threshold"), user.public, server.public,
            CONDITIONS, THRESHOLD, _rng(seed, "policy_threshold"),
        ),
        "multiserver": multiserver.encrypt(
            message("multiserver"), multi_user.public, LABELS[0],
            _rng(seed, "multiserver"),
        ),
        "fo": FOTimedReleaseScheme(group).encrypt(
            message("fo"), user.public, server.public, LABELS[0],
            _rng(seed, "fo"),
        ),
        "react": ReactTimedReleaseScheme(group).encrypt(
            message("react"), user.public, server.public, LABELS[0],
            _rng(seed, "react"),
        ),
        "idtre": IdentityTimedReleaseScheme(group).encrypt(
            message("idtre"), IDENTITY, server.public, LABELS[0],
            _rng(seed, "idtre"),
        ),
    }


def points(group: PairingGroup, u_points) -> list[str]:
    return [group.point_to_bytes(u).hex() for u in u_points]


def encode(group: PairingGroup, ciphertexts: dict) -> dict:
    """The JSON form of :func:`encrypt`'s output, component by component."""
    policy_any = ciphertexts["policy_any"]
    policy_threshold = ciphertexts["policy_threshold"]
    return {
        "policy_all": ciphertexts["policy_all"].to_bytes(group).hex(),
        "policy_any": {
            "u_points": points(group, policy_any.u_points),
            "sealed": policy_any.sealed.hex(),
            "conditions": [c.hex() for c in policy_any.conditions],
        },
        "policy_threshold": {
            "threshold": policy_threshold.threshold,
            "u_points": points(group, policy_threshold.u_points),
            "sealed": policy_threshold.sealed.hex(),
            "conditions": [c.hex() for c in policy_threshold.conditions],
        },
        "multiserver": ciphertexts["multiserver"].to_bytes(group).hex(),
        "fo": ciphertexts["fo"].to_bytes(group).hex(),
        "react": ciphertexts["react"].to_bytes(group).hex(),
        "idtre": ciphertexts["idtre"].to_bytes(group).hex(),
    }


def build_set(params: str, family: str) -> dict:
    group = PairingGroup(params, family=family, backend="python")
    seed = set_seed(params, family)
    keyset = keys(group, seed)
    server, user, multi_servers, multi_user = keyset
    witness = PassiveTimeServer(group, keypair=server)
    multi_time_servers = [
        PassiveTimeServer(group, keypair=s) for s in multi_servers
    ]
    id_key = IdentityTimedReleaseScheme(group).extract_user_key(server, IDENTITY)
    return {
        "params": params,
        "family": family,
        "seed": seed,
        "server_public": server.public.to_bytes(group).hex(),
        "user_public": user.public.to_bytes(group).hex(),
        "attestations": [
            witness.issue_update(c).to_bytes(group).hex() for c in CONDITIONS
        ],
        "updates": [
            witness.issue_update(label).to_bytes(group).hex()
            for label in LABELS
        ],
        "multi_server_publics": [
            s.public.to_bytes(group).hex() for s in multi_servers
        ],
        "multi_user_components": [
            c.to_bytes(group).hex() for c in multi_user.components
        ],
        "multi_updates": [
            [ts.issue_update(label).to_bytes(group).hex()
             for ts in multi_time_servers]
            for label in LABELS
        ],
        "idtre_user_key": group.point_to_bytes(id_key.point).hex(),
        "ciphertexts": encode(group, encrypt(group, keyset, seed)),
    }


def main() -> None:
    doc = {
        "description": (
            "Known-answer vectors of the schemes on the §5.1 core; "
            "see tests/vectors/generate_schemes.py"
        ),
        "conditions": [c.hex() for c in CONDITIONS],
        "all_conditions": len(ALL_CONDITIONS),
        "threshold": THRESHOLD,
        "labels": [label.hex() for label in LABELS],
        "identity": IDENTITY.hex(),
        "servers": SERVERS,
        "sets": [build_set(params, family) for params, family in SETS],
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
