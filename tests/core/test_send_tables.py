"""The server generator's fixed-base table, built on its second use.

Every ``U = r·G`` a sender makes, and FO's re-encryption check, goes
through ``PairingGroup._mul_on_second_use`` with the server key's ``G``:
the first send builds no table, the second builds exactly ``G``'s and
multiplies on it, and every later one counts a ``fixed_base_mult``.
Nothing else gets a table that way: not a receiver's ``asG``, not a
decoded ``U``, not an update's ``I_T``.  ``clear_precomputations``
forgets the record, so the next send is cold again.
"""

from __future__ import annotations

import ast
import pathlib
import random

import pytest

from repro.core.broadcast import BroadcastCiphertext, BroadcastTimedReleaseScheme
from repro.core.fujisaki_okamoto import FOTRECiphertext, FOTimedReleaseScheme
from repro.core.idtre import IDTRECiphertext, IdentityTimedReleaseScheme
from repro.core.keys import ServerKeyPair, ServerPublicKey, UserKeyPair, UserPublicKey
from repro.core.timeserver import PassiveTimeServer, TimeBoundKeyUpdate
from repro.core.tre import TRECiphertext, TimedReleaseScheme
from repro.math.backend import available_backends
from repro.pairing.api import PairingGroup

CASES = [
    (family, backend)
    for family in ("A", "B")
    for backend in available_backends()
]
MESSAGE = b"tabled on the second send"


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def group(request):
    """A fresh group per test: the second-use record starts empty."""
    family, backend = request.param
    return PairingGroup("toy64", family=family, backend=backend)


@pytest.fixture
def parties(group):
    rng = random.Random(0x7AB1E)
    server = PassiveTimeServer(group, rng=rng)
    users = [UserKeyPair.generate(group, server.public_key, rng) for _ in range(3)]
    assert not group._fixed_base
    return server, users


def _tabled_from_second_use(group, run, generator):
    """``run(i)`` three times: no table, then exactly ``generator``'s,
    then one fixed-base multiplication per call."""
    run(0)
    assert not group._fixed_base
    run(1)
    assert set(group._fixed_base) == {generator}
    with group.counters.measure() as ops:
        run(2)
    assert ops["fixed_base_mult"] == 1
    assert set(group._fixed_base) == {generator}


def _forgotten_after_clear(group, run, generator):
    group.clear_precomputations()
    run(3)
    assert not group._fixed_base
    run(4)
    assert set(group._fixed_base) == {generator}


def test_tre_send(group, parties):
    server, users = parties
    user = users[0]
    scheme = TimedReleaseScheme(group)
    rng = random.Random(1)
    sent = []

    def send(i):
        label = b"T%d" % i
        ciphertext = scheme.encrypt(MESSAGE, user.public, server.public_key, label, rng)
        sent.append((ciphertext.to_bytes(group), server.publish_update(label)))

    generator = server.public_key.generator
    _tabled_from_second_use(group, send, generator)
    # The receiver decodes U and multiplies I_T by a: neither is tabled.
    for blob, update in sent:
        decoded = TRECiphertext.from_bytes(group, blob)
        wire = TimeBoundKeyUpdate.from_bytes(group, update.to_bytes(group))
        for _ in range(3):
            assert scheme.decrypt(decoded, user, wire, server.public_key) == MESSAGE
            assert scheme.decrypt_batch([decoded], user, wire) == [MESSAGE]
    assert set(group._fixed_base) == {generator}
    # A warmed sender tables G, never asG.
    scheme.precompute_sender(user.public, server.public_key, time_labels=[b"T9"])
    assert set(group._fixed_base) == {generator}
    _forgotten_after_clear(group, send, generator)


def test_tabled_sends_build_once(group, parties, monkeypatch):
    """Once ``G``'s table exists, a send neither probes nor rebuilds it:
    N sends call ``precompute`` once, and their bytes equal the same
    sends made cold, each on a group of its own."""
    server, users = parties
    user_bytes = users[0].public.to_bytes(group)
    server_bytes = server.public_key.to_bytes(group)
    builds = []
    precompute = PairingGroup.precompute

    def spy(self, point):
        builds.append(point)
        return precompute(self, point)

    monkeypatch.setattr(PairingGroup, "precompute", spy)

    def sends(fresh_group):
        rng = random.Random(5)
        blobs = []
        for i in range(6):
            on = fresh_group()
            blobs.append(TimedReleaseScheme(on).encrypt(
                MESSAGE,
                UserPublicKey.from_bytes(on, user_bytes),
                ServerPublicKey.from_bytes(on, server_bytes),
                b"T%d" % i,
                rng,
            ).to_bytes(on))
        return blobs

    cold = sends(lambda: PairingGroup("toy64", family=group.family, backend=group.backend_name))
    assert builds == []
    tabled = sends(lambda: group)
    assert builds == [server.public_key.generator]
    assert tabled == cold


def test_broadcast_send(group, parties):
    server, users = parties
    scheme = BroadcastTimedReleaseScheme(group)
    receivers = [user.public for user in users]
    rng = random.Random(2)
    sent = []

    def send(i):
        # Alternately below and at the shared-H1 threshold: r·H1(T) is
        # never tabled either.
        label = b"T%d" % i
        chosen = receivers[: 2 + i % 2]
        ciphertext = scheme.encrypt_broadcast(
            MESSAGE, chosen, server.public_key, label, rng
        )
        sent.append((ciphertext.to_bytes(group), server.publish_update(label)))

    generator = server.public_key.generator
    _tabled_from_second_use(group, send, generator)
    for blob, update in sent:
        decoded = BroadcastCiphertext.from_bytes(group, blob)
        for _ in range(3):
            assert scheme.decrypt_broadcast(decoded, 0, users[0], update) == MESSAGE
    assert set(group._fixed_base) == {generator}
    _forgotten_after_clear(group, send, generator)


def test_idtre_send(group):
    rng = random.Random(3)
    master = ServerKeyPair.generate(group, rng)
    server = PassiveTimeServer(group, keypair=master)
    scheme = IdentityTimedReleaseScheme(group)
    sent = []

    def send(i):
        label = b"T%d" % i
        ciphertext = scheme.encrypt(MESSAGE, b"alice", master.public, label, rng)
        sent.append((ciphertext.to_bytes(group), server.publish_update(label)))

    generator = master.public.generator
    _tabled_from_second_use(group, send, generator)
    user_key = scheme.extract_user_key(master, b"alice")
    for blob, update in sent:
        decoded = IDTRECiphertext.from_bytes(group, blob)
        for _ in range(3):
            assert scheme.decrypt(decoded, user_key, update) == MESSAGE
    # sG is the sender key's fixed argument, paired, never multiplied.
    assert set(group._fixed_base) == {generator}
    _forgotten_after_clear(group, send, generator)


def test_fo_decrypt(group, parties):
    """The re-encryption check recomputes ``r·G`` on the receiver."""
    server, users = parties
    user = users[0]
    scheme = FOTimedReleaseScheme(group)
    rng = random.Random(4)
    labels = [b"T%d" % i for i in range(5)]
    blobs = [
        scheme.encrypt(MESSAGE, user.public, server.public_key, label, rng).to_bytes(group)
        for label in labels
    ]
    updates = [server.publish_update(label) for label in labels]
    group.clear_precomputations()

    def receive(i):
        decoded = FOTRECiphertext.from_bytes(group, blobs[i])
        assert scheme.decrypt(decoded, user, updates[i], server.public_key) == MESSAGE

    generator = server.public_key.generator
    _tabled_from_second_use(group, receive, generator)
    _forgotten_after_clear(group, receive, generator)


# ----------------------------------------------------------------------
# One helper for every r·G on a send path.
# ----------------------------------------------------------------------

CORE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "core"


def _core_calls(predicate):
    """``Class.function`` names in ``repro.core`` with a matching call."""
    found = set()
    for path in sorted(CORE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, (ast.Module, ast.ClassDef)):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and predicate(inner)
                    for inner in ast.walk(node)
                ):
                    found.add(f"{getattr(cls, 'name', path.stem)}.{node.name}")
    return found


def test_send_paths_multiply_g_through_the_helper():
    assert _core_calls(
        lambda call: call.func.attr == "_mul_on_second_use"
    ) == {
        "TimedReleaseScheme.encapsulate",
        "BroadcastTimedReleaseScheme.encrypt_broadcast",
        "IdentityTimedReleaseScheme.encrypt",
        "MultiServerTimedReleaseScheme.encrypt",
        "ResilientTRE.encrypt",
        "PolicyLockScheme.encrypt_all",
        "FOTimedReleaseScheme.encrypt",
        "FOTimedReleaseScheme.decrypt",
    }


def test_other_generator_multiples_are_key_material():
    """What still multiplies a generator directly makes keys: server and
    user keys, threshold shares and the resilient scheme's node keys."""
    assert _core_calls(
        lambda call: call.func.attr == "mul"
        and bool(call.args)
        and isinstance(call.args[0], ast.Attribute)
        and call.args[0].attr == "generator"
    ) == {
        "ServerKeyPair.generate",
        "UserKeyPair.from_secret",
        "MultiServerUserKeyPair.generate",
        "ThresholdServerMember.__init__",
        "ThresholdTimeServer.setup",
        "ResilientTimeServer._make_node_key",
        "ResilientTRE.derive_leaf_key",
    }
