"""E14 — missing-update resilience: the §6 future-work construction, priced.

The hierarchical (GS-HIBE over the time tree) scheme lets one broadcast
unlock every elapsed epoch.  The costs the paper anticipated trading:

* update size grows from 1 point to O(d²/2) points worst case,
* decryption grows from 1 pairing to up to d+1 pairings,

where d = log2(number of epochs).  Rows: update points/bytes and
decryption pairings versus tree depth, against plain TRE's constants —
plus the catch-up comparison (epochs a receiver can recover from ONE
message after missing m broadcasts).
"""

from benchmarks.conftest import KEY_MESSAGE, emit
from repro.analysis import format_table
from repro.core.resilient import ResilientTRE, ResilientTimeServer
from repro.core.timeserver import PassiveTimeServer, epoch_label
from repro.core.tre import TimedReleaseScheme
from repro.core.keys import UserKeyPair
from repro.crypto.rng import seeded_rng

DEPTHS = (4, 8, 12, 16)


def _world(group, depth):
    rng = seeded_rng(f"e14-{depth}")
    server = ResilientTimeServer(group, depth, rng)
    scheme = ResilientTRE(group, server.tree, server.public_key)
    user = scheme.generate_user_keypair(server.public_key, rng)
    return rng, server, scheme, user


def test_e14_publish_update(benchmark, toy_group):
    rng, server, _, _ = _world(toy_group, 8)
    counter = iter(range(255))
    benchmark.pedantic(
        lambda: server.publish_update(next(counter)), rounds=3, iterations=1
    )


def test_e14_decrypt(benchmark, toy_group):
    rng, server, scheme, user = _world(toy_group, 8)
    ct = scheme.encrypt(KEY_MESSAGE, user.public, 100, rng,
                        verify_receiver_key=False)
    update = server.publish_update(200)
    result = benchmark.pedantic(
        scheme.decrypt, args=(ct, user, update, rng), rounds=3, iterations=1
    )
    assert result == KEY_MESSAGE


def test_e14_plain_tre_reference(benchmark, toy_group):
    rng = seeded_rng("e14-ref")
    server = PassiveTimeServer(toy_group, rng=rng)
    scheme = TimedReleaseScheme(toy_group)
    user = UserKeyPair.generate(toy_group, server.public_key, rng)
    ct = scheme.encrypt(KEY_MESSAGE, user.public, server.public_key, b"t", rng,
                        verify_receiver_key=False)
    update = server.publish_update(b"t")
    benchmark.pedantic(
        scheme.decrypt, args=(ct, user, update), rounds=3, iterations=1
    )


def test_e14_claim_table(benchmark, toy_group):
    group = toy_group
    rows = []
    for depth in DEPTHS:
        rng, server, scheme, user = _world(group, depth)
        worst_epoch = (1 << depth) - 1
        update = server.publish_update(worst_epoch)
        release_epoch = worst_epoch // 2
        ct = scheme.encrypt(
            KEY_MESSAGE, user.public, release_epoch, rng,
            verify_receiver_key=False,
        )
        with group.counters.measure() as dec_ops:
            assert scheme.decrypt(ct, user, update, rng) == KEY_MESSAGE
        rows.append((
            depth,
            1 << depth,
            update.point_count(),
            update.size_bytes(group),
            dec_ops.get("pairing", 0),
        ))
    # Plain TRE's update for one epoch, under the canonical epoch label.
    plain = PassiveTimeServer(group, rng=seeded_rng("e14-ref"))
    plain_update = plain.publish_update(epoch_label((1 << DEPTHS[-1]) - 1))
    rows.append(("plain TRE", "1 label", 1, plain_update.size_bytes(group), 1))
    emit(format_table(
        ("tree depth d", "epochs", "update points (worst)", "update bytes",
         "dec pairings"),
        rows,
        title="E14: missing-update resilience (§6) — one broadcast unlocks "
              "all elapsed epochs; cost grows with log(epochs)",
    ))

    # Catch-up property: after missing m broadcasts, ONE update recovers
    # everything (vs m archive fetches for plain TRE).
    rng, server, scheme, user = _world(group, 8)
    missed = [scheme.encrypt(KEY_MESSAGE, user.public, e, rng,
                             verify_receiver_key=False)
              for e in range(40, 90, 10)]
    update = server.publish_update(200)
    for ct in missed:
        assert scheme.decrypt(ct, user, update, rng) == KEY_MESSAGE
    emit(format_table(
        ("design", "messages to catch up after missing m updates"),
        [("plain TRE (archive lookups)", "m"),
         ("hierarchical (this module)", "1")],
        title="E14b: catch-up traffic after an offline period",
    ))
    benchmark(lambda: None)
