"""E5 — multi-server TRE cost versus the number of time servers.

Paper claim (§5.3.5): splitting trust over N servers costs one extra
``rG_i`` header point per server and one extra pairing per server at
decryption — linear in N, with N=1 degenerating to plain TRE.
"""

from benchmarks.conftest import KEY_MESSAGE, RELEASE, emit
from repro.analysis import format_table
from repro.core.multiserver import (
    MultiServerTimedReleaseScheme,
    MultiServerUserKeyPair,
)
from repro.core.timeserver import PassiveTimeServer
from repro.crypto.rng import seeded_rng

SERVER_COUNTS = (1, 2, 3, 5, 8)


def _setup(group, n):
    rng = seeded_rng(f"e5-{n}")
    servers = [PassiveTimeServer(group, rng=rng) for _ in range(n)]
    scheme = MultiServerTimedReleaseScheme(group, [s.public_key for s in servers])
    user = MultiServerUserKeyPair.generate(
        group, [s.public_key for s in servers], rng
    )
    updates = [s.publish_update(RELEASE) for s in servers]
    return rng, servers, scheme, user, updates


def test_e5_claim_table(bench_group):
    group = bench_group
    rows = []
    sizes = {}
    pairings = {}
    for n in SERVER_COUNTS:
        rng, _, scheme, user, updates = _setup(group, n)
        ct = scheme.encrypt(
            KEY_MESSAGE, user.public, RELEASE, rng, verify_receiver_key=False
        )
        with group.counters.measure() as dec_ops:
            assert scheme.decrypt(
                ct, user.private, updates, verify_updates=False
            ) == KEY_MESSAGE
        sizes[n] = ct.size_bytes(group)
        pairings[n] = dec_ops.get("pairing", 0)
        rows.append((
            n, len(ct.u_points), sizes[n], pairings[n],
            dec_ops.get("gt_exp", 0),
        ))
    emit(format_table(
        ("servers N", "header points", "ct bytes", "dec pairings", "dec GT-exps"),
        rows,
        title="E5: multi-server TRE cost vs N — claim: linear headers & "
              "pairings, N=1 == plain TRE",
    ))

    # Linearity assertions.
    assert pairings == {n: n for n in SERVER_COUNTS}
    step = sizes[2] - sizes[1]
    assert sizes[8] - sizes[5] == 3 * step
