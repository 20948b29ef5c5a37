"""E2 — server work per epoch versus number of receivers.

Paper claims (§1, §5.3.1, §2.2): the passive server broadcasts a
*single* update per time instant "no matter how many users there are";
Mont et al.'s vault must extract and individually deliver one key per
registered receiver per epoch; Rivest's symmetric server must encrypt
every message itself, so it serves and sees every sender; Rivest's
public-key variant must pre-publish a directory that grows with the
release-time horizon.

Rows: per-epoch server messages and bytes for n = 1, 10, 100, 1000
receivers; the symmetric Rivest server's interactive encryptions and
distinct senders seen when n senders each send once for one epoch;
the Rivest directory size for the matching horizon.  Expected shape:
TRE flat at 1 message; Mont linear in n; symmetric Rivest n
encryptions and n senders seen; Rivest directory linear in horizon.
"""

from benchmarks.conftest import emit
from repro.analysis import format_table
from repro.baselines.mont_vault import MontTimeVault
from repro.baselines.rivest_server import (
    RivestKeyReleaseServer,
    RivestPublicKeyServer,
)
from repro.core.timeserver import PassiveTimeServer
from repro.crypto.rng import seeded_rng

RECEIVER_COUNTS = (1, 10, 100, 1000)


def _tre_epoch_cost(group, label):
    server = PassiveTimeServer(group, rng=seeded_rng("e2-tre"))
    update = server.publish_update(label)
    return 1, len(update.to_bytes(group))


def _mont_epoch_cost(group, receivers, label):
    vault = MontTimeVault(group, seeded_rng("e2-mont"))
    for index in range(receivers):
        vault.register_receiver(f"user-{index}".encode())
    vault.start_epoch(label)
    return vault.keys_delivered, vault.bytes_delivered


def _rivest_interactive_cost(senders):
    """Each sender hands its message for epoch 0 to the symmetric
    server, which encrypts it; then epoch 0's key is published and
    opens them."""
    server = RivestKeyReleaseServer(b"e2-rivest")
    sealed = [
        server.encrypt_for_sender(f"sender-{index}".encode(), b"bid", 0)
        for index in range(senders)
    ]
    key = server.publish_epoch_key(0)
    assert RivestKeyReleaseServer.decrypt(sealed[-1], key, 0) == b"bid"
    return server.encryptions_served, len(server.knowledge.senders)


def test_e2_archive_catchup(toy_group):
    """A receiver coming back online verifies the missed update archive.

    The passive server publishes one update per instant regardless of
    audience, so an absent receiver catches up from the public archive:
    per-update multi-pairing ratio checks (one final exponentiation
    each) on the shared ``(G, sG)`` Miller lines.
    """
    from benchmarks.trajectory import time_median
    from repro.core.timeserver import TimeBoundKeyUpdate, verify_archive

    group = toy_group
    server = PassiveTimeServer(group, rng=seeded_rng("e2-catchup"))
    blobs = [
        server.publish_update(f"catchup-{i:02d}".encode()).to_bytes(group)
        for i in range(64)
    ]

    def catch_up():
        # Decoded afresh each round: an update remembers the key it was
        # accepted under, so re-checking one object would cost nothing.
        updates = [TimeBoundKeyUpdate.from_bytes(group, b) for b in blobs]
        return verify_archive(group, server.public_key, updates)

    assert catch_up() == []

    seq_ms = time_median(catch_up, rounds=3) * 1000
    emit(format_table(
        ("archive", "sequential ms", "ms/update"),
        [(
            f"{len(blobs)} updates", f"{seq_ms:.1f}",
            f"{seq_ms / len(blobs):.2f}",
        )],
        title="E2b: receiver catch-up over a missed-update archive — "
              "per-update multi-pair checks",
    ))


def test_e2_claim_table(toy_group):
    group = toy_group
    rows = []
    for receivers in RECEIVER_COUNTS:
        tre_msgs, tre_bytes = _tre_epoch_cost(group, b"T")
        mont_msgs, mont_bytes = _mont_epoch_cost(group, receivers, b"T")
        served, senders_seen = _rivest_interactive_cost(receivers)
        rivest = RivestPublicKeyServer(
            group, horizon=receivers, rng=seeded_rng("e2-rivest")
        )
        rows.append((
            receivers,
            tre_msgs,
            tre_bytes,
            mont_msgs,
            mont_bytes,
            served,
            senders_seen,
            rivest.published_directory_bytes(),
        ))
    emit(format_table(
        ("receivers", "TRE msgs", "TRE bytes", "Mont msgs", "Mont bytes",
         "Rivest sym. encryptions", "Rivest sym. senders seen",
         "Rivest dir bytes (horizon=n)"),
        rows,
        title="E2: per-epoch server cost vs population — claim: TRE O(1), "
              "Mont O(n), Rivest symmetric O(n) and sees every sender, "
              "Rivest directory O(horizon)",
    ))

    # Assert the scalability shape.
    tre_costs = {n: _tre_epoch_cost(group, b"T")[0] for n in RECEIVER_COUNTS}
    assert all(cost == 1 for cost in tre_costs.values())
    assert _mont_epoch_cost(group, 100, b"T")[0] == 100
    # §2.2: the symmetric server does one encryption per sender and
    # learns who every sender is.
    for receivers, *_, served, senders_seen, _ in rows:
        assert served == senders_seen == receivers
    small = RivestPublicKeyServer(group, 10, seeded_rng("x"))
    large = RivestPublicKeyServer(group, 1000, seeded_rng("x"))
    assert large.published_directory_bytes() == 100 * small.published_directory_bytes()
