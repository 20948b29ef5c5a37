"""E6 — self-authenticated updates versus sign-then-publish.

Paper claim (§5.3.1): the update ``s·H1(T)`` *is* a BLS short signature
on ``T``, so "no additional overhead of a server signature is needed"
and no secure channel either.  The strawman alternative publishes a
random nonce-style update plus a detached signature — doubling the
broadcast payload and adding a signing step.

Rows: broadcast bytes and verify cost for (a) the paper's
self-authenticating update and (b) update + detached BLS signature.
"""

from benchmarks.conftest import emit
from repro.analysis import format_table
from repro.analysis.costmodel import archive_verify_cost
from repro.core.bls import BLSSignatureScheme
from repro.core.timeserver import TimeBoundKeyUpdate, verify_archive

LABEL = b"2030-01-01T00:00:00Z"


def test_e6_issue_update(benchmark, bench_group, bench_server):
    counter = iter(range(10**9))
    benchmark(
        lambda: bench_server.issue_update(f"t-{next(counter)}".encode())
    )


def test_e6_verify_update(benchmark, bench_group, bench_server):
    # Decoded afresh per call, as a receiver gets it: an update remembers
    # the key it was accepted under, so re-verifying one object would
    # time that record instead of the check.
    blob = bench_server.publish_update(LABEL).to_bytes(bench_group)
    result = benchmark(
        lambda: TimeBoundKeyUpdate.from_bytes(bench_group, blob).verify(
            bench_group, bench_server.public_key
        )
    )
    assert result


def test_e6_claim_table(benchmark, bench_group, bench_server):
    group = bench_group
    update = TimeBoundKeyUpdate.from_bytes(
        group, bench_server.publish_update(LABEL).to_bytes(group)
    )
    with group.counters.measure() as verify_ops:
        assert update.verify(group, bench_server.public_key)
    self_auth_bytes = len(update.to_bytes(group))

    # Strawman: the broadcast carries the update point AND a detached
    # signature over it (another G1 point), and verification checks the
    # signature first, then still needs the update itself.
    bls = BLSSignatureScheme(group, hash_tag="repro:E6:detached")
    detached_sig = bls.sign(bench_server._keypair, update.to_bytes(group))
    strawman_bytes = self_auth_bytes + group.point_bytes
    with group.counters.measure() as strawman_ops:
        assert bls.verify(
            bench_server.public_key, update.to_bytes(group), detached_sig
        )
        # The update point itself is then trusted via the signature; a
        # careful receiver still checks its group membership.
        assert group.in_group(update.point)

    rows = [
        ("self-authenticated (paper)", self_auth_bytes,
         verify_ops.get("pairing", 0)),
        ("update + detached signature", strawman_bytes,
         strawman_ops.get("pairing", 0)),
    ]
    emit(format_table(
        ("design", "broadcast bytes", "verify pairings"),
        rows,
        title="E6: update authentication — claim: zero extra signature "
              "overhead (the update IS the signature)",
    ))
    assert self_auth_bytes < strawman_bytes
    benchmark(lambda: None)


def test_e6_forged_update_rejected(benchmark, bench_group, bench_server, bench_rng):
    forged = TimeBoundKeyUpdate(LABEL, bench_group.random_point(bench_rng))
    result = benchmark(forged.verify, bench_group, bench_server.public_key)
    assert not result


def test_e6_batch_verify_backlog(benchmark, bench_group, bench_server):
    """E6b: a receiver catching up on an archive of n updates checks them
    all as one batched equation (2 pairings) instead of 2n, and still
    learns exactly which ones fail (``verify_archive``)."""
    group = bench_group
    public = bench_server.public_key
    blobs = [
        bench_server.publish_update(f"backlog-{i}".encode()).to_bytes(group)
        for i in range(16)
    ]

    def decoded():
        # Decoded afresh, as in test_e6_verify_update.
        return [TimeBoundKeyUpdate.from_bytes(group, blob) for blob in blobs]

    result = benchmark.pedantic(
        lambda: verify_archive(group, public, decoded()),
        rounds=3,
        iterations=1,
    )
    assert result == []

    with group.counters.measure() as batched:
        assert verify_archive(group, public, decoded()) == []
    with group.counters.measure() as individual:
        for update in decoded():
            assert update.verify(group, public)
    forged = decoded()
    forged[5] = TimeBoundKeyUpdate(forged[5].time_label, forged[6].point)
    with group.counters.measure() as fallback:
        assert verify_archive(group, public, forged) == [forged[5].time_label]
    budget = archive_verify_cost(len(blobs)).as_dict()
    assert {name: batched.get(name, 0) for name in budget} == budget
    emit(format_table(
        ("strategy", "pairings", "final exps", "multi-scalar sums"),
        [(label, ops.get("pairing", 0), ops.get("final_exp", 0),
          ops.get("multi_scalar_mult", 0))
         for label, ops in (
             ("one-by-one (16 updates)", individual),
             ("batched (16 updates)", batched),
             ("batched, 1 forged (16 updates)", fallback),
         )],
        title="E6b: archive catch-up verification — one batched equation, "
              "exact per-update fallback",
    ))
