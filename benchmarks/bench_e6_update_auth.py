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
from repro.core.bls import BLSSignatureScheme
from repro.core.timeserver import TimeBoundKeyUpdate

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


def test_e6_batch_verify_backlog(benchmark, bench_group, bench_server, bench_rng):
    """E6b: a receiver catching up on an archive of n updates verifies
    them all with 2 pairings (small-exponent batch BLS) instead of 2n."""
    from repro.core.timeserver import batch_verify_updates

    updates = [
        bench_server.publish_update(f"backlog-{i}".encode()) for i in range(16)
    ]
    result = benchmark.pedantic(
        batch_verify_updates,
        args=(bench_group, bench_server.public_key, updates, bench_rng),
        rounds=3,
        iterations=1,
    )
    assert result

    with bench_group.counters.measure() as batched:
        batch_verify_updates(
            bench_group, bench_server.public_key, updates, bench_rng
        )
    with bench_group.counters.measure() as individual:
        for update in updates:
            assert update.verify(bench_group, bench_server.public_key)
    emit(format_table(
        ("strategy", "pairings", "scalar mults"),
        [("one-by-one (16 updates)", individual.get("pairing", 0),
          individual.get("scalar_mult", 0)),
         ("batched (16 updates)", batched.get("pairing", 0),
          batched.get("scalar_mult", 0))],
        title="E6b: archive catch-up verification — batch BLS",
    ))
