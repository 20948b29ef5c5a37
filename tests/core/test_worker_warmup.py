"""Workers must rehydrate parent-recorded Miller lines, never re-record.

The parallel engine's warm-up fix: the parent records the batch's shared
line tables once, ships them in the job as an export blob, and each
worker installs the blob into its rebuilt group.  The regression these
tests pin is a worker silently paying the recording cost per process —
so the recorder entry points — and the fused loop that pairs an
argument without recorded lines — are rigged to explode and the batch
must still come back byte-identical.
"""

import multiprocessing

import pytest

from repro import parallel
from repro.core.timeserver import PassiveTimeServer, epoch_label, verify_archive
from repro.core.tre import TimedReleaseScheme
from repro.pairing import tate
from repro.pairing.tate import TatePairing

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required to inherit the rigged recorder",
)


def _boom(*args, **kwargs):
    raise AssertionError("worker re-recorded Miller lines")


def _rig(monkeypatch):
    monkeypatch.setattr(TatePairing, "precompute_lines", _boom)
    monkeypatch.setattr(TatePairing, "_record", _boom)
    monkeypatch.setattr(tate, "miller_loop_projective", _boom)


@pytest.fixture()
def batch(group, session_rng):
    server = PassiveTimeServer(group, rng=session_rng)
    scheme = TimedReleaseScheme(group)
    user = scheme.generate_user_keypair(server.public_key, session_rng)
    label = b"warmup-T"
    update = server.issue_update(label)
    ciphertexts = [
        scheme.encrypt(
            f"warmup message {i}".encode(), user.public, server.public_key,
            label, session_rng, verify_receiver_key=False,
        )
        for i in range(8)
    ]
    yield server, scheme, user, update, ciphertexts
    group.clear_precomputations()


def test_decrypt_workers_never_record(group, batch, monkeypatch):
    server, scheme, user, update, ciphertexts = batch
    expected = scheme.decrypt_batch(ciphertexts, user, update)
    # Pre-warm the parent's cache, then rig every recorder entry point
    # and the fused loop: the parent's export reads the warm cache and
    # forked workers (which inherit the rigged class) must install the
    # shipped blob — any recording attempt or uncached pairing, parent
    # or worker, now fails the batch.
    group.precompute_pairing(update.point)
    _rig(monkeypatch)
    out = scheme.decrypt_batch(
        ciphertexts, user, update, workers=2, chunk_size=2
    )
    assert out == expected


def test_verify_archive_workers_never_record(group, session_rng, monkeypatch):
    server = PassiveTimeServer(group, rng=session_rng)
    updates = [server.publish_update(epoch_label(e)) for e in range(8)]
    expected = verify_archive(group, server.public_key, updates)
    assert expected == []
    group.precompute_pairing(server.public_key.s_generator)
    group.precompute_pairing(server.public_key.generator)
    _rig(monkeypatch)
    try:
        out = verify_archive(
            group, server.public_key, updates, workers=2, chunk_size=2
        )
    finally:
        group.clear_precomputations()
    assert out == expected


def test_shared_tables_install_is_idempotent_per_worker(group):
    """Two chunks through one worker install the blob exactly once.

    Exercised in-process via the sequential fallback: the first call
    installs into the rebuilt worker group and marks the digest; the
    second must hit the marker (the rigged recorder would catch a
    re-record, and a re-install is merely wasteful but the marker set
    proves it is skipped).
    """
    blob = group.export_pairing_lines([group.generator])
    spec = parallel._group_spec(group)
    parallel._WORKER_GROUPS.pop(spec, None)
    before = len(parallel._WORKER_TABLE_KEYS)
    for _ in range(2):
        status, value = parallel._execute_chunk(
            ("selftest.echo", spec, blob, b"S", [b"x"])
        )
        assert status == "ok" and value == [b"Sx"]
    assert len(parallel._WORKER_TABLE_KEYS) == before + 1
    parallel._WORKER_GROUPS.pop(spec, None)


def test_auto_workers_warmup_parameter():
    """Shipping tables lowers the modeled warmup, so marginal batch
    sizes flip from sequential to parallel."""
    cold = parallel.WORKER_WARMUP_ITEM_COST
    warm = parallel.WORKER_WARMUP_WITH_TABLES_COST
    assert warm < cold
    flipped = [
        n for n in range(2, 64)
        if parallel.auto_workers(n, cpus=4, warmup=warm)
        > parallel.auto_workers(n, cpus=4, warmup=cold)
    ]
    assert flipped, "warm warmup never changed the auto decision"
    # And the default is the cold model.
    for n in (2, 8, 32):
        assert parallel.auto_workers(n, cpus=4) == parallel.auto_workers(
            n, cpus=4, warmup=cold
        )


def test_group_spec_roundtrips_backend(group):
    spec = parallel._group_spec(group)
    assert spec[-1] == group.backend_name
    rebuilt = parallel._group_from_spec(spec)
    try:
        assert rebuilt.backend_name == group.backend_name
        assert rebuilt == group
    finally:
        parallel._WORKER_GROUPS.pop(spec, None)
