"""Smoke benchmark for the precomputation and batching layers.

Runs the direct-versus-fast-path comparisons the trajectory tracks and
merges the results into ``BENCH_pairing.json``:

* fixed-base table vs. generic ``scalar_mult``;
* cached Miller lines vs. the full pairing;
* windowed GT fixed-base table vs. plain unitary exponentiation;
* warm-path TRE encryption (cached ``ê(asG, H1(T))`` + GT table) vs.
  the cache-free cold path, at x1 and x{batch};
* one N-recipient broadcast (shared ``U``, shared DEM payload) vs.
  N per-recipient warm encrypts;
* ``decrypt_batch`` over N same-label ciphertexts vs. N independent
  ``decrypt`` calls;
* the multi-pairing verify path (one combined Miller loop, ONE final
  exponentiation) vs. two sequential pairings, plus the same check
  with no cached lines;
* archive catch-up throughput: ``verify_archive`` over an N-epoch
  backlog (one batched pairing equation) vs. N naive per-update
  verifications — the cost a resilient client pays after an outage.

Usage::

    PYTHONPATH=src python -m benchmarks.smoke                 # toy64
    PYTHONPATH=src python -m benchmarks.smoke --params ss512  # acceptance run
    PYTHONPATH=src python -m benchmarks.smoke --rows 'gt_exp:*:fixed_base'

``--rows`` re-records only the matching rows: a comparison runs when
its op matches a glob's op field, all its variants are measured
alternately as usual, and only the matching rows are written, with
``speedup_vs_direct`` derived from this run's own ``direct`` median.

Direct paths are timed through the cache-free primitives (``curve
.scalar_mult`` / ``tate.pair`` / ``unitary_exp``) so prior
precomputation cannot leak into the baseline, and every comparison
alternates its variants round by round
(``BenchTrajectory.measure_interleaved``), so host-speed drift lands on
each variant alike.  ``benchmarks.trajectory --check`` reuses :func:`run_all`
to re-measure these entries and diff them against the committed file.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from benchmarks.trajectory import BenchTrajectory, time_median
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.timeserver import (
    PassiveTimeServer,
    TimeBoundKeyUpdate,
    epoch_label,
    verify_archive,
)
from repro.core.tre import TimedReleaseScheme
from repro.crypto.rng import seeded_rng
from repro.math.quadratic import unitary_exp
from repro.pairing.api import PairingGroup

RELEASE = b"2030-01-01T00:00:00Z"


def bench_scalar_mult(group, rng, trajectory, rounds):
    curve = group.ssc.curve
    point = group.random_point(rng)
    scalars = [group.random_scalar(rng) for _ in range(8)]

    def direct():
        for k in scalars:
            curve.scalar_mult(point, k)

    setup_s = time_median(lambda: group.precompute(point), rounds=1)
    table = group.precompute(point)

    def fixed_base():
        for k in scalars:
            table.mult(k)

    medians = trajectory.measure_interleaved(
        group, "scalar_mult", {"direct": direct, "fixed_base": fixed_base},
        rounds, batch=len(scalars),
        variant_extra={"fixed_base": {
            "setup_ms": round(setup_s * 1000, 4),
            "table_points": table.table_points,
        }},
    )
    return medians["direct"] / medians["fixed_base"]


def bench_pairing(group, rng, trajectory, rounds):
    p = group.random_point(rng)
    others = [group.random_point(rng) for _ in range(4)]

    def direct():
        for q in others:
            group.tate.pair(p, q)

    setup_s = time_median(lambda: group.tate.precompute_lines(p), rounds=1)
    lines = group.tate.precompute_lines(p)

    def precomputed():
        for q in others:
            group.tate.pair_with_precomp(lines, q)

    medians = trajectory.measure_interleaved(
        group, "pairing", {"direct": direct, "precomputed": precomputed},
        rounds, batch=len(others),
        variant_extra={"precomputed": {
            "setup_ms": round(setup_s * 1000, 4), "lines": len(lines),
        }},
    )
    return medians["direct"] / medians["precomputed"]


def bench_gt_exp(group, rng, trajectory, rounds):
    """Windowed GT fixed-base table vs the plain unitary-exp ladder.

    The direct path runs the ladder itself
    (:func:`~repro.math.quadratic.unitary_exp`, what ``gt ** k`` runs
    without a table), so the table built by ``precompute_gt`` for the
    fast path cannot leak into it.
    """
    gt = group.pair(group.random_point(rng), group.random_point(rng))
    scalars = [group.random_scalar(rng) for _ in range(8)]

    def direct():
        for k in scalars:
            unitary_exp(gt.value, k)

    setup_s = time_median(lambda: group.precompute_gt(gt), rounds=1)
    table = group.precompute_gt(gt)

    def fixed_base():
        for k in scalars:
            gt ** k

    medians = trajectory.measure_interleaved(
        group, "gt_exp", {"direct": direct, "fixed_base": fixed_base},
        rounds, batch=len(scalars),
        variant_extra={"fixed_base": {
            "setup_ms": round(setup_s * 1000, 4),
            "table_elements": table.table_elements,
        }},
    )
    group.clear_precomputations()
    return medians["direct"] / medians["fixed_base"]


def bench_encrypt(group, rng, trajectory, rounds, batch):
    """Sender GT fast path: cold encrypt vs warm (cached ê(asG, H1(T))).

    Records ``encrypt_x1`` and ``encrypt_x{batch}``.  The direct
    variant clears every cache inside the timed function; the warm
    variant runs after ``precompute_sender(..., time_labels=[T])`` and
    produces byte-identical ciphertexts (asserted with a replayed rng).
    The rounds alternate between the two variants, re-warming the
    caches untimed before each warm round, so drift in the host's speed
    lands on both alike.
    """
    scheme = TimedReleaseScheme(group)
    server = PassiveTimeServer(group, rng=rng)
    user = UserKeyPair.generate(group, server.public_key, rng)
    message = b"gt fast path payload" * 2

    def encrypt_n(n):
        for i in range(n):
            scheme.encrypt(
                message, user.public, server.public_key, RELEASE, rng,
                verify_receiver_key=False,
            )

    def cold_n(n):
        group.clear_precomputations()
        encrypt_n(n)

    def warm():
        scheme.precompute_sender(
            user.public, server.public_key, time_labels=[RELEASE]
        )

    ratios = {}
    for n in (1, batch):
        op = f"encrypt_x{n}"
        with group.counters.measure() as cold_counts:
            cold_n(n)
        warm()
        with group.counters.measure() as warm_counts:
            encrypt_n(n)
        samples = {"direct": [], "gt_table": []}
        for _ in range(rounds):
            samples["direct"].append(time_median(lambda: cold_n(n), rounds=1))
            warm()
            samples["gt_table"].append(
                time_median(lambda: encrypt_n(n), rounds=1)
            )
        medians = {}
        for variant, counts in (
            ("direct", cold_counts), ("gt_table", warm_counts)
        ):
            medians[variant] = statistics.median(samples[variant])
            trajectory.record(
                op, group.params.name, variant, medians[variant], rounds,
                op_counts=counts, backend=group.backend_name, batch=n,
            )
        ratios[n] = medians["direct"] / medians["gt_table"]
    # Byte-identity spot check: same seeded rng, cold vs warm.
    check = seeded_rng("smoke:encrypt-identity")
    warm_ct = scheme.encrypt(
        message, user.public, server.public_key, RELEASE, check,
        verify_receiver_key=False,
    )
    group.clear_precomputations()
    check = seeded_rng("smoke:encrypt-identity")
    cold_ct = scheme.encrypt(
        message, user.public, server.public_key, RELEASE, check,
        verify_receiver_key=False,
    )
    assert warm_ct.to_bytes(group) == cold_ct.to_bytes(group)
    group.clear_precomputations()
    return ratios


def bench_encrypt_broadcast(group, rng, trajectory, rounds, batch):
    """One broadcast to N recipients vs N per-recipient warm encrypts.

    Both variants run with warm GT caches, so the entry isolates the
    *structural* broadcast saving — one shared ``U = rG`` and one DEM
    payload instead of N of each — not the (already measured) GT fast
    path itself.
    """
    from repro.core.broadcast import BroadcastTimedReleaseScheme

    server = PassiveTimeServer(group, rng=rng)
    users = [
        UserKeyPair.generate(group, server.public_key, rng)
        for _ in range(batch)
    ]
    receivers = [u.public for u in users]
    message = b"broadcast payload" * 4
    scheme = TimedReleaseScheme(group)
    broadcast = BroadcastTimedReleaseScheme(group)
    # One warm (receiver, T) per recipient serves both variants: the
    # pairings live on the group.
    for public in receivers:
        scheme.precompute_sender(
            public, server.public_key, time_labels=[RELEASE]
        )

    def per_recipient():
        for public in receivers:
            scheme.encrypt(
                message, public, server.public_key, RELEASE, rng,
                verify_receiver_key=False,
            )

    def broadcast_once():
        broadcast.encrypt_broadcast(
            message, receivers, server.public_key, RELEASE, rng,
            verify_receiver_keys=False,
        )

    medians = trajectory.measure_interleaved(
        group, f"broadcast_x{batch}",
        {"direct": per_recipient, "shared_u": broadcast_once},
        rounds, batch=batch,
    )
    group.clear_precomputations()
    return medians["direct"] / medians["shared_u"]


def bench_batch_decrypt(group, rng, trajectory, rounds, batch):
    scheme = TimedReleaseScheme(group)
    server = PassiveTimeServer(group, rng=rng)
    user = UserKeyPair.generate(group, server.public_key, rng)
    update = server.publish_update(RELEASE)
    cts = [
        scheme.encrypt(
            f"payload {i}".encode() * 4, user.public, server.public_key,
            RELEASE, rng, verify_receiver_key=False,
        )
        for i in range(batch)
    ]

    def individual():
        group.clear_precomputations()
        return [scheme.decrypt(ct, user, update) for ct in cts]

    def batched():
        group.clear_precomputations()
        return scheme.decrypt_batch(cts, user, update)

    assert individual() == batched()
    medians = trajectory.measure_interleaved(
        group, f"tre_decrypt_x{batch}",
        {"direct": individual, "batch_precomp": batched},
        rounds, batch=batch,
    )
    group.clear_precomputations()
    return medians["direct"] / medians["batch_precomp"]


def bench_multi_pair(group, rng, trajectory, rounds):
    """Verify path: ê(sG, H1(T)) == ê(G, I_T) as two pairings vs one
    multi-pairing ratio check (shared final exponentiation).

    ``direct`` and ``ratio_check`` evaluate the cached Miller lines of
    the fixed ``(G, sG)`` — exactly the archive catch-up configuration —
    so the difference isolates the saved final exponentiation plus the
    saved GT comparison.  ``verify_cold`` is the same ratio check under
    a second key whose lines are never cached, the path a client's
    first update check (``ResilientTimeClient._ingest``) or a sender's
    first receiver-key check (``ensure_well_formed``) per server key
    takes: one fused Miller loop over both pairs.
    """
    from repro.core.bls import BLSSignatureScheme

    keypair = ServerKeyPair.generate(group, rng)
    cold_keypair = ServerKeyPair.generate(group, rng)
    public, cold_public = keypair.public, cold_keypair.public
    bls = BLSSignatureScheme(group)
    messages = [f"mp-{i}".encode() for i in range(4)]
    signatures = [bls.sign(keypair, m) for m in messages]
    cold_signatures = [bls.sign(cold_keypair, m) for m in messages]
    hashes = [bls.hash_message(m) for m in messages]
    group.precompute_pairing(public.generator)
    group.precompute_pairing(public.s_generator)

    def sequential():
        for h_point, signature in zip(hashes, signatures):
            left = group.pair(public.s_generator, h_point)
            right = group.pair(public.generator, signature)
            assert left == right

    def ratio(key, sigs):
        def check():
            for h_point, signature in zip(hashes, sigs):
                assert group.pair_ratio_is_one(
                    ((key.s_generator, h_point),),
                    ((key.generator, signature),),
                )
        return check

    medians = trajectory.measure_interleaved(
        group, "multi_pair",
        {
            "direct": sequential,
            "ratio_check": ratio(public, signatures),
            "verify_cold": ratio(cold_public, cold_signatures),
        },
        rounds, batch=len(messages),
    )
    group.clear_precomputations()
    return medians["direct"] / medians["ratio_check"]


def bench_catchup(group, rng, trajectory, rounds, batch):
    """Archive catch-up: ``verify_archive`` vs naive per-update verify.

    This is the client-after-an-outage workload from ``repro.service``:
    a backlog of ``batch`` epoch updates must each pass
    ``ê(sG, H1(T)) == ê(G, I_T)`` before being trusted.  The direct
    path clears the caches and verifies update-by-update, so by the
    second-use rule its first check is fused, its second records the
    ``(D, G)`` lines and the rest replay them; the batched path checks
    the whole backlog as one equation, two fused Miller loops and one
    final exponentiation, and records no lines.
    The backlog is decoded once, outside the timing, so the rows time
    the check and not the subgroup proofs of decoding.  Every round
    then checks new update objects on the decoded points: an update
    remembers the key it was accepted under, so verifying the same
    objects again would time that record, not the check, while the
    points keep their subgroup proof, as a client's decoded ones do.
    """
    server = PassiveTimeServer(group, rng=rng)
    decoded = [
        TimeBoundKeyUpdate.from_bytes(
            group, server.publish_update(epoch_label(epoch)).to_bytes(group)
        )
        for epoch in range(batch)
    ]
    public = server.public_key

    def fresh():
        return [TimeBoundKeyUpdate(u.time_label, u.point) for u in decoded]

    def naive():
        group.clear_precomputations()
        assert all(u.verify(group, public) for u in fresh())

    def catch_up():
        group.clear_precomputations()
        assert verify_archive(group, public, fresh()) == []

    medians = trajectory.measure_interleaved(
        group, f"catchup_x{batch}",
        {"direct": naive, "batched": catch_up},
        rounds, batch=batch,
    )
    group.clear_precomputations()
    return medians["direct"] / medians["batched"]


def bench_backend_pairing(group, rng, trajectory, rounds):
    """Full cold pairing under every available arithmetic backend.

    One fresh group per backend over the same parameters; the pure
    ``python`` backend is recorded as the ``direct`` variant, so the
    derived ``speedup_vs_direct`` rows compare backends (e.g.
    ``pairing_backend:ss512:montgomery``).  A cold pairing records no
    lines: every backend runs the same fused projective Miller loop on
    ``%`` reductions and the same Lucas ladder for the final
    exponentiation, and both invert with the base class's
    ``pow(x, -1, p)``, so their cold pairings run the same code: the
    two rows measure the host's noise, not a backend.  Each timed call clears the caches first, so no
    cached lines leak in, and the rounds alternate between backends.
    Byte-identity across backends is asserted on the way.
    """
    from repro.math.backend import available_backends

    s1, s2 = group.random_scalar(rng), group.random_scalar(rng)
    colds = {}
    reference_bytes = None
    for name in available_backends():
        g = PairingGroup(group.params, family=group.family, backend=name)
        p_point = g.mul(g.generator, s1)
        q_point = g.mul(g.generator, s2)
        gt_bytes = g.pair(p_point, q_point).to_bytes()
        if reference_bytes is None:
            reference_bytes = gt_bytes
        assert gt_bytes == reference_bytes, f"backend {name} diverged"

        def cold(g=g, p_point=p_point, q_point=q_point):
            g.clear_precomputations()
            g.tate.pair(p_point, q_point)

        colds[name] = cold
    # Interleave the backends round by round, so drift in the host's
    # speed lands on every backend alike instead of on one block.
    samples = {name: [] for name in colds}
    for _ in range(rounds):
        for name, cold in colds.items():
            samples[name].append(time_median(cold, rounds=1))
    medians = {}
    for name, times in samples.items():
        medians[name] = statistics.median(times)
        variant = "direct" if name == "python" else name
        trajectory.record(
            "pairing_backend", group.params.name, variant, medians[name],
            rounds, backend=name, batch=1,
        )
    fastest = min(
        (n for n in medians if n != "python"), key=medians.__getitem__
    )
    return medians["python"] / medians[fastest]


def run_all(group, rng, trajectory, rounds, batch):
    """Every smoke comparison ``trajectory`` selects (see
    :meth:`~benchmarks.trajectory.BenchTrajectory.selects`); returns
    ``{label: speedup_ratio}``.

    Shared by the CLI below and ``benchmarks.trajectory --check``.
    """
    comparisons = (
        ((f"encrypt_x{n}" for n in (1, batch)), lambda: {
            f"warm encrypt x{n}": ratio for n, ratio in
            bench_encrypt(group, rng, trajectory, rounds, batch).items()
        }),
        (("scalar_mult",), lambda: {"fixed-base scalar mult":
            bench_scalar_mult(group, rng, trajectory, rounds)}),
        (("pairing",), lambda: {"precomputed pairing":
            bench_pairing(group, rng, trajectory, rounds)}),
        (("gt_exp",), lambda: {"GT fixed-base exp":
            bench_gt_exp(group, rng, trajectory, rounds)}),
        ((f"broadcast_x{batch}",), lambda: {f"broadcast x{batch}":
            bench_encrypt_broadcast(group, rng, trajectory, rounds, batch)}),
        ((f"tre_decrypt_x{batch}",), lambda: {f"batch decrypt x{batch}":
            bench_batch_decrypt(group, rng, trajectory, rounds, batch)}),
        (("multi_pair",), lambda: {"multi-pair verify":
            bench_multi_pair(group, rng, trajectory, rounds)}),
        ((f"catchup_x{batch}",), lambda: {f"archive catch-up x{batch}":
            bench_catchup(group, rng, trajectory, rounds, batch)}),
        (("pairing_backend",), lambda: {"backend pairing":
            bench_backend_pairing(group, rng, trajectory, rounds)}),
    )
    ratios = {}
    for ops, run in comparisons:
        if any(trajectory.selects(op) for op in ops):
            ratios.update(run())
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--params", default="toy64",
                        help="parameter set (toy64, ss512, ...)")
    parser.add_argument("--batch", type=int, default=32,
                        help="ciphertexts in the batch-decrypt comparison")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timing rounds per measurement (median kept)")
    parser.add_argument("--backend", default=None,
                        help="field-arithmetic backend for the main group "
                             "(python, montgomery, gmpy2, auto; default "
                             "auto — the backend comparison entry always "
                             "measures every available backend)")
    parser.add_argument("--output", default=None,
                        help="trajectory file (default: repo-root "
                             "BENCH_pairing.json)")
    parser.add_argument("--rows", action="append", default=None,
                        metavar="GLOB",
                        help="write only the rows whose op:params:variant "
                             "key matches GLOB (repeatable); comparisons "
                             "whose op matches no GLOB are skipped")
    args = parser.parse_args(argv)

    group = PairingGroup(args.params, family="A", backend=args.backend)
    rng = seeded_rng(f"smoke:{args.params}")
    trajectory = BenchTrajectory(args.output, rows=args.rows)

    print(f"precomputation smoke benchmark on {args.params} "
          f"(q={group.q.bit_length()} bits, backend={group.backend_name}, "
          f"rounds={args.rounds})")
    ratios = run_all(group, rng, trajectory, args.rounds, args.batch)
    path = trajectory.write()

    for line in trajectory.summary_lines():
        print("  " + line)
    print(f"trajectory merged into {path}")
    for label, ratio in ratios.items():
        print(f"{label}: {ratio:.2f}x vs direct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
