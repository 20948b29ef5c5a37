"""Process-parallel batch engine for embarrassingly parallel crypto work.

The deployment-shaped batch operations — a receiver decrypting a backlog
of same-label ciphertexts, a verifier authenticating an archive of
time-bound key updates — are embarrassingly parallel: every item is
independent and the per-item work (a Miller loop, a final
exponentiation) dwarfs serialization cost.  This module shards such
batches across a :mod:`multiprocessing` worker pool:

* **Byte-serialized tasks.**  Work units cross the process boundary as
  the library's own wire encodings (``to_bytes`` / ``from_bytes``), so
  results are byte-identical to the sequential path and nothing depends
  on pickling curve points or field elements.
* **Lazy per-worker group reconstruction.**  A :class:`PairingGroup` is
  not picklable (it holds caches and counters); workers rebuild it from
  the parameter-set description on first use and cache it for the rest
  of their life.  This makes the engine safe under both ``fork`` and
  ``spawn`` start methods.
* **Chunked dispatch.**  Payloads are grouped into chunks (default:
  ``ceil(n / (workers * 4))`` per chunk) so each task invocation can
  amortize per-batch setup — e.g. precomputing the shared update's
  Miller lines once per chunk — while still load-balancing across
  workers.
* **Sequential fallback.**  ``workers <= 1`` (or a single payload) runs
  the identical task function in-process: same code path, same bytes,
  no pool.
* **Failure surfacing.**  A worker exception is captured with its
  traceback and re-raised in the parent as
  :class:`~repro.errors.ParallelExecutionError` — the pool never hangs
  on an unpicklable exception and failures stay diagnosable.

Operation counters are per-process, so work done inside workers is NOT
reflected in the parent group's counters; cost accounting for parallel
paths lives in :mod:`repro.analysis.costmodel` instead.

Task functions are registered at import time under stable string names
(the only thing shipped to the worker besides bytes), take
``(group, setup, chunk)`` and return one ``bytes`` result per payload.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import traceback
from typing import Callable, Sequence

from repro.errors import ParallelExecutionError, ParameterError
from repro.pairing.api import PairingGroup
from repro.pairing.params import PARAMETER_SETS, ParameterSet

# ----------------------------------------------------------------------
# Task registry.  Populated at module import, so any process that can
# unpickle `_execute_chunk` (which requires importing this module) sees
# the same registry — the basis of spawn-safety.
# ----------------------------------------------------------------------

TaskFn = Callable[[PairingGroup, bytes, "list[bytes]"], "list[bytes]"]

_TASKS: dict[str, TaskFn] = {}


def register_task(name: str) -> Callable[[TaskFn], TaskFn]:
    """Register ``fn`` as the chunk-level handler for ``name``.

    The function receives ``(group, setup, chunk)`` — the rebuilt
    pairing group, the task-wide setup blob, and a list of payload
    blobs — and must return exactly one ``bytes`` per payload, in
    order.
    """

    def decorate(fn: TaskFn) -> TaskFn:
        if name in _TASKS:
            raise ParameterError(f"parallel task {name!r} already registered")
        _TASKS[name] = fn
        return fn

    return decorate


def task_names() -> list[str]:
    return sorted(_TASKS)


# ----------------------------------------------------------------------
# Per-worker pairing-group cache.
#
# Lazily populated on each worker's first chunk and reset in forked
# children by the hook below, so a worker never decides it "already
# has" a group that was actually built (caches, counters and all) by
# the parent before the fork.
# ----------------------------------------------------------------------

_WORKER_GROUPS: dict[tuple, PairingGroup] = {}

# Which shared-table blobs have already been installed into a worker's
# rebuilt group, keyed by (group spec, blob digest).  Installing is
# idempotent (same bytes → same cache entries) but not free, so each
# worker pays it once per blob, not once per chunk.  Reset after fork
# alongside the group cache: a child's groups are rebuilt empty, so the
# installed-markers it inherited from the parent are stale.
_WORKER_TABLE_KEYS: set[tuple] = set()

if hasattr(os, "register_at_fork"):  # not available on all platforms
    os.register_at_fork(after_in_child=_WORKER_GROUPS.clear)
    os.register_at_fork(after_in_child=_WORKER_TABLE_KEYS.clear)


def shard_secret(blob: bytes) -> bytes:
    """Mark an encoded secret as cleared to cross the shard boundary.

    The audited chokepoint for secret material entering
    :func:`parallel_map` setup/payload blobs (lint rule RP303): it
    accepts *bytes only* — already wire-encoded by the caller — so a
    secret can never cross to workers as a pickled object graph, where
    copies would land in pool pipes and worker heaps beyond the
    library's reach.  The bytes pass through unchanged.
    """
    if not isinstance(blob, bytes):
        raise ParameterError(
            "shard_secret clears bytes across the worker boundary; got "
            f"{type(blob).__name__} — encode the secret first"
        )
    return blob


def _group_spec(group: PairingGroup) -> tuple:
    """A picklable, worker-reconstructable description of ``group``.

    Includes the backend *name* so workers compute with the same
    arithmetic provider as the parent (results are byte-identical
    across backends regardless; matching them keeps per-item worker
    cost — and therefore the auto_workers model — honest).
    """
    params = group.params
    return (
        params.name,
        params.q,
        params.c,
        params.p,
        params.security_bits,
        group.family,
        group.backend_name,
    )


def _group_from_spec(spec: tuple) -> PairingGroup:
    """Rebuild (once per worker process) the group a spec describes."""
    group = _WORKER_GROUPS.get(spec)
    if group is None:
        name, q, c, p, security_bits, family, backend = spec
        params = PARAMETER_SETS.get(name)
        if params is None or (params.q, params.c, params.p) != (q, c, p):
            params = ParameterSet(
                name=name, q=q, c=c, p=p, security_bits=security_bits
            )
        group = PairingGroup(params, family, backend=backend)
        _WORKER_GROUPS[spec] = group
    return group


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------


def available_workers() -> int:
    """CPUs this process may run on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


# Cost-model constants for auto_workers, in units of "one item's work".
# WORKER_WARMUP_ITEM_COST: forking a pool, importing the library and
# rebuilding the pairing group in each worker costs roughly this many
# items of useful work (workers warm up concurrently, so it is paid once
# per batch, not per worker).  PARALLEL_ITEM_OVERHEAD: byte
# serialization and pipe transfer add this fraction to every item.
# AUTO_SPEEDUP_MARGIN: forking must beat sequential by at least this
# factor, else the model stays sequential — near break-even the pool's
# unmodeled costs (scheduler noise, memory pressure) make it a loss.
WORKER_WARMUP_ITEM_COST = 4.0
# Warmup when the parent ships precomputed Miller-line tables along with
# the batch (shared_tables): workers skip re-recording lines on their
# first chunk, so the modeled warmup drops — installing a table blob is
# deserialization, a fraction of recording it.
WORKER_WARMUP_WITH_TABLES_COST = 2.0
PARALLEL_ITEM_OVERHEAD = 0.1
AUTO_SPEEDUP_MARGIN = 0.95


def auto_workers(item_count: int, cpus: int | None = None,
                 warmup: float | None = None) -> int:
    """Pick a worker count for ``item_count`` items, or 1 for sequential.

    A deliberately simple cost model: sequential cost is ``item_count``;
    a ``w``-worker pool costs a one-time warmup plus the longest shard,
    inflated by per-item serialization overhead.  The returned count is
    the cheapest ``w``, and 1 (sequential — no pool at all) unless the
    best pool beats sequential by :data:`AUTO_SPEEDUP_MARGIN`.  Small
    batches and single-CPU hosts therefore fall back to sequential
    instead of paying fork/import cost for nothing.

    ``warmup`` overrides the modeled per-batch warmup cost (in items):
    :data:`WORKER_WARMUP_ITEM_COST` by default,
    :data:`WORKER_WARMUP_WITH_TABLES_COST` when the caller ships
    precomputed tables — batches slightly too small to fork cold become
    worth forking warm.
    """
    if item_count <= 1:
        return 1
    if warmup is None:
        warmup = WORKER_WARMUP_ITEM_COST
    cpus = available_workers() if cpus is None else max(1, cpus)
    best_workers = 1
    best_cost = float(item_count)
    for workers in range(2, min(cpus, item_count) + 1):
        cost = warmup + math.ceil(item_count / workers) * (
            1.0 + PARALLEL_ITEM_OVERHEAD
        )
        if cost < best_cost:
            best_cost = cost
            best_workers = workers
    if best_workers > 1 and best_cost >= AUTO_SPEEDUP_MARGIN * item_count:
        return 1
    return best_workers


def default_chunk_size(item_count: int, workers: int) -> int:
    """~4 chunks per worker: large enough to amortize per-chunk setup,
    small enough that a slow chunk cannot straggle the whole batch."""
    return max(1, math.ceil(item_count / (max(1, workers) * 4)))


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _execute_chunk(job: tuple) -> tuple[str, object]:
    """Worker entry point: run one chunk, never raise across the pipe."""
    task_name, spec, tables, setup, chunk = job
    try:
        fn = _TASKS[task_name]
        group = _group_from_spec(spec)
        if tables:
            key = (spec, hashlib.sha256(tables).digest())
            if key not in _WORKER_TABLE_KEYS:
                group.install_pairing_lines(tables)
                _WORKER_TABLE_KEYS.add(key)
        results = list(fn(group, setup, list(chunk)))
        if len(results) != len(chunk):
            raise ParallelExecutionError(
                f"task {task_name!r} returned {len(results)} results "
                f"for {len(chunk)} payloads"
            )
        return ("ok", results)
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        return ("err", detail)


def parallel_map(
    task: str,
    group: PairingGroup,
    setup: bytes,
    payloads: Sequence[bytes],
    workers: int | None = None,
    chunk_size: int | None = None,
    start_method: str | None = None,
    shared_tables: bytes | None = None,
) -> list[bytes]:
    """Run a registered task over ``payloads``, sharded across processes.

    Parameters
    ----------
    task:
        A name from :func:`task_names`.
    group:
        The parent's pairing group; workers rebuild an equivalent one
        from its parameter set (same family and backend).
    setup:
        Task-wide context (already byte-encoded), handed to every chunk.
    payloads:
        Byte-encoded work items; one result blob is returned per item,
        in order.
    shared_tables:
        Optional :meth:`~repro.pairing.api.PairingGroup.export_pairing_lines`
        blob.  Each worker installs it into its rebuilt group exactly
        once (idempotently, keyed by content digest), so Miller lines
        the parent recorded once are never re-recorded per worker —
        the warm-up cost the auto model then discounts.
    workers:
        Process count.  ``None`` means :func:`auto_workers` — the cost
        model picks a count from the batch size and available CPUs, and
        falls back to sequential when forking would be a net loss;
        ``<= 1`` runs sequentially in-process (identical code path and
        bytes, no pool).
    chunk_size:
        Payloads per task invocation; ``None`` picks
        :func:`default_chunk_size`.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``.

    Raises
    ------
    ParallelExecutionError
        If any worker chunk raised; carries the worker traceback text.
    """
    if task not in _TASKS:
        raise ParameterError(
            f"unknown parallel task {task!r}; known: {task_names()}"
        )
    payloads = list(payloads)
    if not payloads:
        return []
    if workers is None:
        workers = auto_workers(
            len(payloads),
            warmup=(
                WORKER_WARMUP_WITH_TABLES_COST
                if shared_tables
                else WORKER_WARMUP_ITEM_COST
            ),
        )

    if workers <= 1 or len(payloads) == 1:
        status, value = _execute_chunk(
            (task, _group_spec(group), shared_tables, setup, payloads)
        )
        if status != "ok":
            raise ParallelExecutionError(
                f"task {task!r} failed (sequential fallback): {value}"
            )
        return value  # type: ignore[return-value]

    spec = _group_spec(group)
    if chunk_size is None:
        chunk_size = default_chunk_size(len(payloads), workers)
    chunk_size = max(1, chunk_size)
    chunks = [
        payloads[i : i + chunk_size]
        for i in range(0, len(payloads), chunk_size)
    ]
    jobs = [(task, spec, shared_tables, setup, chunk) for chunk in chunks]
    context = multiprocessing.get_context(start_method or _default_start_method())
    with context.Pool(processes=min(workers, len(chunks))) as pool:
        outcomes = pool.map(_execute_chunk, jobs)
    results: list[bytes] = []
    for status, value in outcomes:
        if status != "ok":
            raise ParallelExecutionError(f"task {task!r} failed in worker: {value}")
        results.extend(value)
    return results


# ----------------------------------------------------------------------
# Built-in tasks.  Core-scheme imports stay inside the task bodies so
# importing this module never drags in (or cycles with) repro.core.
# ----------------------------------------------------------------------


@register_task("selftest.echo")
def _task_selftest_echo(
    group: PairingGroup, setup: bytes, chunk: list[bytes]
) -> list[bytes]:
    """Engine plumbing check: concatenate setup with each payload."""
    return [setup + payload for payload in chunk]


@register_task("selftest.fail")
def _task_selftest_fail(
    group: PairingGroup, setup: bytes, chunk: list[bytes]
) -> list[bytes]:
    """Deterministic failure, for exercising the error-surfacing path."""
    raise RuntimeError(f"selftest.fail invoked on {len(chunk)} payload(s)")


@register_task("tre.decrypt")
def _task_tre_decrypt(
    group: PairingGroup, setup: bytes, chunk: list[bytes]
) -> list[bytes]:
    """Decrypt a shard of same-label TRE ciphertexts.

    ``setup`` packs the receiver's private scalar and the (already
    parent-verified) update; each payload is one ciphertext.  Each
    ciphertext costs ``ê(U, I_T)^a``: the pairing evaluates the
    ``I_T`` lines the parent shipped and this worker installed, so
    nothing is recorded here and no line table derived from ``a`` is
    built in a worker or shipped to one.
    """
    from repro.core.timeserver import TimeBoundKeyUpdate
    from repro.core.tre import TimedReleaseScheme, TRECiphertext
    from repro.encoding import unpack_chunks

    private_blob, update_blob = unpack_chunks(setup)
    private = int.from_bytes(private_blob, "big")
    update = TimeBoundKeyUpdate.from_bytes(group, update_blob)
    ciphertexts = [TRECiphertext.from_bytes(group, blob) for blob in chunk]
    scheme = TimedReleaseScheme(group)
    # lint: allow[RP401] the update bytes ride the parent's task shard,
    # verified parent-side before dispatch; re-pairing in every worker
    # chunk would defeat the batch fast path
    return [scheme.decrypt(ct, private, update) for ct in ciphertexts]


@register_task("timeserver.verify_update")
def _task_timeserver_verify_update(
    group: PairingGroup, setup: bytes, chunk: list[bytes]
) -> list[bytes]:
    """Self-authenticate a shard of archived updates.

    ``setup`` is the server public key; each payload is one update.
    Returns ``b"\\x01"`` (valid) / ``b"\\x00"`` (forged or malformed)
    per update, with the fixed ``(G, sG)`` Miller lines precomputed
    once per chunk.

    A payload that raises a library error — undecodable bytes, a point
    the verifier rejects — marks *that update* failed instead of
    aborting the chunk with :class:`ParallelExecutionError`, mirroring
    the per-update containment of the sequential
    :func:`~repro.core.timeserver.verify_archive` path so both paths
    report the same failed labels.
    """
    from repro.core.bls import BLSSignatureScheme
    from repro.core.keys import ServerPublicKey
    from repro.core.timeserver import TimeBoundKeyUpdate
    from repro.errors import ReproError

    server_public = ServerPublicKey.from_bytes(group, setup)
    bls = BLSSignatureScheme(group)
    bls.precompute_public(server_public)
    results = []
    for blob in chunk:
        try:
            update = TimeBoundKeyUpdate.from_bytes(group, blob)
            valid = bls.verify(server_public, update.time_label, update.point)
        except ReproError:
            valid = False
        results.append(b"\x01" if valid else b"\x00")
    return results
