"""The concurrency analyzer's trusted-name tables.

Like ``repro.lint.flow.registry``, this file is the analysis's trusted
computing base: every name the fork-safety pass believes something
about lives here.  Four kinds of declarations:

* **Worker entry markers** — how code becomes *worker-reachable*: a
  ``register_task`` task decorator, functions handed to a pool/executor
  dispatch method, and ``multiprocessing.Process`` targets.  The
  ``conc_*`` fixtures under ``tests/lint/fixtures`` exercise each.
* **RNG state** — the stdlib ``random`` module-level functions whose
  shared Mersenne-Twister state a fork duplicates (two children that
  inherit it draw the *same* "random" stream), and the constructors
  whose results are clean (``os.urandom`` and everything
  ``secrets``-backed reads the kernel CSPRNG, which is fork-safe).
* **The read-only whitelist** — module-level registries populated at
  import time and never mutated afterwards; a worker may read them
  without an RP302 finding because fork cannot make them diverge.
* **Shard sanitizers** — the audited bytes-only boundary helpers a
  SECRET value must pass before crossing the pickle/task-shard
  boundary (RP303).  The flow registry's KDF/sanitizer family also
  clears the crossing, because a KDF output is no longer the secret.
"""

from __future__ import annotations

# -- worker entry markers ----------------------------------------------------

# Decorators that register a function as a process-pool task; the
# decorated function and everything it (transitively) calls runs in
# worker processes.
WORKER_DECORATORS = frozenset({"register_task"})

# Attribute calls that ship their first callable argument to worker
# processes, checked against the receiver tokens below so `pool.map`
# and `executor.submit` count while `mapping.map` does not.
POOL_DISPATCH_METHODS = frozenset(
    {
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "submit",
    }
)
POOL_RECEIVER_TOKENS = frozenset({"pool", "executor"})

# Constructors whose ``target=`` keyword is a new-process entry point.
PROCESS_CLASSES = frozenset({"Process"})

# Event-loop methods/functions whose first argument is a coroutine that
# then runs *concurrently in the parent process* (the asyncio service
# layer: epoch schedulers, announce pumps, parked decrypts).  Async
# tasks are not worker-reachable — no fork is involved — but they are
# parent-reachable: a pool dispatch or shard-boundary crossing buried
# inside one must get the same RP303/RP304 scrutiny as one on the main
# path.
ASYNC_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})

# Dispatch methods that yield results in *completion* order rather than
# submission order — merging them without an explicit reorder is RP305.
UNORDERED_DISPATCH = frozenset({"imap_unordered", "as_completed"})

# -- RNG state ---------------------------------------------------------------

# Module-level functions of the stdlib `random` module: all of them
# read/advance the hidden shared Random() instance that fork duplicates.
RNG_MODULE = "random"
RNG_STATE_FUNCTIONS = frozenset(
    {
        "random",
        "randrange",
        "randint",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
        "getstate",
        "setstate",
    }
)

# Constructors whose result carries *no* fork-duplicable state: the OS
# CSPRNG is read per call, so parent and children can never replay each
# other's stream.  A module-level cache of one of these is clean.
FORK_SAFE_RNG_FACTORIES = frozenset({"SystemRandom", "system_rng", "process_rng"})

# Constructors whose result is a deterministic, stateful generator: a
# module-level cache of one of these is exactly the fork-duplicated
# nonce hazard RP301 exists for.
STATEFUL_RNG_FACTORIES = frozenset({"Random", "seeded_rng"})

# -- the read-only whitelist (RP302) ----------------------------------------

# Module-level registries that are write-once at import time.  Reading
# them from worker code is safe: fork copies them, but nothing mutates
# either copy afterwards, so parent and children agree forever.  A
# *write* to one of these from worker-reachable code still fires.
READ_ONLY_GLOBALS = frozenset(
    {
        "_TASKS",  # a register_task registry, populated at import
        "PARAMETER_SETS",  # repro.pairing.params, immutable after import
        # repro.math.backend: the name -> class table is write-once at
        # import; the per-(name, modulus) instance cache is mutable but
        # fork-guarded by its own register_at_fork clear hook.
        "_BACKEND_CLASSES",
        "BACKEND_NAMES",
    }
)

# Container methods that mutate the receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
    }
)

# -- shard sanitizers (RP303) ------------------------------------------------

# The audited bytes-only boundary helper: wrapping a secret blob in one
# of these declares "this secret is allowed to cross to worker
# processes, and it crosses as raw bytes over the pool's pipe, not as a
# pickled object graph".
SHARD_SANITIZERS = frozenset({"shard_secret"})

# Call names that put their arguments on the task-shard/pickle boundary.
SHARD_BOUNDARY_CALLS = frozenset({"parallel_map"})

# Keyword arguments of boundary calls that carry engine knobs, never
# payloads — their values are not inspected.
BOUNDARY_CONTROL_KWARGS = frozenset(
    {"workers", "chunk_size", "chunksize", "start_method", "timeout"}
)

# -- fork guards -------------------------------------------------------------

# Registering an at-fork hook that resets a process-global makes its
# lazy initialization (RP304) and cached-RNG use (RP301) fork-safe: the
# child's first touch reinitializes instead of inheriting.
AT_FORK_REGISTRARS = frozenset({"register_at_fork"})
