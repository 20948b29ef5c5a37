"""repro.lint.conc — whole-program concurrency & fork-safety analysis.

Where :mod:`repro.lint.flow` follows *values*, this package follows
*processes*: which functions run inside worker processes (a
``register_task`` task, a pool/executor dispatch target or a
``multiprocessing.Process`` target), and what process-global state —
RNG streams, module/class-level caches, pickled task shards — they
touch once they do:

========  ===========================  ================================
Rule id   Name                         Violation
========  ===========================  ================================
RP301     fork-duplicated-rng          worker draws from fork-copied
                                       deterministic RNG state
RP302     shared-mutable-in-worker     worker touches module/class
                                       mutable state (divergent copies)
RP303     secret-over-pickle           secret crosses the task-shard
                                       boundary unsanitized
RP304     fork-unsafe-lazy-init        process-global first-touch init
                                       on both sides of the fork
RP305     nondeterministic-chunk-order worker results merged via set/
                                       dict/completion order
========  ===========================  ================================

See ``docs/STATIC_ANALYSIS.md`` ("Concurrency & fork-safety analysis")
for the effect summaries, the worker-reachability definition, and
worked examples.
"""

from __future__ import annotations

from repro.lint.conc.analysis import CONC_RULES, analyze_concurrency

__all__ = ["CONC_RULES", "analyze_concurrency"]
