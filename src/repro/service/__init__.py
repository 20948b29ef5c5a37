"""The fault-tolerant time-server service layer.

The paper's server is *completely passive* — it broadcasts
``I_T = s·H1(T)`` on schedule and keeps a public archive — so all
real-world robustness lives around that passive core:

* :mod:`repro.service.node` — :class:`TimeServerNode`, a supervised
  asyncio node wrapping :class:`~repro.core.timeserver.PassiveTimeServer`
  with an epoch scheduler, an archive/catch-up request handler,
  health/readiness probes and crash/restart recovery from serialized
  archive state.
* :mod:`repro.service.retry` — reusable resilience primitives:
  :class:`Deadline`, :class:`ExponentialBackoff` (full jitter from an
  injected RNG) and :class:`CircuitBreaker` with a single half-open probe.
* :mod:`repro.service.client` — :class:`ResilientTimeClient`:
  per-request timeouts, retry/backoff, multi-source failover across a
  primary and mirrors, authenticated archive catch-up, and a decrypt
  queue that parks ciphertexts until the verified update arrives.
* :mod:`repro.service.faults` — a deterministic, seed-driven
  fault-injection proxy (drop, delay, duplicate, reorder, corruption,
  crash/restart, clock skew) composable with the
  :mod:`repro.sim.network` latency models.
* :mod:`repro.service.wire` — the length-framed message protocol the
  node and client speak.
* :mod:`repro.service.virtualtime` — a deterministic virtual-time
  asyncio event loop so none of the above ever touches the wall clock
  in tests.

Every component takes its clock, sleeper and RNG by injection; under
:class:`~repro.service.virtualtime.VirtualTimeLoop` a whole
node-plus-faulty-network scenario is byte-reproducible from its seed.
"""

from repro.service.client import ResilientTimeClient
from repro.service.faults import FaultPlan, FaultyChannel, FaultyTransport
from repro.service.node import LocalNodeTransport, TimeServerNode
from repro.service.retry import CircuitBreaker, Deadline, ExponentialBackoff
from repro.service.virtualtime import VirtualTimeLoop, run_virtual

__all__ = [
    "TimeServerNode",
    "LocalNodeTransport",
    "ResilientTimeClient",
    "Deadline",
    "ExponentialBackoff",
    "CircuitBreaker",
    "FaultPlan",
    "FaultyTransport",
    "FaultyChannel",
    "VirtualTimeLoop",
    "run_virtual",
]
