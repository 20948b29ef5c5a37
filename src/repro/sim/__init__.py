"""Network simulation on the service stack's virtual-time event loop.

The paper motivates TRE with distributed scenarios — a sealed-bid
auction and a worldwide programming contest — where the interesting
behaviour is *timing under network jitter*: the big message can be
delivered early and slowly, while the tiny key update arrives at release
time with small jitter (footnote 1).  There is no engine here: every
scenario runs on :class:`~repro.service.virtualtime.VirtualTimeLoop`
with the real :class:`~repro.service.node.TimeServerNode` and
:class:`~repro.service.client.ResilientTimeClient`.  This package
provides:

* :mod:`repro.sim.network` — latency models, unicast links and the
  broadcast channel a passive time server uses, scheduled on the
  running loop;
* :mod:`repro.sim.metrics` — the anonymity ledger that records what
  the server actually observed;
* :mod:`repro.sim.scenarios` — ready-made builders for the paper's two
  motivating applications and a threshold beacon.

The gossip model of one update's dissemination and the per-channel
traffic counters are test harness code and live in
``tests/sim/harness.py``.
"""

from repro.sim.network import (
    BroadcastChannel,
    NormalJitterLatency,
    UniformLatency,
    UnicastLink,
)

__all__ = [
    "UniformLatency",
    "NormalJitterLatency",
    "UnicastLink",
    "BroadcastChannel",
]
