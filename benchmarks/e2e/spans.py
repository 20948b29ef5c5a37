"""In-memory span recorder for the traced benchmark run.

The tracer wraps a fixed set of library functions (:data:`SPAN_SET`)
from the outside, so nothing under ``src/`` changes.  Each wrapped call
records a span: name, start, end, parent span and request id.  It
records names and timings only, never arguments or return values, so
no key material can reach ``spans.jsonl``.

Self time is exact by construction.  One global stack holds the open
frames; a frame's self time is its active time minus the active time of
the frames pushed on top of it.  A coroutine function is timed step by
step: its frame is pushed each time the event loop resumes it and popped
each time it yields, so time spent suspended (while other tasks run) is
never charged to it.  The request root is pushed by the benchmark around
one request; its self time is ``trace.unattributed_ms``.  Summed over a
request, span self times plus the root's self time equal the root's
duration.

Some modules import functions by name (``from repro.crypto.authenc
import aead_encrypt``), so :meth:`Tracer.install` rebinds every module
attribute under ``repro`` that holds a wrapped function object, not just
the one in the defining module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# Span name -> (defining module, attribute path).  The name is
# ``<module under repro>.<function>``; methods name their class in the
# attribute path.  ``math.backend`` methods are wrapped on every backend
# class that defines them.
SPAN_SET: dict[str, tuple[str, str]] = {
    "service.client.get_update": ("repro.service.client", "ResilientTimeClient.get_update"),
    "service.client.catch_up": ("repro.service.client", "ResilientTimeClient.catch_up"),
    "service.client.ingest_frame": ("repro.service.client", "ResilientTimeClient.ingest_frame"),
    "service.node.handle_request": ("repro.service.node", "TimeServerNode.handle_request"),
    "service.node.restart": ("repro.service.node", "TimeServerNode.restart"),
    "service.wire.encode_message": ("repro.service.wire", "encode_message"),
    "service.wire.decode_message": ("repro.service.wire", "decode_message"),
    "core.timeserver.publish_update": ("repro.core.timeserver", "PassiveTimeServer.publish_update"),
    "core.timeserver.restore_archive": ("repro.core.timeserver", "PassiveTimeServer.restore_archive"),
    "core.timeserver.verify": ("repro.core.timeserver", "TimeBoundKeyUpdate.verify"),
    "core.timeserver.from_bytes": ("repro.core.timeserver", "TimeBoundKeyUpdate.from_bytes"),
    "core.timeserver.verify_archive": ("repro.core.timeserver", "verify_archive"),
    "core.tre.encrypt": ("repro.core.tre", "TimedReleaseScheme.encrypt"),
    "core.tre.decrypt_batch": ("repro.core.tre", "TimedReleaseScheme.decrypt_batch"),
    "core.tre.precompute_sender": ("repro.core.tre", "TimedReleaseScheme.precompute_sender"),
    "core.hybrid_tre.encrypt": ("repro.core.hybrid_tre", "HybridTimedReleaseScheme.encrypt"),
    "core.hybrid_tre.decrypt": ("repro.core.hybrid_tre", "HybridTimedReleaseScheme.decrypt"),
    "core.broadcast.encrypt_broadcast": (
        "repro.core.broadcast", "BroadcastTimedReleaseScheme.encrypt_broadcast"),
    "core.broadcast.decrypt_broadcast": (
        "repro.core.broadcast", "BroadcastTimedReleaseScheme.decrypt_broadcast"),
    "core.keys.ensure_well_formed": ("repro.core.keys", "UserPublicKey.ensure_well_formed"),
    "crypto.authenc.aead_encrypt": ("repro.crypto.authenc", "aead_encrypt"),
    "crypto.authenc.aead_decrypt": ("repro.crypto.authenc", "aead_decrypt"),
    "pairing.api.hash_to_g1": ("repro.pairing.api", "PairingGroup.hash_to_g1"),
    "pairing.api.mul": ("repro.pairing.api", "PairingGroup.mul"),
    "pairing.api.point_from_bytes": ("repro.pairing.api", "PairingGroup.point_from_bytes"),
    "pairing.api.gt_exp": ("repro.pairing.api", "PairingGroup.gt_exp"),
    "pairing.api.mask_bytes": ("repro.pairing.api", "PairingGroup.mask_bytes"),
    "pairing.api.pair": ("repro.pairing.api", "PairingGroup.pair"),
    "pairing.api.multi_pair": ("repro.pairing.api", "PairingGroup.multi_pair"),
    "pairing.api.precompute": ("repro.pairing.api", "PairingGroup.precompute"),
    "pairing.api.precompute_pairing": ("repro.pairing.api", "PairingGroup.precompute_pairing"),
    "pairing.api.precompute_gt": ("repro.pairing.api", "PairingGroup.precompute_gt"),
    "pairing.tate.pair": ("repro.pairing.tate", "TatePairing.pair"),
    "pairing.tate.multi_pair": ("repro.pairing.tate", "TatePairing.multi_pair"),
    "pairing.tate.pair_with_precomp": ("repro.pairing.tate", "TatePairing.pair_with_precomp"),
    "pairing.tate.precompute_lines": ("repro.pairing.tate", "TatePairing.precompute_lines"),
    "pairing.tate.final_exponentiation": ("repro.pairing.tate", "TatePairing.final_exponentiation"),
    "math.backend.eval_line_sequence": ("repro.math.backend", "*.eval_line_sequence"),
    "math.backend.eval_line_sequences_product": (
        "repro.math.backend", "*.eval_line_sequences_product"),
    "math.backend.fp_batch_inv": ("repro.math.backend", "*.fp_batch_inv"),
    "math.backend.unitary_exp": ("repro.math.backend", "*.unitary_exp"),
}

# Spans that run only while a workload sets up; their per-layer metrics
# are reported per set-up, every other span's per measured request.
SETUP_SPANS = (
    "core.tre.precompute_sender",
    "pairing.api.precompute",
    "pairing.api.precompute_gt",
)

_BACKEND_MODULES = (
    "repro.math.backend.base",
    "repro.math.backend.python",
    "repro.math.backend.montgomery",
    "repro.math.backend.gmp",
)

ROOT = "root"


class _Frame:
    __slots__ = ("span", "start", "child")

    def __init__(self, span: list, start: int):
        self.span = span
        self.start = start
        self.child = 0


class Tracer:
    """Records spans while :attr:`enabled`; wrappers cost a flag test
    otherwise.

    A span record is the list ``[id, parent, request, name, start,
    end, active_ns, self_ns]``; times are ``perf_counter_ns`` values.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.request = 0
        self.spans: list[list] = []
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1].span[0] if self._stack else None
        span = [len(self.spans) + 1, parent, self.request, name, 0, 0, 0, 0]
        self.spans.append(span)
        return span

    def _push(self, span: list) -> None:
        now = time.perf_counter_ns()
        if not span[4]:
            span[4] = now
        self._stack.append(_Frame(span, now))

    def _pop(self) -> None:
        now = time.perf_counter_ns()
        frame = self._stack.pop()
        active = now - frame.start
        span = frame.span
        span[5] = now
        span[6] += active
        span[7] += active - frame.child
        if self._stack:
            self._stack[-1].child += active

    def begin_request(self, request: int) -> None:
        """Open the root span of one request (the benchmark's own glue)."""
        self.request = request
        self._push(self._open(ROOT))

    def end_request(self) -> None:
        self._pop()
        self.request = 0

    def call(self, name: str, fn, args, kwargs):
        self._push(self._open(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._pop()

    def drive(self, name: str, coro):
        """Run ``coro`` as a generator, timing each step as one segment."""
        span = self._open(name)
        value, error = None, None
        while True:
            self._push(span)
            try:
                if error is not None:
                    step = coro.throw(error)
                else:
                    step = coro.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._pop()
            try:
                value, error = (yield step), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc

    # -- installation ----------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            def traced_async(*args, **kwargs):
                coro = fn(*args, **kwargs)
                if not tracer.enabled:
                    return coro
                return _Traced(tracer, name, coro)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_member(self, name: str, cls, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
        else:
            self._patch(cls, attr, self._wrap(name, raw))

    def install(self) -> "Tracer":
        """Wrap every function in :data:`SPAN_SET` (idempotent per tracer)."""
        if self._patches:
            return self
        functions: dict[int, tuple[object, object]] = {}
        for name, (module_name, path) in SPAN_SET.items():
            if module_name == "repro.math.backend":
                attr = path.split(".", 1)[1]
                for backend_module in _BACKEND_MODULES:
                    module = importlib.import_module(backend_module)
                    for cls in vars(module).values():
                        if (
                            inspect.isclass(cls)
                            and cls.__module__ == backend_module
                            and attr in cls.__dict__
                        ):
                            self._patch_member(name, cls, attr)
                continue
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                self._patch_member(name, getattr(module, class_name), attr)
                continue
            fn = getattr(module, path)
            functions[id(fn)] = (fn, self._wrap(name, fn))
        # Rebind module-level functions wherever they were imported.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is not None and value is entry[0]:
                    self._patch(module, attr, entry[1])
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def totals(self, requests, scale: dict[int, float]) -> dict[str, list[float]]:
        """``name -> [calls, self_ms]`` over the given request ids.

        Each span's self time is multiplied by ``scale[request]``.
        """
        wanted = set(requests)
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if span[2] in wanted:
                entry = out[span[3]]
                entry[0] += 1
                entry[1] += span[7] / 1e6 * scale[span[2]]
        return dict(out)

    def write_jsonl(self, path) -> None:
        keys = ("id", "parent", "request", "name", "start_ns", "end_ns",
                "active_ns", "self_ns")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Traced:
    """Awaitable that drives a wrapped coroutine through :meth:`Tracer.drive`."""

    __slots__ = ("_tracer", "_name", "_coro")

    def __init__(self, tracer: Tracer, name: str, coro):
        self._tracer = tracer
        self._name = name
        self._coro = coro

    def __await__(self):
        return self._tracer.drive(self._name, self._coro)
