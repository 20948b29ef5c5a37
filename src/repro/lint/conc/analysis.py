"""Worker-reachability and the RP301–RP305 concurrency rules.

The pass runs after the flow fixpoint on the same
:class:`~repro.lint.program.Program`:

1. scan every module's process-global state (:mod:`effects`),
2. collect per-function effect summaries,
3. compute *worker-reachability* — a function is worker-reachable when
   it is a registered parallel task, a pool/executor dispatch target, a
   ``multiprocessing.Process`` target, or (transitively) called by one
   over the name-based call graph — and *parent-reachability* (module
   top level plus every function containing a dispatch site, and their
   callees),
4. emit findings:

========  ==========================  =================================
Rule id   Name                        Violation
========  ==========================  =================================
RP301     fork-duplicated-rng         worker-reachable draw from stdlib
                                      ``random`` module state or a
                                      cached deterministic generator
RP302     shared-mutable-in-worker    worker-reachable read or write of
                                      module/class-level mutable state
                                      outside the read-only whitelist
RP303     secret-over-pickle          SECRET value crosses a task-shard
                                      / pickle boundary unsanitized
RP304     fork-unsafe-lazy-init       first-touch init of a process
                                      global on both sides of the fork
RP305     nondeterministic-chunk-order worker results merged through
                                      set/dict/completion order
========  ==========================  =================================

Registering an ``os.register_at_fork`` hook that resets a global is the
sanctioned discipline for per-process caches: it exempts that global
from RP301/RP302/RP304.
"""

from __future__ import annotations

import ast
from collections import deque

from repro.lint.conc import registry as creg
from repro.lint.conc.effects import (
    FunctionEffects,
    ModuleState,
    function_effects,
    is_pool_dispatch,
    scan_module_state,
)
from repro.lint.flow import registry as freg
from repro.lint.flow.lattice import SECRET
from repro.lint.flow.transfer import Summary
from repro.lint.program import FunctionInfo, Program, Summaries, clip, own_nodes
from repro.lint.rules.base import Rule, terminal_name

RP301 = Rule(
    "RP301",
    "fork-duplicated-rng",
    "worker-reachable code draws from the stdlib `random` module "
    "state or a cached deterministic generator — forked children "
    "inherit identical state and replay the same 'random' stream "
    "(duplicate nonces across workers)",
    "draw from os.urandom/secrets (e.g. repro.crypto.rng.process_rng) "
    "inside workers, or guard the cache with an os.register_at_fork "
    "reseed hook",
)
RP302 = Rule(
    "RP302",
    "shared-mutable-in-worker",
    "worker-reachable code reads or writes module/class-level "
    "mutable state — under fork each child gets a divergent copy-"
    "on-write copy, under spawn a freshly imported one, so parent "
    "and workers silently disagree",
    "pass the state through the task payload, make the registry "
    "write-once at import time (read-only whitelist), or register "
    "an os.register_at_fork reset hook",
)
RP303 = Rule(
    "RP303",
    "secret-over-pickle",
    "a secret value crosses a pickle/task-shard boundary to worker "
    "processes without passing the bytes-only shard sanitizer — "
    "pickled object graphs copy secrets into pool pipes and worker "
    "heaps outside the library's zeroization reach",
    "wrap the encoded secret in a bytes-only sanitizer listed in "
    "repro.lint.conc.registry.SHARD_SANITIZERS (shard_secret), or "
    "derive a per-shard key first",
)
RP304 = Rule(
    "RP304",
    "fork-unsafe-lazy-init",
    "process-global state is first-touch initialized by code that "
    "runs on both sides of the fork point — a child forked after "
    "the parent's first touch inherits the parent's instance while "
    "a child forked before builds its own",
    "initialize eagerly at import, or register an "
    "os.register_at_fork hook that resets the global in the child",
)
RP305 = Rule(
    "RP305",
    "nondeterministic-chunk-order",
    "worker results are merged through set/dict iteration order or "
    "a completion-order stream (`imap_unordered`/`as_completed`) — "
    "output order then depends on OS scheduling, not input order",
    "collect results in submission order (pool.map / sorted keys) "
    "or reorder by an explicit index before merging",
)
CONC_RULES = (RP301, RP302, RP303, RP304, RP305)

# Attribute-call terminals excluded from call-graph edges: generic
# container/codec method names that would otherwise resolve (name-based)
# to unrelated in-tree functions and inflate worker-reachability.
_GENERIC_ATTR_CALLS = creg.MUTATING_METHODS | frozenset(
    {"get", "items", "keys", "values", "copy", "encode", "decode",
     "join", "split", "close", "hexdigest", "digest"}
)

_MAX_EXPR = 60


class ConcurrencyAnalysis:
    """One whole-program fork-safety pass over the solved taint
    summaries (RP303 reads which calls return secrets)."""

    def __init__(self, program: Program, taint: Summaries[Summary]):
        self.program = program
        self.taint = taint
        self.states: dict[str, ModuleState] = {
            module.path: scan_module_state(module.path, module.tree)
            for module in program.modules
        }
        self.effects: dict[int, FunctionEffects] = {}
        self.edges: dict[int, list[FunctionInfo]] = {}
        for func in program.functions:
            self.effects[id(func)] = function_effects(
                func, self.states[func.path], program.imports[func.path]
            )
            self.edges[id(func)] = self._call_edges(func)

    # -- call graph ----------------------------------------------------------

    def _call_edges(self, func: FunctionInfo) -> list[FunctionInfo]:
        edges: list[FunctionInfo] = []
        seen: set[int] = set()
        for node in own_nodes(func.node):
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            if name is None:
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and name in _GENERIC_ATTR_CALLS
            ):
                continue
            for callee in self.program.callees(name):
                if id(callee) not in seen and callee is not func:
                    seen.add(id(callee))
                    edges.append(callee)
        return edges

    # -- reachability --------------------------------------------------------

    def _worker_roots(self) -> list[tuple[FunctionInfo, str]]:
        roots: list[tuple[FunctionInfo, str]] = []
        for func in self.program.functions:
            node = func.node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if terminal_name(target) in creg.WORKER_DECORATORS:
                        roots.append(
                            (func, f"task `{func.name}` registered for the "
                                   "worker pool")
                        )
                        break
        for func in self.program.functions:
            for node in own_nodes(func.node):
                if not isinstance(node, ast.Call):
                    continue
                targets: list[ast.expr] = []
                how = ""
                if is_pool_dispatch(node) and node.args:
                    targets = [node.args[0]]
                    how = f"dispatched by `{func.name}` via .{node.func.attr}"
                elif (
                    isinstance(node.func, (ast.Name, ast.Attribute))
                    and terminal_name(node.func) in creg.PROCESS_CLASSES
                ):
                    targets = [
                        kw.value for kw in node.keywords if kw.arg == "target"
                    ]
                    how = f"Process target in `{func.name}`"
                for target in targets:
                    name = terminal_name(target)
                    if name is None:
                        continue
                    for callee in self.program.callees(name):
                        roots.append((callee, how))
        return roots

    def _parent_roots(self) -> list[tuple[FunctionInfo, str]]:
        roots: list[tuple[FunctionInfo, str]] = []
        for func in self.program.functions:
            if func.name == "<module>":
                roots.append((func, "module import"))
                continue
            for node in own_nodes(func.node):
                if isinstance(node, ast.Call) and (
                    is_pool_dispatch(node)
                    or (
                        isinstance(node.func, ast.Name)
                        and node.func.id in creg.SHARD_BOUNDARY_CALLS
                    )
                ):
                    roots.append(
                        (func, f"parent-side dispatch in `{func.name}`")
                    )
                    break
        roots.extend(self._async_task_roots())
        return roots

    def _async_task_roots(self) -> list[tuple[FunctionInfo, str]]:
        """Coroutines handed to ``create_task``/``ensure_future``.

        They run concurrently *in the parent* (no fork), so they join
        parent-reachability: a shard-boundary crossing or lazy global
        init inside an async task is as parent-side as one on the main
        call path.  The spawner's argument is usually a coroutine
        *call* (``loop.create_task(self._scheduler())``); the entry
        point is that call's callee.
        """
        roots: list[tuple[FunctionInfo, str]] = []
        for func in self.program.functions:
            for node in own_nodes(func.node):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                if terminal_name(node.func) not in creg.ASYNC_TASK_SPAWNERS:
                    continue
                target = node.args[0]
                if isinstance(target, ast.Call):
                    target = target.func
                name = terminal_name(target)
                if name is None:
                    continue
                for callee in self.program.callees(name):
                    roots.append(
                        (callee, f"async task spawned in `{func.name}`")
                    )
        return roots

    def _reach(
        self, roots: list[tuple[FunctionInfo, str]]
    ) -> dict[int, tuple[FunctionInfo, str]]:
        reached: dict[int, tuple[FunctionInfo, str]] = {}
        queue: deque[tuple[FunctionInfo, str]] = deque(roots)
        while queue:
            func, why = queue.popleft()
            if id(func) in reached:
                continue
            reached[id(func)] = (func, why)
            for callee in self.edges.get(id(func), []):
                if id(callee) not in reached:
                    queue.append((callee, why))
        return reached

    def run(self) -> None:
        worker = self._reach(self._worker_roots())
        parent = self._reach(self._parent_roots())
        for func in self.program.functions:
            effects = self.effects[id(func)]
            state = self.states[func.path]
            in_worker = worker.get(id(func))
            if in_worker is not None:
                why = in_worker[1]
                self._rule_301(func, effects, why)
                self._rule_302(func, effects, state, why)
                lazy = {e.subject for e in effects.lazy_inits}
                if lazy and id(func) in parent:
                    self._rule_304(func, effects, why)
            self._rule_303(func)
            self._rule_305(func, effects)

    def _rule_301(
        self, func: FunctionInfo, effects: FunctionEffects, why: str
    ) -> None:
        seen: set[str] = set()
        for effect in effects.rng:
            if effect.subject in seen:
                continue
            seen.add(effect.subject)
            self.program.emit(
                func,
                effect.node,
                RP301,
                f"`{func.name}` runs in worker processes ({why}): "
                f"{effect.detail}",
            )

    def _rule_302(
        self,
        func: FunctionInfo,
        effects: FunctionEffects,
        state: ModuleState,
        why: str,
    ) -> None:
        lazy = {e.subject for e in effects.lazy_inits}

        def exempt(subject: str) -> bool:
            base = subject.split(".", 1)[0]
            return (
                subject in lazy
                or base in state.fork_guarded
                or subject in state.fork_guarded
            )

        written: set[str] = set()
        for effect in effects.global_writes:
            if exempt(effect.subject) or effect.subject in written:
                continue
            written.add(effect.subject)
            self.program.emit(
                func,
                effect.node,
                RP302,
                f"`{func.name}` runs in worker processes ({why}): "
                f"{effect.detail} diverges between parent and workers",
            )
        read: set[str] = set()
        for effect in effects.global_reads:
            subject = effect.subject
            if (
                exempt(subject)
                or subject in written
                or subject in read
                or subject.split(".", 1)[-1] in creg.READ_ONLY_GLOBALS
                or subject in creg.READ_ONLY_GLOBALS
            ):
                continue
            read.add(subject)
            self.program.emit(
                func,
                effect.node,
                RP302,
                f"`{func.name}` runs in worker processes ({why}): "
                f"{effect.detail} may observe a stale pre-fork copy",
            )

    def _rule_304(
        self, func: FunctionInfo, effects: FunctionEffects, why: str
    ) -> None:
        seen: set[str] = set()
        for effect in effects.lazy_inits:
            if effect.subject in seen:
                continue
            seen.add(effect.subject)
            self.program.emit(
                func,
                effect.node,
                RP304,
                f"{effect.detail} in `{func.name}` straddles the fork "
                f"point — reachable from workers ({why}) and from the "
                "parent process",
            )

    # -- RP303: the shard boundary ------------------------------------------

    def _rule_303(self, func: FunctionInfo) -> None:
        secret_locals: set[str] = set()
        for node in own_nodes(func.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and self._expr_secret(node.value, secret_locals)
            ):
                secret_locals.add(node.targets[0].id)
            if not isinstance(node, ast.Call):
                continue
            payloads: list[tuple[str, ast.expr]] = []
            boundary = ""
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in creg.SHARD_BOUNDARY_CALLS
            ):
                boundary = node.func.id
                payloads = [("argument", arg) for arg in node.args] + [
                    (f"argument `{kw.arg}`", kw.value)
                    for kw in node.keywords
                    if kw.arg and kw.arg not in creg.BOUNDARY_CONTROL_KWARGS
                ]
            elif is_pool_dispatch(node):
                boundary = f".{node.func.attr}"
                payloads = [("argument", arg) for arg in node.args[1:]] + [
                    (f"argument `{kw.arg}`", kw.value)
                    for kw in node.keywords
                    if kw.arg and kw.arg not in creg.BOUNDARY_CONTROL_KWARGS
                ]
            elif (
                terminal_name(node.func) in creg.PROCESS_CLASSES
                and node.keywords
            ):
                boundary = "Process"
                payloads = [
                    (f"argument `{kw.arg}`", kw.value)
                    for kw in node.keywords
                    if kw.arg in ("args", "kwargs")
                ]
            if not boundary:
                continue
            for label, expr in payloads:
                if self._expr_secret(expr, secret_locals):
                    rendered = clip(ast.unparse(expr), _MAX_EXPR)
                    self.program.emit(
                        func,
                        expr,
                        RP303,
                        f"secret value `{rendered}` crosses the "
                        f"`{boundary}` task-shard boundary in "
                        f"`{func.name}` without the bytes-only shard "
                        "sanitizer",
                    )

    def _expr_secret(self, expr: ast.expr, secret_locals: set[str]) -> bool:
        if isinstance(expr, ast.Constant):
            return False
        if isinstance(expr, ast.Name):
            return expr.id in secret_locals or freg.is_secret_name(expr.id)
        if isinstance(expr, ast.Attribute):
            return freg.is_secret_name(expr.attr) or self._expr_secret(
                expr.value, secret_locals
            )
        if isinstance(expr, ast.Call):
            name = terminal_name(expr.func)
            if name in (
                creg.SHARD_SANITIZERS
                | freg.SANITIZER_CALLS
                | freg.DECLASSIFIER_CALLS
            ):
                return False
            if isinstance(expr.func, ast.Attribute) and self._expr_secret(
                expr.func.value, secret_locals
            ):
                return True
            if any(self._expr_secret(a, secret_locals) for a in expr.args):
                return True
            if any(
                self._expr_secret(kw.value, secret_locals)
                for kw in expr.keywords
            ):
                return True
            if name is not None:
                for callee in self.program.callees(name):
                    summary = self.taint.of(callee)
                    if summary.returns.level >= SECRET:
                        return True
            return False
        return any(
            self._expr_secret(child, secret_locals)
            for child in ast.iter_child_nodes(expr)
            if isinstance(child, ast.expr)
        )

    def _rule_305(self, func: FunctionInfo, effects: FunctionEffects) -> None:
        for effect in effects.merges:
            self.program.emit(
                func,
                effect.node,
                RP305,
                f"{effect.detail} in `{func.name}` — output order depends "
                "on OS scheduling, not input order",
            )


def analyze_concurrency(program: Program, taint: Summaries[Summary]) -> None:
    """Run the fork-safety pass, emitting RP3xx findings into
    ``program``; ``taint`` is the solved taint family."""
    ConcurrencyAnalysis(program, taint).run()
