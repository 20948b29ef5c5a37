"""Worker-reachability and the RP301–RP305 concurrency rules.

The pass runs after the flow fixpoint on the same
:class:`~repro.lint.flow.callgraph.ProgramIndex`:

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
    scan_module_state,
)
from repro.lint.findings import Finding
from repro.lint.flow.analysis import FlowRuleMeta, ProgramAnalysis
from repro.lint.flow.callgraph import FunctionInfo
from repro.lint.flow.lattice import SECRET
from repro.lint.flow import registry as freg

RP301 = "RP301"
RP302 = "RP302"
RP303 = "RP303"
RP304 = "RP304"
RP305 = "RP305"

CONC_RULES: tuple[FlowRuleMeta, ...] = (
    FlowRuleMeta(
        RP301,
        "fork-duplicated-rng",
        "worker-reachable code draws from the stdlib `random` module "
        "state or a cached deterministic generator — forked children "
        "inherit identical state and replay the same 'random' stream "
        "(duplicate nonces across workers)",
        "draw from os.urandom/secrets (e.g. repro.crypto.rng.process_rng) "
        "inside workers, or guard the cache with an os.register_at_fork "
        "reseed hook",
    ),
    FlowRuleMeta(
        RP302,
        "shared-mutable-in-worker",
        "worker-reachable code reads or writes module/class-level "
        "mutable state — under fork each child gets a divergent copy-"
        "on-write copy, under spawn a freshly imported one, so parent "
        "and workers silently disagree",
        "pass the state through the task payload, make the registry "
        "write-once at import time (read-only whitelist), or register "
        "an os.register_at_fork reset hook",
    ),
    FlowRuleMeta(
        RP303,
        "secret-over-pickle",
        "a secret value crosses a pickle/task-shard boundary to worker "
        "processes without passing the bytes-only shard sanitizer — "
        "pickled object graphs copy secrets into pool pipes and worker "
        "heaps outside the library's zeroization reach",
        "wrap the encoded secret in a bytes-only sanitizer listed in "
        "repro.lint.conc.registry.SHARD_SANITIZERS (shard_secret), or "
        "derive a per-shard key first",
    ),
    FlowRuleMeta(
        RP304,
        "fork-unsafe-lazy-init",
        "process-global state is first-touch initialized by code that "
        "runs on both sides of the fork point — a child forked after "
        "the parent's first touch inherits the parent's instance while "
        "a child forked before builds its own",
        "initialize eagerly at import, or register an "
        "os.register_at_fork hook that resets the global in the child",
    ),
    FlowRuleMeta(
        RP305,
        "nondeterministic-chunk-order",
        "worker results are merged through set/dict iteration order or "
        "a completion-order stream (`imap_unordered`/`as_completed`) — "
        "output order then depends on OS scheduling, not input order",
        "collect results in submission order (pool.map / sorted keys) "
        "or reorder by an explicit index before merging",
    ),
)

CONC_RULE_IDS = tuple(meta.id for meta in CONC_RULES)
_CONC_NAMES = {meta.id: meta.name for meta in CONC_RULES}
_CONC_HINTS = {meta.id: meta.hint for meta in CONC_RULES}

# Attribute-call terminals excluded from call-graph edges: generic
# container/codec method names that would otherwise resolve (name-based)
# to unrelated in-tree functions and inflate worker-reachability.
_GENERIC_ATTR_CALLS = creg.MUTATING_METHODS | frozenset(
    {"get", "items", "keys", "values", "copy", "encode", "decode",
     "join", "split", "close", "hexdigest", "digest"}
)

_MAX_EXPR = 60


def _terminal(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _own_nodes(root: ast.AST):
    """The nodes belonging to *this* function (or module top level):
    in source order, never descending into nested def/class bodies —
    those are indexed as their own functions.  Decorator expressions of
    a skipped def still belong to the enclosing scope (they execute
    there)."""
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in child.decorator_list:
                yield dec
                yield from _own_nodes(dec)
            continue
        if isinstance(child, ast.ClassDef):
            # Class bodies execute at definition time in this scope,
            # but their method bodies do not.
            yield from _own_nodes(child)
            continue
        yield child
        yield from _own_nodes(child)


def _is_pool_dispatch(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr not in creg.POOL_DISPATCH_METHODS:
        return False
    base = _terminal(func.value)
    return base is not None and bool(
        freg.name_tokens(base) & creg.POOL_RECEIVER_TOKENS
    )


class ConcurrencyAnalysis:
    """One whole-program fork-safety pass over a solved flow analysis."""

    def __init__(
        self,
        modules: "list[tuple[str, str, ast.Module, list[str]]]",
        program: ProgramAnalysis,
    ):
        self.program = program
        self.index = program.index
        self.states: dict[str, ModuleState] = {
            path: scan_module_state(path, tree)
            for path, _pkg, tree, _lines in modules
        }
        self.effects: dict[int, FunctionEffects] = {}
        self.edges: dict[int, list[FunctionInfo]] = {}
        for func in self.index.all_functions:
            state = self.states.get(func.path) or ModuleState(func.path)
            imports = self.index.imports_of(func.path)
            self.effects[id(func)] = function_effects(func, state, imports)
            self.edges[id(func)] = self._call_edges(func)
        self.findings: list[Finding] = []
        self._seen: set[tuple[str, int, int, str, str]] = set()

    # -- call graph ----------------------------------------------------------

    def _call_edges(self, func: FunctionInfo) -> list[FunctionInfo]:
        edges: list[FunctionInfo] = []
        seen: set[int] = set()
        for node in _own_nodes(func.node):
            if not isinstance(node, ast.Call):
                continue
            name = _terminal(node.func)
            if name is None:
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and name in _GENERIC_ATTR_CALLS
            ):
                continue
            for callee in self._resolve(name):
                if id(callee) not in seen and callee is not func:
                    seen.add(id(callee))
                    edges.append(callee)
        return edges

    def _resolve(self, name: str) -> list[FunctionInfo]:
        if self.index.is_class(name):
            return [
                init
                for init in self.index.resolve_function("__init__")
                if init.class_name == name
            ]
        return self.index.resolve_function(name)

    # -- reachability --------------------------------------------------------

    def _worker_roots(self) -> list[tuple[FunctionInfo, str]]:
        roots: list[tuple[FunctionInfo, str]] = []
        for func in self.index.all_functions:
            node = func.node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if _terminal(target) in creg.WORKER_DECORATORS:
                        roots.append(
                            (func, f"task `{func.name}` registered for the "
                                   "worker pool")
                        )
                        break
        for func in self.index.all_functions:
            for node in _own_nodes(func.node):
                if not isinstance(node, ast.Call):
                    continue
                targets: list[ast.expr] = []
                how = ""
                if _is_pool_dispatch(node) and node.args:
                    targets = [node.args[0]]
                    how = f"dispatched by `{func.name}` via .{node.func.attr}"
                elif (
                    isinstance(node.func, (ast.Name, ast.Attribute))
                    and _terminal(node.func) in creg.PROCESS_CLASSES
                ):
                    targets = [
                        kw.value for kw in node.keywords if kw.arg == "target"
                    ]
                    how = f"Process target in `{func.name}`"
                for target in targets:
                    name = _terminal(target)
                    if name is None:
                        continue
                    for callee in self._resolve(name):
                        roots.append((callee, how))
        return roots

    def _parent_roots(self) -> list[tuple[FunctionInfo, str]]:
        roots: list[tuple[FunctionInfo, str]] = []
        for func in self.index.all_functions:
            if func.name == "<module>":
                roots.append((func, "module import"))
                continue
            for node in _own_nodes(func.node):
                if isinstance(node, ast.Call) and (
                    _is_pool_dispatch(node)
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
        for func in self.index.all_functions:
            for node in _own_nodes(func.node):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                if _terminal(node.func) not in creg.ASYNC_TASK_SPAWNERS:
                    continue
                target = node.args[0]
                if isinstance(target, ast.Call):
                    target = target.func
                name = _terminal(target)
                if name is None:
                    continue
                for callee in self._resolve(name):
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

    # -- emission ------------------------------------------------------------

    def _emit(
        self, func: FunctionInfo, node: ast.AST, rule: str, message: str
    ) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        key = (func.path, line, col, rule, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                rule=rule,
                name=_CONC_NAMES[rule],
                path=func.path,
                line=line,
                col=col,
                message=message,
                hint=_CONC_HINTS[rule],
            )
        )

    def run(self) -> list[Finding]:
        worker = self._reach(self._worker_roots())
        parent = self._reach(self._parent_roots())
        for func in self.index.all_functions:
            effects = self.effects[id(func)]
            state = self.states.get(func.path) or ModuleState(func.path)
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
        return self.findings

    def _rule_301(
        self, func: FunctionInfo, effects: FunctionEffects, why: str
    ) -> None:
        seen: set[str] = set()
        for effect in effects.rng:
            if effect.subject in seen:
                continue
            seen.add(effect.subject)
            self._emit(
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
            self._emit(
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
            self._emit(
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
            self._emit(
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
        for node in _own_nodes(func.node):
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
            elif _is_pool_dispatch(node):
                boundary = f".{node.func.attr}"
                payloads = [("argument", arg) for arg in node.args[1:]] + [
                    (f"argument `{kw.arg}`", kw.value)
                    for kw in node.keywords
                    if kw.arg and kw.arg not in creg.BOUNDARY_CONTROL_KWARGS
                ]
            elif (
                _terminal(node.func) in creg.PROCESS_CLASSES
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
                    rendered = ast.unparse(expr)
                    if len(rendered) > _MAX_EXPR:
                        rendered = rendered[: _MAX_EXPR - 1] + "…"
                    self._emit(
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
            name = _terminal(expr.func)
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
                for callee in self._resolve(name):
                    summary = self.program.summary_of(callee)
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
            self._emit(
                func,
                effect.node,
                RP305,
                f"{effect.detail} in `{func.name}` — output order depends "
                "on OS scheduling, not input order",
            )


def analyze_concurrency(
    modules: "list[tuple[str, str, ast.Module, list[str]]]",
    program: ProgramAnalysis,
) -> list[Finding]:
    """Run the fork-safety pass over parsed modules, reusing the solved
    flow analysis (its index and taint summaries).  Returns findings
    without fingerprints — the engine attaches those."""
    return ConcurrencyAnalysis(modules, program).run()
