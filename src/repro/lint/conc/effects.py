"""Per-module state tables and per-function concurrency effect summaries.

The fork-safety pass needs to know, for every function, which pieces of
*process-global* state it touches and how.  Two layers:

* :class:`ModuleState` — one scan per module: which module-level names
  hold mutable containers (or are rebound through ``global``
  statements), which hold cached stateful RNG instances, which
  class-level attributes are mutable, and which globals are covered by
  an ``os.register_at_fork`` reset hook (the sanctioned fix).
* :class:`FunctionEffects` — one scan per function: every touch of
  stdlib ``random`` module state or a cached RNG global (RP301),
  every read/write of a module- or class-level mutable (RP302), every
  first-touch lazy initialization of a process-global (RP304), and
  every nondeterministic merge of parallel results (RP305).

Effects record *where* (the AST node) and *what* (a stable description)
— whether a record becomes a finding is decided by the reachability
analysis in :mod:`repro.lint.conc.analysis`, which knows which
functions run inside worker processes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.conc import registry as creg
from repro.lint.program import FunctionInfo
from repro.lint.rules.base import name_tokens, terminal_name


# A mutable-container literal or constructor at module/class level.
_CONTAINER_CALLS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
     "WeakSet", "WeakValueDictionary", "WeakKeyDictionary"}
)


def _is_pool_receiver(expr: ast.expr) -> bool:
    base = terminal_name(expr)
    return base is not None and bool(name_tokens(base) & creg.POOL_RECEIVER_TOKENS)


def is_pool_dispatch(call: ast.Call) -> bool:
    """``pool.map(f, ...)``-shaped: a dispatch method on a pool-named
    receiver (``mapping.map`` does not count)."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in creg.POOL_DISPATCH_METHODS
        and _is_pool_receiver(func.value)
    )


def _is_mutable_value(value: ast.expr | None) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        return terminal_name(value.func) in _CONTAINER_CALLS
    return False


def _is_stateful_rng_value(value: ast.expr | None) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = terminal_name(value.func)
    return (
        name in creg.STATEFUL_RNG_FACTORIES
        and name not in creg.FORK_SAFE_RNG_FACTORIES
    )


@dataclass
class ModuleState:
    """Process-global state declared by one module."""

    path: str
    # Module-level names bound to mutable containers at the top level.
    mutable_globals: set[str] = field(default_factory=set)
    # Module-level names rebound via a `global` statement somewhere —
    # process-global state even when the value itself is immutable.
    rebindable_globals: set[str] = field(default_factory=set)
    # Module-level names caching a stateful (deterministic) RNG.
    cached_rngs: set[str] = field(default_factory=set)
    # class name -> class-level attributes bound to mutable containers.
    class_mutables: dict[str, set[str]] = field(default_factory=dict)
    # Globals reset by a registered at-fork hook (the sanctioned guard).
    fork_guarded: set[str] = field(default_factory=set)

    def is_global_state(self, name: str) -> bool:
        return name in self.mutable_globals or name in self.rebindable_globals


def _collect_global_statements(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


def _handler_reset_globals(tree: ast.Module, handler_name: str) -> set[str]:
    """Globals a named module function rebinds or clears — what an
    at-fork handler written as ``def _reset(): ...`` actually guards."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == handler_name
        ):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Global):
                    out.update(sub.names)
                elif isinstance(sub, ast.Call):
                    func = sub.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in creg.MUTATING_METHODS
                        and isinstance(func.value, ast.Name)
                    ):
                        out.add(func.value.id)
    return out


def _collect_fork_guards(tree: ast.Module) -> set[str]:
    """Names mentioned by ``os.register_at_fork(...)`` registrations.

    Two shapes are understood: a bound method of the global itself
    (``after_in_child=_CACHE.clear``) and a module-level handler
    function (``after_in_child=_reset``) whose body rebinds or clears
    globals.
    """
    guarded: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if terminal_name(node.func) not in creg.AT_FORK_REGISTRARS:
            continue
        values = [kw.value for kw in node.keywords] + list(node.args)
        for value in values:
            if isinstance(value, ast.Attribute) and isinstance(
                value.value, ast.Name
            ):
                guarded.add(value.value.id)
            elif isinstance(value, ast.Name):
                guarded |= _handler_reset_globals(tree, value.id)
            elif isinstance(value, ast.Lambda):
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Attribute) and isinstance(
                        sub.value, ast.Name
                    ):
                        guarded.add(sub.value.id)
    return guarded


def scan_module_state(path: str, tree: ast.Module) -> ModuleState:
    state = ModuleState(path=path)
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if _is_mutable_value(value):
                state.mutable_globals.add(target.id)
            if _is_stateful_rng_value(value):
                state.cached_rngs.add(target.id)
        if isinstance(node, ast.ClassDef):
            attrs: set[str] = set()
            for item in node.body:
                if isinstance(item, ast.Assign):
                    if _is_mutable_value(item.value):
                        attrs.update(
                            t.id for t in item.targets if isinstance(t, ast.Name)
                        )
                elif isinstance(item, ast.AnnAssign):
                    if _is_mutable_value(item.value) and isinstance(
                        item.target, ast.Name
                    ):
                        attrs.add(item.target.id)
            if attrs:
                state.class_mutables[node.name] = attrs
    state.rebindable_globals = _collect_global_statements(tree)
    state.fork_guarded = _collect_fork_guards(tree)
    return state


# ---------------------------------------------------------------------------
# Per-function effects.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Effect:
    """One concurrency-relevant touch of process-global state."""

    kind: str  # "rng" | "global_write" | "global_read" | "lazy_init" | "merge"
    node: ast.AST
    subject: str  # the global / rng / merge construct touched
    detail: str  # human-readable description for the finding message


@dataclass
class FunctionEffects:
    """Everything one function does to process-global state."""

    rng: list[Effect] = field(default_factory=list)
    global_writes: list[Effect] = field(default_factory=list)
    global_reads: list[Effect] = field(default_factory=list)
    lazy_inits: list[Effect] = field(default_factory=list)
    merges: list[Effect] = field(default_factory=list)


class _EffectVisitor(ast.NodeVisitor):
    """Single pass over one function body collecting raw effect records."""

    def __init__(
        self,
        func: FunctionInfo,
        state: ModuleState,
        imports: dict[str, str],
    ):
        self.func = func
        self.state = state
        self.imports = imports
        self.effects = FunctionEffects()
        self.locals: set[str] = set(func.params)
        self.global_decls: set[str] = set()
        # Locals holding a probe of a global container, e.g.
        # ``group = _CACHE.get(spec)`` -> {"group": "_CACHE"}.
        self.probe_locals: dict[str, str] = {}
        # Locals holding the result of a parallel dispatch call.
        self.dispatch_locals: set[str] = set()
        node = func.node
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                self.global_decls.update(sub.names)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if sub is not node:
                    self.locals.add(sub.name)
        self._collect_locals(node)

    # -- local-name bookkeeping ---------------------------------------------

    def _collect_locals(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                if sub.id not in self.global_decls:
                    self.locals.add(sub.id)

    def _is_module_global(self, name: str) -> bool:
        if name in self.global_decls:
            return self.state.is_global_state(name) or True
        return self.state.is_global_state(name) and name not in self.locals

    def _is_mutable_global(self, name: str) -> bool:
        return (
            name in self.state.mutable_globals
            and (name in self.global_decls or name not in self.locals)
        )

    # -- entry point ---------------------------------------------------------

    def run(self) -> FunctionEffects:
        body = getattr(self.func.node, "body", [])
        for stmt in body:
            self._scan_stmt(stmt)
        return self.effects

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If) and self._match_lazy_init(stmt):
            # The branch was recorded as a lazy init; still scan the
            # test and body for RNG/merge effects, but suppress the
            # duplicate read/write records for the same global.
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are indexed as their own functions
        self._scan_node(stmt)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan_stmt(child)
        # Statements whose children are statements nested deeper
        # (If/For/While/Try/With bodies) are walked by the loop above;
        # expression children were handled by _scan_node.

    # -- lazy-init detection (RP304) -----------------------------------------

    def _globals_in(self, node: ast.AST) -> set[str]:
        found: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if self._is_module_global(sub.id) and (
                    self.state.is_global_state(sub.id)
                ):
                    found.add(sub.id)
                probe = self.probe_locals.get(sub.id)
                if probe is not None:
                    found.add(probe)
        return found

    def _writes_in(self, stmts: list[ast.stmt]) -> dict[str, ast.AST]:
        """global name -> first write node within ``stmts``."""
        writes: dict[str, ast.AST] = {}
        for stmt in stmts:
            for sub in ast.walk(stmt):
                name_node = self._write_target(sub)
                if name_node is not None:
                    writes.setdefault(name_node[0], name_node[1])
        return writes

    def _write_target(self, sub: ast.AST) -> tuple[str, ast.AST] | None:
        """(global name, node) when ``sub`` writes a process-global."""
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                # Rebinding through a `global` declaration.
                if isinstance(target, ast.Name) and target.id in self.global_decls:
                    return target.id, sub
                # `_CACHE[key] = value` / `_CACHE.attr = value`
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    base = target.value
                    if isinstance(base, ast.Name) and self._is_mutable_global(
                        base.id
                    ):
                        return base.id, sub
                    qual = self._class_attr(target)
                    if qual is not None:
                        return qual, sub
        if isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in creg.MUTATING_METHODS
            ):
                base = func.value
                if isinstance(base, ast.Name) and self._is_mutable_global(base.id):
                    return base.id, sub
                qual = self._class_attr(base)
                if qual is not None:
                    return qual, sub
        return None

    def _class_attr(self, node: ast.AST) -> str | None:
        """``Registry.table`` / ``cls.table`` -> "Registry.table" when
        ``table`` is a mutable class-level attribute."""
        target = node
        if isinstance(target, (ast.Subscript,)):
            target = target.value
        if not isinstance(target, ast.Attribute):
            return None
        base, attr = target.value, target.attr
        if not isinstance(base, ast.Name):
            return None
        class_name = base.id
        if class_name == "cls" and self.func.class_name is not None:
            class_name = self.func.class_name
        attrs = self.state.class_mutables.get(class_name, set())
        if attr in attrs:
            return f"{class_name}.{attr}"
        return None

    def _match_lazy_init(self, stmt: ast.If) -> bool:
        """``if <probe of G is unset>: ... G <- value`` — first-touch
        initialization of process-global ``G``."""
        tested = self._globals_in(stmt.test)
        if not tested:
            return False
        writes = self._writes_in(stmt.body)
        hit = False
        for name in sorted(tested):
            plain = name.split(".", 1)[0]
            write_node = writes.get(name) or writes.get(plain)
            if write_node is None:
                continue
            if name.split(".", 1)[0] in self.state.fork_guarded or name in (
                self.state.fork_guarded
            ):
                continue  # an at-fork reset hook covers this global
            self.effects.lazy_inits.append(
                Effect(
                    "lazy_init",
                    write_node,
                    name,
                    f"first-touch initialization of process-global `{name}`",
                )
            )
            hit = True
        if hit:
            # Also scan the statement for RNG and merge effects the
            # lazy-init classification should not hide.
            self._scan_node(stmt, skip_globals=tested)
            for child in stmt.body + stmt.orelse:
                self._scan_stmt_skipping(child, tested)
            return True
        return False

    def _scan_stmt_skipping(self, stmt: ast.stmt, skip: set[str]) -> None:
        self._scan_node(stmt, skip_globals=skip)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan_stmt_skipping(child, skip)

    # -- flat per-statement scan ---------------------------------------------

    def _scan_node(self, stmt: ast.AST, skip_globals: set[str] = frozenset()) -> None:
        """Collect rng / read / write / merge effects of one statement
        (without descending into nested *statements*)."""
        nested = {
            id(child)
            for child in ast.iter_child_nodes(stmt)
            if isinstance(child, (ast.stmt,))
        }

        def walk_exprs(node: ast.AST):
            yield node
            for child in ast.iter_child_nodes(node):
                if id(child) in nested or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                yield from walk_exprs(child)

        reads_seen: set[str] = set()
        for sub in walk_exprs(stmt):
            # Track probe locals and dispatch-result locals.
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if isinstance(target, ast.Name):
                    probed = self._probe_of(sub.value)
                    if probed is not None:
                        self.probe_locals[target.id] = probed
                    if self._is_dispatch_call(sub.value):
                        self.dispatch_locals.add(target.id)
            # Writes.
            written = self._write_target(sub)
            if written is not None and written[0] not in skip_globals:
                name = written[0]
                self.effects.global_writes.append(
                    Effect(
                        "global_write",
                        sub,
                        name,
                        f"write to shared mutable `{name}`",
                    )
                )
            # RNG touches.
            self._scan_rng(sub)
            # Merge hazards.
            self._scan_merge(sub)
            # Reads (one record per global per statement scan).
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
                if (
                    self._is_mutable_global(name)
                    and name not in skip_globals
                    and name not in reads_seen
                ):
                    reads_seen.add(name)
                    self.effects.global_reads.append(
                        Effect(
                            "global_read",
                            sub,
                            name,
                            f"read of shared mutable `{name}`",
                        )
                    )

    def _probe_of(self, value: ast.expr) -> str | None:
        """``_CACHE.get(k)`` / ``_CACHE[k]`` -> "_CACHE"."""
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            base = value.func.value
            if value.func.attr == "get" and isinstance(base, ast.Name):
                if self._is_mutable_global(base.id):
                    return base.id
        if isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name):
            if self._is_mutable_global(value.value.id):
                return value.value.id
        return None

    def _scan_rng(self, sub: ast.AST) -> None:
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                base, attr = func.value.id, func.attr
                # `random.randrange(...)` on the stdlib module.
                if (
                    self.imports.get(base) == creg.RNG_MODULE
                    and base not in self.locals
                    and attr in creg.RNG_STATE_FUNCTIONS
                ):
                    self.effects.rng.append(
                        Effect(
                            "rng",
                            sub,
                            f"random.{attr}",
                            f"stdlib `random.{attr}()` uses the fork-duplicated "
                            "module-level generator",
                        )
                    )
                # Method call on a cached stateful RNG global.
                elif (
                    base in self.state.cached_rngs
                    and base not in self.locals
                    and base not in self.state.fork_guarded
                ):
                    self.effects.rng.append(
                        Effect(
                            "rng",
                            sub,
                            base,
                            f"cached RNG instance `{base}` carries "
                            "fork-duplicated generator state",
                        )
                    )
            elif isinstance(func, ast.Name):
                # `from random import randrange` then `randrange(...)`.
                if (
                    self.imports.get(func.id) == creg.RNG_MODULE
                    and func.id in creg.RNG_STATE_FUNCTIONS
                    and func.id not in self.locals
                ):
                    self.effects.rng.append(
                        Effect(
                            "rng",
                            sub,
                            f"random.{func.id}",
                            f"stdlib `random.{func.id}()` uses the "
                            "fork-duplicated module-level generator",
                        )
                    )
        # Passing a cached stateful RNG global around also counts: the
        # callee will draw from fork-duplicated state.
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if (
                sub.id in self.state.cached_rngs
                and sub.id not in self.locals
                and sub.id not in self.state.fork_guarded
            ):
                self.effects.rng.append(
                    Effect(
                        "rng",
                        sub,
                        sub.id,
                        f"cached RNG instance `{sub.id}` carries "
                        "fork-duplicated generator state",
                    )
                )

    def _is_dispatch_call(self, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        if isinstance(value.func, ast.Name):
            return value.func.id in creg.SHARD_BOUNDARY_CALLS
        return is_pool_dispatch(value)

    def _scan_merge(self, sub: ast.AST) -> None:
        if not isinstance(sub, ast.Call):
            return
        func = sub.func
        name = terminal_name(func)
        # set(results) / frozenset(results) over a dispatch result —
        # bound to a local or wrapping the dispatch call directly.
        if (
            isinstance(func, ast.Name)
            and name in ("set", "frozenset")
            and sub.args
            and (
                (
                    isinstance(sub.args[0], ast.Name)
                    and sub.args[0].id in self.dispatch_locals
                )
                or self._is_dispatch_call(sub.args[0])
            )
        ):
            self.effects.merges.append(
                Effect(
                    "merge",
                    sub,
                    name or "",
                    f"worker results merged through `{name}()` iteration "
                    "order",
                )
            )
        # imap_unordered / as_completed: completion-order result streams.
        elif name in creg.UNORDERED_DISPATCH:
            if not (
                isinstance(func, ast.Attribute) and name == "imap_unordered"
            ) or _is_pool_receiver(func.value):
                self.effects.merges.append(
                    Effect(
                        "merge",
                        sub,
                        name or "",
                        f"`{name}()` yields worker results in completion "
                        "order",
                    )
                )


def function_effects(
    func: FunctionInfo, state: ModuleState, imports: dict[str, str]
) -> FunctionEffects:
    """Collect the concurrency effect summary of one function."""
    return _EffectVisitor(func, state, imports).run()
