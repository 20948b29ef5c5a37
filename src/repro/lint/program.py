"""The whole-program core shared by the RP2xx and RP4xx families.

The taint analysis (:mod:`repro.lint.flow`) and the typestate pass
(:mod:`repro.lint.proto`) each keep only a domain (a lattice with its
expression and call semantics) and their rules.  What they share lives
here, once:

* :class:`Program` indexes every function, class and import of the
  analyzed tree.  Module top-level code is indexed as a parameterless
  ``<module>`` pseudo-function, so scripts under ``examples/`` and
  ``benchmarks/`` are covered too.
* :meth:`Program.bind_call` resolves a call site to its candidate
  functions and binds the arguments to parameter indices.
* :meth:`Program.solve` iterates one family's per-function summaries
  to a fixpoint.
* :meth:`Program.emit` is the one finding sink: scoped by the rule,
  deduplicated by ``(path, line, col, rule, message)``.
* :class:`Walker` is the one statement walker, after Kildall's monotone
  framework (one iterative walker, one lattice per analysis).  It owns
  the control flow: ``return``, ``raise``, ``break`` and ``continue``
  end the path; ``if`` and ``try`` merge only the branches that
  survive; a break joins the state after its loop and a continue the
  state at the loop head; each ``except`` handler runs on a copy; a
  loop body runs twice, then merges with the state from before the
  loop.  It also destructures assignment targets and scopes
  comprehensions.
  A family subclasses it with its domain; a new whole-program family
  plugs in the same way.

The index is deliberately *name-based*: Python's dynamism makes a sound
points-to analysis impossible without types, so a call
``obj.refresh(...)`` resolves to every function named ``refresh``
anywhere in the analyzed tree, and their summaries are joined.  That is
conservative in the direction a security lint wants — a flow is
reported if *any* candidate would violate a rule — and cheap enough to
run on every lint invocation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Sequence, TypeVar

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, terminal_name

# Summaries grow monotonically over finite lattices, so the fixpoint
# terminates; in practice two or three passes suffice for the tree's
# call-chain depth.  The cap only bounds a pathological tree.
_MAX_FIXPOINT_PASSES = 12
# Name-based resolution joins at most this many same-named candidates.
_MAX_CANDIDATES = 8
_MAX_DESC = 90

S = TypeVar("S")
T = TypeVar("T")
V = TypeVar("V")


@dataclass
class ParsedModule:
    """One file, parsed once and shared by every analysis phase."""

    path: str
    package_path: str
    tree: ast.Module
    lines: list[str]


@dataclass
class FunctionInfo:
    """One function or method definition, ready for transfer analysis."""

    name: str
    path: str  # reported path of the defining module
    package_path: str  # package-relative path ("" outside the package)
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Module (pseudo)
    params: list[str] = field(default_factory=list)
    is_method: bool = False  # first parameter is self/cls

    @property
    def top_dir(self) -> str:
        if "/" in self.package_path:
            return self.package_path.split("/", 1)[0]
        return ""


def clip(text: str, limit: int = _MAX_DESC) -> str:
    return text if len(text) <= limit else text[: limit - 1] + "…"


def own_nodes(root: ast.AST):
    """The nodes belonging to *this* function (or module top level):
    in source order, never descending into nested def/class bodies —
    those are indexed as their own functions.  Decorator expressions of
    a skipped def still belong to the enclosing scope (they execute
    there)."""
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in child.decorator_list:
                yield dec
                yield from own_nodes(dec)
            continue
        if isinstance(child, ast.ClassDef):
            # Class bodies execute at definition time in this scope,
            # but their method bodies do not.
            yield from own_nodes(child)
            continue
        yield child
        yield from own_nodes(child)


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    """name-as-bound-in-module -> module it came from."""
    origins: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                origins[alias.asname or alias.name.split(".", 1)[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: in-tree by construction
                continue
            for alias in node.names:
                origins[alias.asname or alias.name] = node.module or ""
    return origins


def _is_staticmethod(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(
        terminal_name(dec.func if isinstance(dec, ast.Call) else dec) == "staticmethod"
        for dec in node.decorator_list
    )


class Summaries(Generic[S]):
    """One family's per-function summaries, solved over a program.

    ``transfer(func, summaries, report)`` builds the analysis of one
    function body; its ``run()`` returns the function's summary and, on
    the reporting pass, also emits findings.
    """

    def __init__(
        self,
        program: Program,
        transfer: Callable[[FunctionInfo, Summaries[S], bool], Any],
        default: S,
    ) -> None:
        self.program = program
        self.transfer = transfer
        self.default = default
        self.table: dict[int, S] = {}

    def of(self, func: FunctionInfo) -> S:
        return self.table.get(id(func), self.default)

    def report(self) -> None:
        """Rerun every transfer against the solved table, emitting."""
        for func in self.program.functions:
            self.transfer(func, self, True).run()


class Program:
    """The analyzed tree: functions, classes and imports, indexed by
    name, plus the finding sink every family reports through."""

    def __init__(self, modules: list[ParsedModule]) -> None:
        self.functions: list[FunctionInfo] = []
        self.imports: dict[str, dict[str, str]] = {}  # keyed by module path
        self._by_name: dict[str, list[FunctionInfo]] = {}
        self._classes: set[str] = set()
        self._found: dict[Finding, None] = {}
        for module in modules:
            self.imports[module.path] = _collect_imports(module.tree)
            self._walk(module, module.tree, class_name=None)
            self.functions.append(
                FunctionInfo("<module>", module.path, module.package_path, module.tree)
            )

    def _walk(self, module: ParsedModule, node: ast.AST, class_name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [a.arg for a in [*args.posonlyargs, *args.args]]
                info = FunctionInfo(
                    name=child.name,
                    path=module.path,
                    package_path=module.package_path,
                    node=child,
                    params=params,
                    is_method=(
                        class_name is not None
                        and not _is_staticmethod(child)
                        and bool(params)
                    ),
                )
                self._by_name.setdefault(child.name, []).append(info)
                self.functions.append(info)
                # Nested defs are analyzed too (closures are opaque to
                # them, which under-taints at worst one level).
                self._walk(module, child, class_name=None)
            elif isinstance(child, ast.ClassDef):
                self._classes.add(child.name)
                self._walk(module, child, class_name=child.name)
            else:
                self._walk(module, child, class_name=class_name)

    # -- resolution ---------------------------------------------------------

    def bind_call(
        self, call: ast.Call, args: Sequence[T], receiver: T | None = None
    ) -> list[tuple[FunctionInfo, dict[int, T]]] | None:
        """The in-program functions ``call`` may run, each with its
        parameters bound.

        ``args`` holds one item per argument of ``call`` — the
        positional ones, then the keyword values — so a family binds
        whatever it tracks per argument.  A method takes ``receiver``
        (the value of ``obj`` in ``obj.m(...)``) as parameter 0 and the
        positional arguments from index 1.  A plain-name call prefers
        plain functions over methods of the same name.

        Returns None for a constructor call (a class name or ``cls``):
        the families model what a constructor builds themselves.  An
        empty list means nothing in the program matches.
        """
        func = call.func
        name = terminal_name(func)
        if name is None:
            return []
        is_attr = isinstance(func, ast.Attribute)
        if not is_attr and (name in self._classes or name == "cls"):
            return None
        candidates = self._by_name.get(name, [])
        if not is_attr:
            candidates = [c for c in candidates if not c.is_method] or candidates
        positional = args[: len(call.args)]
        keywords = list(zip(call.keywords, args[len(call.args) :]))
        bound_calls = []
        for cand in candidates[:_MAX_CANDIDATES]:
            offset = 1 if cand.is_method else 0
            bound = {offset + i: arg for i, arg in enumerate(positional)}
            if cand.is_method and receiver is not None:
                bound[0] = receiver
            index = {param: j for j, param in enumerate(cand.params)}
            for kw, arg in keywords:
                if kw.arg in index:
                    bound[index[kw.arg]] = arg
            bound_calls.append((cand, bound))
        return bound_calls

    # -- the summary fixpoint -----------------------------------------------

    def solve(
        self,
        transfer: Callable[[FunctionInfo, Summaries[S], bool], Any],
        default: S,
    ) -> Summaries[S]:
        """Iterate ``transfer``'s summaries to a fixpoint; a function
        not yet analyzed reads as ``default``."""
        summaries = Summaries(self, transfer, default)
        for _ in range(_MAX_FIXPOINT_PASSES):
            changed = False
            for func in self.functions:
                summary = transfer(func, summaries, False).run()
                if summary != summaries.table.get(id(func)):
                    summaries.table[id(func)] = summary
                    changed = True
            if not changed:
                break
        return summaries

    # -- the finding sink ---------------------------------------------------

    def emit(self, func: FunctionInfo, node: ast.AST, rule: Rule, message: str) -> None:
        if rule.applies_to(func):
            self._found.setdefault(rule.finding(func, node, message))

    @property
    def findings(self) -> list[Finding]:
        """Every finding so far, in emission order, without fingerprints
        (the engine attaches those)."""
        return list(self._found)


# -- the statement walker ---------------------------------------------------


def env_key(expr: ast.expr | None) -> str | None:
    """The environment key an expression reads or writes, if trackable."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return f"{expr.value.id}.{expr.attr}"
    return None


def arguments(call: ast.Call) -> list[ast.expr]:
    """The argument expressions of ``call``: the positional ones, then
    the keyword values, the order ``Program.bind_call`` binds."""
    return [*call.args, *(kw.value for kw in call.keywords)]


class Walker(Generic[V]):
    """Walk one function body against the current summary table.

    A family subclasses it with its domain.  It must define ``run``
    (walk ``self.func``'s body from ``self.env``, return the summary),
    ``join_values`` (None drops the key), ``eval`` (expressions and
    calls), ``on_return``, ``on_assert`` and ``store_item``
    (``container[k] = v``).  The other hooks below have a default.
    """

    # What `except E as name` binds; None leaves the name untracked.
    CAUGHT: Any = None

    def __init__(self, func: FunctionInfo, summaries: Summaries[Any], report: bool):
        self.func = func
        self.summaries = summaries
        self.program = summaries.program
        self.report = report
        self.env: dict[str, V] = {}
        # One (continues, breaks) pair per enclosing loop.
        self._loops: list[tuple[list[dict[str, V]], list[dict[str, V]]]] = []

    def _emit(self, node: ast.AST, rule: Rule, message: str) -> None:
        """Findings go out on the reporting pass only."""
        if self.report:
            self.program.emit(self.func, node, rule, message)

    # -- hooks with a default -----------------------------------------------

    def on_test(self, test: ast.expr, env: dict[str, V]) -> None:
        """Evaluate a branch or loop test."""
        self.eval(test, env)

    def refine(
        self, test: ast.expr, then_env: dict[str, V], else_env: dict[str, V]
    ) -> None:
        """What ``test`` being true or false says, on each branch."""

    def on_raise(self, stmt: ast.Raise, env: dict[str, V]) -> None:
        """A raise ends the path; by default it evaluates nothing."""

    def expr_statement(self, stmt: ast.Expr, env: dict[str, V]) -> None:
        self.eval(stmt.value, env)

    def augment(self, stmt: ast.AugAssign, env: dict[str, V]) -> None:
        """``x op= v`` rebinds ``x`` to the join of ``v`` and ``x``."""
        val = self.eval(stmt.value, env)
        self.bind(stmt.target, self.join_values(val, self.eval(stmt.target, env)), env)

    def bind_element(self, target: ast.expr, iterated: V | None, env: dict[str, V]) -> None:
        """Bind a ``for`` or comprehension target to an element of
        ``iterated``: by default, to ``iterated`` itself."""
        self.bind(target, iterated, env)

    def promote(
        self,
        stmt: ast.For | ast.AsyncFor,
        iterated: V | None,
        loop_env: dict[str, V],
        env: dict[str, V],
    ) -> None:
        """What a finished ``for`` loop says about the iterated value."""

    # -- statements ---------------------------------------------------------

    def exec_block(self, stmts: list[ast.stmt], env: dict[str, V]) -> bool:
        """Execute statements in order; True when the block ends its
        path (return/raise/break/continue on every path)."""
        for stmt in stmts:
            if self.exec_stmt(stmt, env):
                return True
        return False

    def exec_stmt(self, stmt: ast.stmt, env: dict[str, V]) -> bool:
        if isinstance(stmt, ast.Assign):
            val = self.eval(stmt.value, env)
            for target in stmt.targets:
                self.bind(target, val, env)
        elif isinstance(stmt, ast.Expr):
            self.expr_statement(stmt, env)
        elif isinstance(stmt, ast.Return):
            self.on_return(stmt, env)
            return True
        elif isinstance(stmt, ast.If):
            return self._exec_if(stmt, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target, self.eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            self.augment(stmt, env)
        elif isinstance(stmt, ast.Raise):
            self.on_raise(stmt, env)
            return True
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self._loops:
                continues, breaks = self._loops[-1]
                (breaks if isinstance(stmt, ast.Break) else continues).append(dict(env))
            return True
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterated = self.eval(stmt.iter, env)
            loop_env = dict(env)
            self.bind_element(stmt.target, iterated, loop_env)
            return self._exec_loop(stmt, env, loop_env, iterated)
        elif isinstance(stmt, ast.While):
            self.on_test(stmt.test, env)
            return self._exec_loop(stmt, env, dict(env), None)
        elif isinstance(stmt, ast.Try):
            return self._exec_try(stmt, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                val = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, val, env)
            return self.exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Assert):
            self.on_assert(stmt, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, ast.Match):
            self.eval(stmt.subject, env)
            for case in stmt.cases:
                case_env = dict(env)
                self.exec_block(case.body, case_env)
                self.merge_into(env, case_env)
        return False

    def _exec_if(self, stmt: ast.If, env: dict[str, V]) -> bool:
        # The test runs on both paths, so an unconditional effect of it
        # holds in each branch.
        self.on_test(stmt.test, env)
        then_env, else_env = dict(env), dict(env)
        self.refine(stmt.test, then_env, else_env)
        survivors = []
        for branch, body in ((then_env, stmt.body), (else_env, stmt.orelse)):
            if not self.exec_block(body, branch):
                survivors.append(branch)
        return self._merge_survivors(env, survivors)

    def _exec_try(self, stmt: ast.Try, env: dict[str, V]) -> bool:
        # A handler can start anywhere in the body: from the join of
        # the states before and after it.
        caught = dict(env)
        body_ends = self.exec_block(stmt.body, env)
        self.merge_into(caught, env)
        # The else runs only when the body finished, outside the handlers.
        body_ends = body_ends or self.exec_block(stmt.orelse, env)
        ends = [dict(env)]
        survivors = [] if body_ends else [ends[0]]
        for handler in stmt.handlers:
            handler_env = dict(caught)
            if handler.name:
                self._set(handler_env, handler.name, self.CAUGHT)
            if not self.exec_block(handler.body, handler_env):
                survivors.append(handler_env)
            ends.append(handler_env)
        if not survivors:
            # Every path ends, but the finally still runs on each.
            final_env: dict[str, V] = {}
            self._merge_survivors(final_env, ends)
            self.exec_block(stmt.finalbody, final_env)
            return True
        self._merge_survivors(env, survivors)
        self.exec_block(stmt.finalbody, env)
        return False

    def _exec_loop(
        self,
        stmt: ast.For | ast.AsyncFor | ast.While,
        env: dict[str, V],
        loop_env: dict[str, V],
        iterated: V | None,
    ) -> bool:
        breaks: list[dict[str, V]] = []
        for _ in range(2):
            continues: list[dict[str, V]] = []
            self._loops.append((continues, breaks))
            self.exec_block(stmt.body, loop_env)
            self._loops.pop()
            for branch in continues:
                self.merge_into(loop_env, branch)
        # The else runs on every normal exit: on the join of the states
        # before the loop and after its body, not on a break.
        self.merge_into(env, loop_env)
        if not isinstance(stmt, ast.While):
            self.promote(stmt, iterated, loop_env, env)
        if self.exec_block(stmt.orelse, env):
            return self._merge_survivors(env, breaks)
        for branch in breaks:
            self.merge_into(env, branch)
        return False

    # -- merging ------------------------------------------------------------

    def merge_into(self, into: dict[str, V], branch: dict[str, V]) -> None:
        for key, val in branch.items():
            if key not in into:
                into[key] = val
                continue
            joined = self.join_values(into[key], val)
            if joined is None:
                del into[key]
            else:
                into[key] = joined

    def _merge_survivors(self, env: dict[str, V], survivors: list[dict[str, V]]) -> bool:
        """``env`` becomes the join of the surviving branches; True when
        none survives."""
        if not survivors:
            return True
        env.clear()
        env.update(survivors[0])
        for branch in survivors[1:]:
            self.merge_into(env, branch)
        return False

    # -- binding ------------------------------------------------------------

    @staticmethod
    def _set(env: dict[str, V], name: str, val: V | None) -> None:
        if val is None:
            env.pop(name, None)
        else:
            env[name] = val

    def bind(self, target: ast.expr, val: V | None, env: dict[str, V]) -> None:
        if isinstance(target, ast.Name):
            self._set(env, target.id, val)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, val, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind(elt, val, env)
        elif isinstance(target, ast.Attribute):
            key = env_key(target)
            if key is not None and val is not None:
                env[key] = val
        elif isinstance(target, ast.Subscript):
            self.store_item(target, val, env)

    def comprehension_scope(
        self,
        node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
        env: dict[str, V],
    ) -> dict[str, V]:
        """The environment a comprehension's element is evaluated in."""
        scope = dict(env)
        for gen in node.generators:
            self.bind_element(gen.target, self.eval(gen.iter, scope), scope)
            for cond in gen.ifs:
                self.eval(cond, scope)
        return scope
