"""The whole-program core shared by the RP2xx and RP4xx families.

The taint analysis (:mod:`repro.lint.flow`) and the typestate pass
(:mod:`repro.lint.proto`) each keep their lattice, their transfer logic
and their rules.  What they share lives here, once:

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
