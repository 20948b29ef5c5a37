"""The taint family's driver: reporting and RP201–RP204.

``analyze_program`` solves the per-function taint summaries over the
shared program (:mod:`repro.lint.program`), then runs a reporting pass
that emits findings wherever *concretely* secret values reach sinks —
including call sites whose taint disappears into a helper that leaks
several hops later.

A separate structural scan flags secret-named fields of ``@dataclass``
definitions whose generated ``__repr__`` would render them (the
``repr(key_pair)``-in-a-traceback leak that no expression-level
analysis can see), unless the field or class opts out of repr or the
class installs a redacted one.
"""

from __future__ import annotations

import ast

from repro.lint.flow import registry as reg
from repro.lint.flow.transfer import RP201, FunctionTransfer, Summary
from repro.lint.program import FunctionInfo, Program
from repro.lint.rules.base import terminal_name


def _callee(node: ast.expr | None) -> str | None:
    """Terminal name of a decorator or call: ``@dataclass(...)`` -> "dataclass"."""
    return terminal_name(node.func if isinstance(node, ast.Call) else node)


def _repr_false(node: ast.expr | None) -> bool:
    """Whether ``node`` is a call passing ``repr=False``."""
    return isinstance(node, ast.Call) and any(
        kw.arg == "repr"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is False
        for kw in node.keywords
    )


def _check_dataclass_reprs(program: Program, pseudo: FunctionInfo) -> None:
    for node in ast.walk(pseudo.node):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [(_callee(dec), dec) for dec in node.decorator_list]
        if not any(name == "dataclass" for name, _ in decorators):
            continue
        # `@dataclass(repr=False)` or the repro.crypto `@redacted_repr`.
        repr_suppressed = any(
            (name == "dataclass" and _repr_false(dec)) or name == "redacted_repr"
            for name, dec in decorators
        )
        defines_repr = any(
            (isinstance(item, ast.FunctionDef) and item.name == "__repr__")
            or (
                isinstance(item, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__repr__"
                    for t in item.targets
                )
            )
            for item in node.body
        )
        if defines_repr:
            continue
        for item in node.body:
            if not isinstance(item, ast.AnnAssign) or not isinstance(
                item.target, ast.Name
            ):
                continue
            field_name = item.target.id
            if not reg.is_secret_name(field_name):
                continue
            if repr_suppressed or (
                _callee(item.value) == "field" and _repr_false(item.value)
            ):
                continue
            program.emit(
                pseudo,
                item,
                RP201,
                f"secret field `{field_name}` of dataclass `{node.name}` is "
                "rendered by the generated __repr__",
            )


def analyze_program(program: Program) -> None:
    """Run the interprocedural taint analysis, emitting RP2xx findings
    into ``program``."""
    program.solve(FunctionTransfer, Summary()).report()
    for pseudo in program.functions:
        if pseudo.name == "<module>":
            _check_dataclass_reprs(program, pseudo)
