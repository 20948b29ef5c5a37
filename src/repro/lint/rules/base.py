"""Shared infrastructure for lint rules: context, name tokens, scoping."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.program import FunctionInfo

# Package-top-level directories that hold security-relevant code.  A
# rule lists the subset it patrols; ``None`` means the whole tree.
CRYPTO_DIRS = ("core", "crypto", "ec", "pairing", "math", "baselines")


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    path: str  # as reported in findings (posix style)
    package_path: str  # path relative to the `repro` package, "" if unknown
    tree: ast.Module
    lines: list[str]
    # Names under which the stdlib modules of interest are imported,
    # e.g. {"random": {"random"}, "hashlib": {"hashlib"}}.
    module_aliases: dict[str, set[str]] = field(default_factory=dict)
    # Names imported *from* those modules: {"random": {"randrange"}}.
    from_imports: dict[str, set[str]] = field(default_factory=dict)

    @property
    def top_dir(self) -> str:
        """First directory of the package-relative path ("core", ...)."""
        if "/" in self.package_path:
            return self.package_path.split("/", 1)[0]
        return ""

    def aliases_of(self, module: str) -> set[str]:
        return self.module_aliases.get(module, set())

    def names_from(self, module: str) -> set[str]:
        return self.from_imports.get(module, set())


def collect_imports(context: ModuleContext, modules: tuple[str, ...]) -> None:
    """Populate ``module_aliases`` / ``from_imports`` for ``modules``."""
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    context.module_aliases.setdefault(alias.name, set()).add(
                        alias.asname or alias.name
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module in modules:
                for alias in node.names:
                    context.from_imports.setdefault(node.module, set()).add(
                        alias.asname or alias.name
                    )


def terminal_name(node: ast.AST) -> str | None:
    """The identifier a human would say is being used.

    ``tag`` -> "tag"; ``self.mac_key`` -> "mac_key"; anything without a
    meaningful trailing identifier (calls, literals, subscripts) -> None.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def name_tokens(identifier: str) -> set[str]:
    """Split ``an_identifier`` into lowercase ``_``-separated tokens."""
    return {tok for tok in identifier.strip("_").lower().split("_") if tok}


def call_name(node: ast.Call) -> str | None:
    """Terminal name of the called function, e.g. ``curve.point`` -> "point"."""
    return terminal_name(node.func)


def contains_add(node: ast.AST) -> bool:
    """Whether the expression tree contains a ``+`` anywhere."""
    return any(
        isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add)
        for sub in ast.walk(node)
    )


class Rule:
    """One rule's metadata: ``id``, ``name``, ``rationale``, ``hint``
    and ``scopes``.

    A single-node rule (RP1xx) subclasses this, sets the metadata as
    class attributes and implements ``check``.  A whole-program rule
    (RP2xx–RP4xx) is a plain instance, ``Rule(id, name, rationale,
    hint)``, that its family reports through
    :meth:`repro.lint.program.Program.emit`.
    """

    id = "RP000"
    name = "base"
    rationale = ""
    hint = ""
    # Package-relative top dirs this rule patrols; None = everywhere.
    scopes: tuple[str, ...] | None = None

    def __init__(
        self,
        id: str | None = None,
        name: str = "",
        rationale: str = "",
        hint: str = "",
        scopes: tuple[str, ...] | None = None,
    ) -> None:
        if id is not None:
            self.id, self.name, self.rationale, self.hint = id, name, rationale, hint
            self.scopes = scopes

    def applies_to(self, context: ModuleContext | FunctionInfo) -> bool:
        if self.scopes is None:
            return True
        return context.top_dir in self.scopes

    def check(self, context: ModuleContext):  # pragma: no cover - interface
        raise NotImplementedError

    def finding(
        self,
        context: ModuleContext | FunctionInfo,
        node: ast.AST,
        message: str,
        hint: str = "",
    ) -> Finding:
        return Finding(
            rule=self.id,
            name=self.name,
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=hint or self.hint,
        )
