"""One whole-program core under ``repro.lint``.

The taint (RP2xx) and typestate (RP4xx) families share
``repro.lint.program``: one index, one call binder, one summary
fixpoint and one finding sink.  These scans keep a second copy of that
plumbing from growing back inside a family.

The tree has no fork-safety family because nothing in it forks; the
last scan keeps that premise true.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
LINT = ROOT / "src" / "repro" / "lint"
FAMILIES = ("flow", "proto")


def _trees():
    for path in sorted(LINT.rglob("*.py")):
        yield path.relative_to(LINT).as_posix(), ast.parse(path.read_text())


def test_fixpoint_cap_is_defined_once():
    owners = [
        relative
        for relative, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "_MAX_FIXPOINT_PASSES"
    ]
    assert owners == ["program.py"]


def test_no_solve_method_outside_the_core():
    owners = [
        (relative, cls.name)
        for relative, tree in _trees()
        if relative != "program.py"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name == "solve"
    ]
    assert owners == []


def test_families_import_no_private_name_from_each_other():
    found = []
    for relative, tree in _trees():
        family = relative.split("/", 1)[0]
        if family not in FAMILIES:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            parts = node.module.split(".")
            other = parts[2] if parts[:2] == ["repro", "lint"] and len(parts) > 2 else None
            if other in FAMILIES and other != family:
                found.extend(
                    (relative, f"{node.module}.{alias.name}")
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert found == []


# What a process pool or a fork looks like in source.
_PROCESS_MODULES = ("multiprocessing", "concurrent.futures")
_FORK_CALLS = ("os.fork", "os.register_at_fork")


def _process_use(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        name = ast.unparse(node.func)
        if name in _FORK_CALLS or name.rsplit(".", 1)[-1] == "Process":
            return f"{name}()"
        return None
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module:
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return None
    for name in names:
        if name.startswith(_PROCESS_MODULES) or name in _FORK_CALLS:
            return f"import {name}"
    return None


def test_nothing_forks_or_spawns_processes():
    found = [
        f"{path.relative_to(ROOT).as_posix()}:{node.lineno}: {use}"
        for top in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (use := _process_use(node))
    ]
    assert found == [], (
        "code now forks or spawns processes; restore the matching RP3xx "
        "fork-safety rule from git history: " + "; ".join(found)
    )
