"""One whole-program core under ``repro.lint``.

The taint (RP2xx) and typestate (RP4xx) families share
``repro.lint.program``: one index, one call binder, one summary
fixpoint and one finding sink.  These scans keep a second copy of that
plumbing from growing back inside a family.

The tree has no fork-safety family because nothing in it forks; one
scan keeps that premise true.  The last scan keeps code that only its
own tests reach from coming back.
"""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

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


# Top-level definitions that no other file in src/, benchmarks/ or
# examples/ names, kept on purpose, each with the reason it stays.
_UNREACHED_ON_PURPOSE = {
    "analysis/costmodel.py:multiserver_cost": "a budget asserted against live op counts",
    "analysis/costmodel.py:resilient_cost": "a budget asserted against live op counts",
    "analysis/costmodel.py:broadcast_encrypt_cost": "a budget asserted against live op counts",
    "analysis/costmodel.py:tre_batch_decrypt_cost": "a budget asserted against live op counts",
    "baselines/rivest_server.py:RivestKeyReleaseServer":
        "DESIGN.md's §2.2 Rivest row claims both variants",
    "core/certification.py:verify_rekeyed_public_key": "§5.3.4 re-certification",
    "core/policylock.py:ThresholdPolicyScheme": "pinned by tests/vectors/schemes.json",
    "service/faults.py:NodeChaos": "drives the seeded chaos suite (docs/ROBUSTNESS.md)",
    "sim/gossip.py:GossipNetwork": "DESIGN.md's gossip claim, shown by tests/sim/test_gossip.py",
    "sim/network.py:FixedLatency": "the constant latency model of the simulation tests",
    "sim/scenarios.py:run_threshold_beacon":
        "the k-of-N server under member failure (DESIGN.md's threshold row)",
}


def _names(tree: ast.AST, reexport: bool) -> set[str]:
    """Every name ``tree`` mentions; a re-export's imports and strings aside."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif reexport:
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _closure(definitions: dict[str, ast.AST], roots: set[str]) -> set[str]:
    """``roots`` and every definition that a reached definition names."""
    reached = set(roots)
    pending = [name for name in definitions if name in reached]
    while pending:
        for name in _names(definitions[pending.pop()], False):
            if name in definitions and name not in reached:
                reached.add(name)
                pending.append(name)
    return reached


def _scan() -> tuple[list[str], list[str]]:
    """Definitions nothing reaches, and listed ones that are reached."""
    package = ROOT / "src" / "repro"
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
        if LINT not in path.parents
    }
    named = {path: _names(tree, path.name == "__init__.py") for path, tree in trees.items()}
    files_naming = Counter(name for names in named.values() for name in names)
    unreached, stale, defined = [], [], set()
    for path, tree in trees.items():
        if package not in path.parents:
            continue
        relative = path.relative_to(package).as_posix()
        definitions = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__")
        }
        # A definition is reached when another file names it, or when
        # module-level code or a reached definition of its own file does.
        roots = {name for name in definitions if files_naming[name] > (name in named[path])}
        roots = roots.union(*(
            _names(node, False)
            for node in tree.body
            if node not in definitions.values()
            and not (isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__")
        ))
        reached = _closure(definitions, roots)
        listed = {name for name in definitions if f"{relative}:{name}" in _UNREACHED_ON_PURPOSE}
        kept = _closure(definitions, reached | listed)
        unreached += [f"{relative}:{name}" for name in definitions if name not in kept]
        stale += [f"{relative}:{name}" for name in listed & reached]
        defined.update(f"{relative}:{name}" for name in definitions)
    return unreached, stale + sorted(_UNREACHED_ON_PURPOSE.keys() - defined)


def test_every_definition_is_reached():
    unreached, stale = _scan()
    assert unreached == [], (
        "no runtime path, benchmark or example names these; delete them "
        "with their tests, or list them above with a reason"
    )
    assert stale == [], "these are reached now, or gone; take them off the list"
