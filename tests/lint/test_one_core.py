"""One whole-program core under ``repro.lint``.

The taint (RP2xx) and typestate (RP4xx) families share
``repro.lint.program``: one index, one call binder, one summary
fixpoint, one finding sink and one statement walker.  These scans keep
a second copy of that plumbing from growing back inside a family.

The tree has no fork-safety family because nothing in it forks; one
scan keeps that premise true.  The last two scans keep code that only
its own tests reach from coming back, and test harness code that no
test uses from piling up.
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


def test_one_statement_walker():
    owners = sorted(
        (node.name, relative)
        for relative, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("exec_block", "exec_stmt")
    )
    assert owners == [("exec_block", "program.py"), ("exec_stmt", "program.py")]


def _is_statement_class(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ast"
        and isinstance(getattr(ast, node.attr, None), type)
        and issubclass(getattr(ast, node.attr), ast.stmt)
    )


def test_no_domain_dispatches_on_statement_types():
    """A family's domain sees statements only through the walker's
    hooks: no ``isinstance(..., ast.If)`` inside a ``Walker`` subclass."""
    found = [
        (relative, cls.name, ast.unparse(call))
        for relative, tree in _trees()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(ast.unparse(base).startswith("Walker") for base in cls.bases)
        for call in ast.walk(cls)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "isinstance"
        and any(_is_statement_class(node) for node in ast.walk(call.args[1]))
    ]
    assert found == []


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


# Named by title, not number: ROADMAP renumbers its items.
_ANONYMITY_ITEM = "ROADMAP's \"check the paper's anonymity claim on the real wire\""

# Definitions that no other file in src/, benchmarks/ or examples/
# names, kept on purpose, each with the reason it stays: a top-level
# function or class as "module:name", a method or property as
# "module:Class.name".  Every member of a listed class is kept too.
_UNREACHED_ON_PURPOSE = {
    "analysis/costmodel.py:multiserver_cost": "a budget asserted against live op counts",
    "analysis/costmodel.py:resilient_cost": "a budget asserted against live op counts",
    "analysis/costmodel.py:broadcast_encrypt_cost": "a budget asserted against live op counts",
    "analysis/costmodel.py:tre_batch_decrypt_cost": "a budget asserted against live op counts",
    "core/certification.py:verify_rekeyed_public_key": "§5.3.4 re-certification",
    "core/policylock.py:ThresholdPolicyScheme": "pinned by tests/vectors/schemes.json",
    "baselines/rivest_server.py:RivestPublicKeyServer.release_private_key":
        "the release step of the §2.2 public-key variant that DESIGN.md's Rivest row claims",
    "baselines/rivest_server.py:RivestPublicKeyServer.extend_horizon":
        "the §2.2 public-key variant's server-side remedy for its horizon",
    "core/keys.py:UserKeyPair.from_password": "§5.1 password-derived receiver keys",
    "core/keys.py:UserKeyPair.rekey_to_server": "§5.3.4 change of time server",
    "core/certification.py:CertificateAuthority.issue": "§5.3.4 certified receiver keys",
    "core/resilient.py:ResilientTimeServer.verify_node_key":
        "the public check of a resilient update, as TimeBoundKeyUpdate.verify is of a flat one",
    "pairing/api.py:PairingGroup.point_to_bytes_compressed":
        "the compressed G1 format in docs/PROTOCOL.md",
    "pairing/api.py:PairingGroup.point_from_bytes_compressed":
        "the compressed G1 format in docs/PROTOCOL.md",
    "pairing/api.py:PairingGroup.gt_from_bytes": "the GT format in docs/PROTOCOL.md",
    "pairing/bn254.py:BN254.in_g2": "the G2 subgroup check of the Type-3 engine, next to in_g1",
    "service/virtualtime.py:_InstantSelector.select": "asyncio's event loop calls it",
    "sim/metrics.py:AnonymityLedger.view": f"the ledger's read side ({_ANONYMITY_ITEM})",
    "sim/metrics.py:AnonymityLedger.record_sender_seen": f"{_ANONYMITY_ITEM} feeds the ledger",
    "sim/metrics.py:AnonymityLedger.record_receiver_seen": f"{_ANONYMITY_ITEM} feeds the ledger",
    "sim/metrics.py:AnonymityLedger.record_plaintext_seen": f"{_ANONYMITY_ITEM} feeds the ledger",
    "sim/metrics.py:AnonymityLedger.record_release_time_seen": f"{_ANONYMITY_ITEM} feeds the ledger",
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


def _is_member(node: ast.AST) -> bool:
    """A method or property that must be named to run (no dunder)."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("__"))


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions and classes by name, and each class's
    members as ``Class.name``."""
    found = {}
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("__")):
            found[node.name] = node
            if isinstance(node, ast.ClassDef):
                found.update(
                    (f"{node.name}.{item.name}", item)
                    for item in node.body if _is_member(item)
                )
    return found


def _body_names(node: ast.AST) -> set[str]:
    """What a reached definition names; a class's members count only
    once they are reached themselves."""
    if not isinstance(node, ast.ClassDef):
        return _names(node, False)
    parts = [*node.decorator_list, *node.bases, *node.keywords,
             *(item for item in node.body if not _is_member(item))]
    return set().union(*(_names(part, False) for part in parts))


def _closure(definitions: dict[str, ast.AST], roots: set[str]) -> set[str]:
    """``roots`` and every definition that a reached definition names."""
    reached, pending = set(), list(roots)
    while pending:
        key = pending.pop()
        if key in reached:
            continue
        reached.add(key)
        names = _body_names(definitions[key])
        pending += [other for other in definitions
                    if other not in reached and other.rsplit(".", 1)[-1] in names]
    return reached


def _scan() -> tuple[list[str], list[str]]:
    """Definitions nothing reaches, and listed ones that are reached."""
    package = ROOT / "src" / "repro"
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    named = {path: _names(tree, path.name == "__init__.py") for path, tree in trees.items()}
    # The lint's registries name runtime methods as strings, so what a
    # lint file names reaches lint definitions only.
    naming = Counter(name for names in named.values() for name in names)
    runtime_naming = Counter(
        name for path, names in named.items() if LINT not in path.parents for name in names
    )
    unreached, stale, defined = [], [], set()
    for path, tree in trees.items():
        if package not in path.parents:
            continue
        relative = path.relative_to(package).as_posix()
        definitions = _definitions(tree)
        files_naming = naming if LINT in path.parents else runtime_naming
        # A definition is reached when another file names it, or when
        # module-level code or a reached definition of its own file does.
        outside = {name for name in files_naming
                   if files_naming[name] > (name in named[path])}
        outside = outside.union(*(
            _names(node, False)
            for node in tree.body
            if node not in definitions.values()
            and not (isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__")
        ))
        reached = _closure(
            definitions, {key for key in definitions if key.rsplit(".", 1)[-1] in outside}
        )
        listed = {key for key in definitions if f"{relative}:{key}" in _UNREACHED_ON_PURPOSE}
        kept = _closure(definitions, reached | listed | {
            key for key in definitions if key.split(".", 1)[0] in listed
        })
        # A member counts only when its class is kept: an unreached
        # class is reported by itself.
        unreached += [
            f"{relative}:{key}" for key in definitions
            if key not in kept and key.split(".", 1)[0] in kept | {key}
        ]
        stale += [f"{relative}:{key}" for key in listed & reached]
        defined.update(f"{relative}:{key}" for key in definitions)
    return unreached, stale + sorted(_UNREACHED_ON_PURPOSE.keys() - defined)


def test_every_definition_is_reached():
    unreached, stale = _scan()
    assert unreached == [], (
        "no runtime path, benchmark or example names these; delete them "
        "with their tests, or list them above with a reason"
    )
    assert stale == [], "these are reached now, or gone; take them off the list"


def _unused_harness_definitions() -> list[str]:
    """Top-level definitions of a ``tests/**/harness.py`` that no other
    test file names, directly or through one that is named."""
    tests = ROOT / "tests"
    named = {
        path: _names(ast.parse(path.read_text(encoding="utf-8")), False)
        for path in sorted(tests.rglob("*.py"))
    }
    unused = []
    for path in sorted(tests.rglob("harness.py")):
        definitions = {
            node.name: node
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        elsewhere = set().union(*(names for other, names in named.items() if other != path))
        reached, pending = set(), [name for name in definitions if name in elsewhere]
        while pending:
            name = pending.pop()
            if name not in reached:
                reached.add(name)
                pending += _names(definitions[name], False) & definitions.keys()
        unused += [f"{path.relative_to(ROOT).as_posix()}:{name}"
                   for name in definitions if name not in reached]
    return unused


def test_every_harness_definition_is_used():
    assert _unused_harness_definitions() == [], (
        "no test uses these harness definitions; delete them"
    )
