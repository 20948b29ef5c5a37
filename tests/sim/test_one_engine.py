"""One event loop and one time-server node in ``src/``.

The scenarios run on the service stack: ``repro.service.virtualtime``
owns the only event loop, and ``repro.service.node.TimeServerNode`` is
the only time-server node.  These scans keep a second engine or a
second node from growing back under ``repro.sim``.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

# What a hand-rolled engine is built from, or how one is driven.
QUEUE_MODULES = {"heapq", "sched"}
LOOP_METHODS = {"call_at", "call_later", "schedule_at", "schedule_in", "run_forever"}
LOOP_MAKERS = {"asyncio.run", "asyncio.new_event_loop", "VirtualTimeLoop"}


def _trees(root: pathlib.Path):
    for path in sorted(root.rglob("*.py")):
        yield (
            path.relative_to(SRC).as_posix(),
            ast.parse(path.read_text(), filename=str(path)),
        )


def test_one_time_server_node():
    owners = [
        relative
        for relative, tree in _trees(SRC)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "TimeServerNode"
    ]
    assert owners == ["service/node.py"]


def test_sim_imports_no_event_queue():
    imported = set()
    for relative, tree in _trees(SRC / "sim"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imported.update(
                (relative, name)
                for name in names
                if name.split(".")[0] in QUEUE_MODULES
            )
    assert imported == set()


def test_sim_defines_no_event_loop():
    """No class under ``repro.sim`` is a loop or schedules like one, and
    nothing there makes a loop: scenarios enter ``run_virtual``."""
    found = set()
    for relative, tree in _trees(SRC / "sim"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                if any("Loop" in ast.unparse(base) for base in node.bases):
                    found.add((relative, node.name))
                found.update(
                    (relative, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in LOOP_METHODS
                )
            elif isinstance(node, ast.Call):
                if ast.unparse(node.func) in LOOP_MAKERS:
                    found.add((relative, ast.unparse(node.func)))
    assert found == set()
