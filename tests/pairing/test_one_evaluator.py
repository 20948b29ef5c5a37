"""One line-replay kernel, one one-shot loop and one evaluator in ``src/``.

Every backend replays recorded Miller lines through
``eval_line_sequences_product`` alone (a single pairing is a one-task
product), both curve families run one-shot pairings on
``miller_loop_projective``, and every ``TatePairing`` entry point
evaluates through one private method that owns the Miller values and
the final exponentiation.  These scans keep a second replay kernel, a
divisor loop or a second evaluator from growing back.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

# What a one-pairing copy of the replay or the evaluator calls.
EVALUATOR_CALLS = {
    "miller_loop_projective",
    "evaluate_line_sequences_product",
    "final_exponentiation",
}


# The textbook divisor loop and its helpers: the oracle in
# ``tests/pairing/reference.py``.
DIVISOR_LOOP_NAMES = {
    "miller_loop_general",
    "_line_value",
    "_vertical_value",
    "_general_miller",
}


def _tree(relative: str) -> ast.Module:
    path = SRC / relative
    return ast.parse(path.read_text(), filename=str(path))


def _callee(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else ast.unparse(func)


def test_backends_define_one_replay_kernel():
    kernels = {
        item.name
        for path in sorted((SRC / "math" / "backend").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and "eval_line" in item.name
    }
    assert kernels == {"eval_line_sequences_product"}


def test_miller_has_no_one_sequence_replay():
    names = {
        node.name
        for node in _tree("pairing/miller.py").body
        if isinstance(node, ast.FunctionDef)
    }
    assert "evaluate_line_sequence" not in names
    assert "evaluate_line_sequences_product" in names


def test_tate_evaluates_in_one_method():
    callers = {
        (item.name, _callee(call))
        for node in _tree("pairing/tate.py").body
        if isinstance(node, ast.ClassDef) and node.name == "TatePairing"
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        for call in ast.walk(item)
        if isinstance(call, ast.Call) and _callee(call) in EVALUATOR_CALLS
    }
    assert {caller for caller, _ in callers} == {"_product"}


def _identifiers(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.arg):
            yield node.arg


def test_src_has_no_divisor_loop_or_auxiliary_points():
    """Both families evaluate ``f_{q,P}`` at ``phi(Q)`` itself, so no
    name in ``src/`` belongs to the divisor loop or its auxiliary
    points ``R``."""
    found = {
        f"{path.relative_to(SRC)}:{name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _identifiers(ast.parse(path.read_text()))
        if name in DIVISOR_LOOP_NAMES or "aux" in name.lower().split("_")
    }
    assert not found


def test_miller_defines_one_one_shot_loop():
    loops = {
        node.name
        for node in _tree("pairing/miller.py").body
        if isinstance(node, ast.FunctionDef) and "miller_loop" in node.name
    }
    assert loops == {"miller_loop_projective"}
