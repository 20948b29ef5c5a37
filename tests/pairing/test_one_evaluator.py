"""One line-replay kernel and one pairing evaluator in ``src/``.

Every backend replays recorded Miller lines through
``eval_line_sequences_product`` alone (a single pairing is a one-task
product), and every ``TatePairing`` entry point evaluates through one
private method that owns the Miller values and the final
exponentiation.  These scans keep a second replay kernel or a second
evaluator from growing back.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

# What a one-pairing copy of the replay or the evaluator calls.
EVALUATOR_CALLS = {
    "miller_loop_projective",
    "evaluate_line_sequences_product",
    "_general_miller",
    "final_exponentiation",
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
