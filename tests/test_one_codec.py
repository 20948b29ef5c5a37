"""One declared codec for every wire object in ``src/``.

Every composite wire object in ``repro.core`` and ``repro.service`` gets
``to_bytes``, ``from_bytes`` and ``size_bytes`` from its
:func:`repro.encoding.codec` declaration, and the service frame codec
dispatches on one type-byte table.  These scans keep a hand-written
wire method or a per-type frame branch from growing back.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

WIRE_METHODS = {"to_bytes", "from_bytes", "size_bytes"}


def test_no_hand_written_wire_methods():
    offenders = [
        f"{path.relative_to(SRC)}:{node.name}.{item.name}"
        for package in ("core", "service")
        for path in sorted((SRC / package).glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name in WIRE_METHODS
    ]
    assert offenders == []


def test_frame_codec_has_no_per_type_branch():
    tree = ast.parse((SRC / "service" / "wire.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in (
            "encode_message", "decode_message"
        ):
            calls = {
                ast.unparse(call.func)
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            }
            assert "isinstance" not in calls, node.name
