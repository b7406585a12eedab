"""Checks on the library's own source text."""

import ast
from pathlib import Path

import pptor


def test_library_has_no_assert_statements():
    """Invariants are checked by explicit exceptions: python -O strips
    assert statements, so none may guard the library's code."""
    files = sorted(Path(pptor.__file__).parent.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
