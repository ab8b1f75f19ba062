"""Structural checks on the package source."""

import ast
from pathlib import Path

import freeprob as fp

SOURCES = sorted(Path(fp.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise real
    # exceptions instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []
