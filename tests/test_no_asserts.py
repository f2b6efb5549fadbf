"""Invariants in the library must survive ``python -O``, which strips every
``assert`` statement, so the package may raise but never assert."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "descpoly"


def test_library_has_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
