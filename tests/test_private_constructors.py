"""The trusted constructors skip validation, so only the two modules whose
own code builds values valid by construction may call them; everything
else, the CLI input and every verify case included, goes through the
validating constructors."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "descpoly"
PRIVATE = "_trusted"
HOMES = {"permutation.py": "Permutation", "juggling.py": "JugglingSequence"}


def _mentions(node) -> bool:
    return (
        (isinstance(node, ast.Attribute) and node.attr == PRIVATE)
        or (isinstance(node, ast.Name) and node.id == PRIVATE)
        or (isinstance(node, ast.Constant) and node.value == PRIVATE)
        or (isinstance(node, ast.alias) and node.name == PRIVATE)
    )


def test_trusted_constructors_stay_private():
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    for module, cls in HOMES.items():
        (node,) = [n for n in trees[module].body if isinstance(n, ast.ClassDef) and n.name == cls]
        assert PRIVATE in {f.name for f in node.body if isinstance(f, ast.FunctionDef)}, cls
    found = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        if name not in HOMES
        for node in ast.walk(tree)
        if _mentions(node)
    ]
    assert found == []
