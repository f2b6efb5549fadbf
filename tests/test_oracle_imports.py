"""The test oracles are importable only because the tests put their own
directory on the path: a library module that imported them would pass every
test and then fail in an installed package, so the package never may."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "descpoly"


def _oracle_imports(source: str) -> list[int]:
    # line numbers of imports that name a module or member called oracles
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        else:
            continue
        if any("oracles" in name.split(".") for name in names):
            lines.append(node.lineno)
    return lines


def test_library_never_imports_the_oracles():
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = [
        f"{path.name}:{line}" for path in paths for line in _oracle_imports(path.read_text())
    ]
    assert found == []


def test_oracle_import_guard_sees_each_import_form():
    for source in [
        "import oracles",
        "import tests.oracles as o",
        "from oracles import max_drop",
        "from tests.oracles import max_drop",
        "from . import oracles",
        "def f():\n    from oracles import max_drop",
    ]:
        assert _oracle_imports(source), source
    assert _oracle_imports("from .permutation import Permutation\nimport math") == []
