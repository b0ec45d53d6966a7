"""Source check: every module of the package, every test module and every
benchmark module reads each name it imports."""

import ast
from pathlib import Path

import pytest

import csprefine

SOURCES = sorted(Path(csprefine.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).parent.parent / "bench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, skipping
    ``__future__`` imports and the names listed in ``__all__``."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f(x: np.ndarray):\n    return b(x)\n"
    )
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", SOURCES + TESTS + BENCH,
                         ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS]
                         + [f"bench/{p.name}" for p in BENCH])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
