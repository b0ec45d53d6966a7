"""Source check: ``tensor.py`` calls ``np.add.at`` only inside ``_scatter_add``.

numpy runs ``np.add.at`` with a row index, or any index that is not one
1-D integer array, element by element in its slow general path;
``_scatter_add`` gives every row scatter the 1-D form with the same sums.
"""

import ast
from pathlib import Path

import csprefine

TENSOR = Path(csprefine.__file__).parent / "tensor.py"


def add_at_scopes(source: str) -> list[str]:
    """The qualified name of the function around each ``<x>.add.at`` in
    ``source``, in order; ``<module>`` for one outside every function."""
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "at"
                    and isinstance(child.value, ast.Attribute) and child.value.attr == "add"):
                scopes.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return scopes


def test_add_at_scopes_are_found():
    source = (
        "import numpy as np\n"
        "add_at = np.add.at\n"
        "def _scatter_add(t, i, v):\n    np.add.at(t, i, v)\n"
        "def gather(t, i, g):\n    def bwd(g):\n        numpy.add.at(t, i, g)\n    return bwd\n"
    )
    assert add_at_scopes(source) == ["<module>", "_scatter_add", "gather.bwd"]


def test_tensor_calls_add_at_only_in_scatter_add():
    assert add_at_scopes(TENSOR.read_text()) == ["_scatter_add"]
