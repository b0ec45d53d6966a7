"""Source checks: every module of the package, every test module and every
benchmark module reads each name it imports, the modules that build
forward and loss graphs leave casting constants to the tensor ops, and no
module of the package rewinds a random generator."""

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


# the modules that build forward and loss graphs
GRAPH_BUILDERS = [Path(csprefine.__file__).parent / f"{m}.py"
                  for m in ("model", "penalty", "solve", "train")]


def hand_casts(source: str) -> list[int]:
    """The lines of ``source`` that call ``Tensor`` on an ``.astype``
    expression: a tensor op casts a constant to its tensor operand's dtype."""
    tree = ast.parse(source)
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.args
        and "Tensor" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "astype"
                for n in ast.walk(node.args[0]))
    )


def test_hand_casts_are_found():
    source = (
        "a = Tensor(x.astype(dt))\n"
        "b = T.Tensor((x if c else y[0]).astype(dt, copy=False))\n"
        "c = Tensor(np.zeros(3)) * x.astype(dt)\n"
    )
    assert hand_casts(source) == [1, 2]


@pytest.mark.parametrize("path", GRAPH_BUILDERS, ids=[p.name for p in GRAPH_BUILDERS])
def test_graph_builders_leave_casts_to_the_tensor_ops(path):
    assert hand_casts(path.read_text()) == []


def generator_rewinds(source: str) -> list[int]:
    """The lines of ``source`` that assign to a ``bit_generator.state``: a
    draw moves its generator forward only, so a batch is drawn afresh
    rather than replayed from a saved state."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr == "state" and getattr(node.value, "attr", None) == "bit_generator"
    )


def test_generator_rewinds_are_found():
    source = (
        "rng.bit_generator.state = saved\n"
        "a, self.rng.bit_generator.state = 1, s\n"
        "s = rng.bit_generator.state\n"
        "rng.state = s\n"
        "assert rng.bit_generator.state == s\n"
    )
    assert generator_rewinds(source) == [1, 2]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_rewinds_a_generator(path):
    assert generator_rewinds(path.read_text()) == []
