"""Bad instance lines through the CLI: one field of a valid instance JSONL
line is mutated (a wrong type, NaN or inf, a negative value, 2**63,
10**20 or 10**400, a missing key or element) or the line is cut short, and every
command that reads a dataset runs on it at toy sizes. Each run exits with
a documented code, raises nothing out of ``main`` and reports no NaN.
The examples are the suite's fixed hypothesis profile (``conftest``)."""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

from csprefine.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from csprefine.data import save_weights
from csprefine.model import ModelConfig, init_weights

# every constraint kind, a given and two-entry index tuples, so that each
# validation path has a field to mutate
BASE = {
    "n": 4, "m": 3, "mode": "satisfaction",
    "index_tuples": [[0, 0], [0, 1], [1, 0], [1, 1]],
    "fixed": [None, 1, None, None],
    "constraints": [
        {"kind": "ne", "i": 0, "k": 1, "w": 1.0},
        {"kind": "alldiff_exact", "scope": [0, 2, 3]},
        {"kind": "alldiff_atmost", "scope": [1, 2]},
        {"kind": "cardinality", "value": 0, "count": 1, "scope": [0, 1, 2, 3]},
    ],
}

MISSING = object()  # delete the key or element
VALUES = ["x", None, True, 1.5, [], {}, float("nan"), float("inf"), float("-inf"),
          -1, 2**63, 10**20, 10**400, MISSING]


def _paths(node, at=()):
    """The path of ``node`` and of everything inside it, parents first."""
    yield at
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, at + (key,))


PATHS = list(_paths(BASE))[1:]


def mutated(path, value) -> str:
    """BASE as one JSON line with the field at ``path`` set to ``value``
    (deleted for MISSING); NaN and inf are written as JSON allows them."""
    doc = copy.deepcopy(BASE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def _no_constant(name):
    raise AssertionError(f"a report holds {name}")


def _commands(tmp: Path, dataset: Path) -> dict[str, list[str]]:
    weights = {}
    for ape, rpe in (("none", "masked"), ("multi", "learned")):
        weights[ape] = tmp / f"{ape}.bin"
        cfg = ModelConfig(layers=1, heads=1, d_model=4, ape_mode=ape, rpe_mode=rpe, ffn_mult=1)
        save_weights(init_weights(cfg, BASE["m"], np.random.default_rng(0)), weights[ape])
    data = ["--dataset", str(dataset)]
    return {
        "solve-masked": ["solve", "--weights", str(weights["none"]), *data, "--iters", "2"],
        "solve-multi": ["solve", "--weights", str(weights["multi"]), *data, "--iters", "2",
                        "--pool", "2"],
        "train": ["train", *data, "--out", str(tmp / "model.bin"), "--epochs", "1",
                  "--layers", "1", "--heads", "1", "--d-model", "4", "--ape", "multi"],
        "greedy": ["baseline", "--kind", "greedy", *data],
        "direct-sgd": ["baseline", "--kind", "direct-sgd", *data, "--steps", "3"],
    }


def check_every_command(line: str) -> dict[str, int]:
    """Each command on a one-line dataset holding ``line``; its exit code
    by name, after the checks on its output."""
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        dataset = Path(tmp, "set.jsonl")
        dataset.write_text(line + "\n")
        for name, argv in _commands(Path(tmp), dataset).items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes[name] = main(argv)  # an exception out of main fails the test
            assert codes[name] in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_NUMERIC), \
                (name, err.getvalue())
            if codes[name] != EXIT_OK:
                assert err.getvalue().startswith(("error: ", "numeric failure: ")), name
            for row in out.getvalue().splitlines():
                if row.startswith("{"):
                    json.loads(row, parse_constant=_no_constant)
                else:  # the training log
                    assert not re.search(r"=-?(nan|inf)\b", row), (name, row)
    return codes


def test_the_base_line_runs_everywhere():
    assert set(check_every_command(json.dumps(BASE)).values()) == {EXIT_OK}


# an index-tuple entry outside int64 escaped as a TypeError from the
# positional table's sin
@example(path=("index_tuples", 0, 0), value=10**20)
@given(path=st.sampled_from(PATHS), value=st.sampled_from(VALUES))
def test_a_mutated_field_exits_as_documented(path, value):
    check_every_command(mutated(path, value))


@given(cut=st.integers(1, len(json.dumps(BASE)) - 1))
def test_a_truncated_line_is_a_bad_line(cut):
    codes = check_every_command(json.dumps(BASE)[:cut])
    assert set(codes.values()) == {EXIT_IO}
