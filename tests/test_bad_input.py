"""Bad input files through the CLI, at toy sizes, in three slices:

- instance lines: one field of a valid instance JSONL line is mutated (a
  wrong type, NaN or inf, a negative value, 2**63, 10**20 or 10**400, a
  missing key or element) or the line is cut short, and every command that
  reads a dataset runs on it;
- weight files: one header field is set to one of the same values, the
  header length re-encoded, or one float32 block value is set to NaN, inf
  or 1e38, and ``solve`` and ``train --resume`` run on the file;
- ``.sudoku`` lines: one character is replaced, or the line is cut short,
  and every command that reads a dataset runs on it with ``--format sudoku``;
- GSET files: one field or character of a small valid file is replaced, or
  the file is cut short, and ``load_gset`` reads it and, when it loads,
  ``build_maxcut`` poses it;
- ``generate`` flags: one flag that a problem reads is set to a value of
  the same kinds as the instance fields', or left out.

Each run exits with a documented code (a GSET file, which no command reads,
raises a documented error class), raises nothing else and reports no NaN.
A size is drawn only from values that fail before allocating: at most 64,
or at least 2**62. The examples are the suite's fixed hypothesis profile
(``conftest``)."""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import full_sudoku_grid
from csprefine import cli
from csprefine.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from csprefine.csp import CspError, build_maxcut
from csprefine.data import DataError, load_gset, load_weights, save_weights
from csprefine.model import ModelConfig, init_weights, param_shapes
from csprefine.solve import instance_cut_value

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


def _set(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``
    (deleted for MISSING)."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutated(path, value) -> str:
    """BASE as one JSON line with the field at ``path`` set to ``value``
    (deleted for MISSING); NaN and inf are written as JSON allows them."""
    return json.dumps(_set(BASE, path, value))


def _no_constant(name):
    raise AssertionError(f"a report holds {name}")


def check_runs(commands: dict[str, list[str]]) -> dict[str, int]:
    """Each command through ``main``; its exit code by name, after the
    checks on its output."""
    codes = {}
    for name, argv in commands.items():
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


def _commands(tmp: Path, dataset: Path, m: int, fmt: str) -> dict[str, list[str]]:
    """Every command that reads ``dataset``, of domain size ``m``, in ``fmt``."""
    weights = {}
    for ape, rpe in (("none", "masked"), ("multi", "learned")):
        weights[ape] = tmp / f"{ape}.bin"
        cfg = ModelConfig(layers=1, heads=1, d_model=4, ape_mode=ape, rpe_mode=rpe, ffn_mult=1)
        save_weights(init_weights(cfg, m, np.random.default_rng(0)), weights[ape])
    data = ["--dataset", str(dataset), "--format", fmt]
    return {
        "solve-masked": ["solve", "--weights", str(weights["none"]), *data, "--iters", "2"],
        "solve-multi": ["solve", "--weights", str(weights["multi"]), *data, "--iters", "2",
                        "--pool", "2"],
        "train": ["train", *data, "--out", str(tmp / "model.bin"), "--epochs", "1",
                  "--layers", "1", "--heads", "1", "--d-model", "4", "--ape", "multi"],
        "greedy": ["baseline", "--kind", "greedy", *data],
        "direct-sgd": ["baseline", "--kind", "direct-sgd", *data, "--steps", "3"],
    }


def check_dataset(text: bytes, fmt: str, m: int) -> dict[str, int]:
    """Each command on a dataset file that holds ``text``; :func:`check_runs`."""
    with tempfile.TemporaryDirectory() as tmp:
        dataset = Path(tmp, "set.txt")
        dataset.write_bytes(text)
        return check_runs(_commands(Path(tmp), dataset, m, fmt))


def check_every_command(line: str) -> dict[str, int]:
    """Each command on a one-line instance dataset holding ``line``."""
    return check_dataset(line.encode() + b"\n", "jsonl", BASE["m"])


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


# ---------------------------------------------------------------------------
# weight files

# every optional tensor, and a positional table that BASE's index tuples feed
WEIGHT_CONFIG = ModelConfig(layers=1, heads=1, d_model=4, ape_mode="multi", rpe_mode="learned",
                            ffn_mult=1)
TENSORS = sorted(param_shapes(WEIGHT_CONFIG, BASE["m"]))
HEADER_PATHS = ([("config", f.name) for f in dataclasses.fields(ModelConfig)]
                + [("domain_size",), ("dtype",)] + [("tensors", name) for name in TENSORS])


@functools.cache
def weight_file() -> bytes:
    """A valid float32 weight file of WEIGHT_CONFIG for BASE's domain."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "w.bin")
        save_weights(init_weights(WEIGHT_CONFIG, BASE["m"], np.random.default_rng(0)), path)
        return path.read_bytes()


def _split(blob: bytes) -> tuple[dict, bytes]:
    """The JSON header of a weight file, and the blocks after it."""
    (hlen,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12:12 + hlen]), blob[12 + hlen:]


def mutated_header(path, value) -> bytes:
    """The weight file with the header field at ``path`` set to ``value``."""
    header, blocks = _split(weight_file())
    text = json.dumps(_set(header, path, value)).encode()
    return weight_file()[:8] + struct.pack("<I", len(text)) + text + blocks


def mutated_block(name: str, value: float) -> bytes:
    """The weight file with the first value of tensor ``name`` set to ``value``."""
    blob = weight_file()
    header, blocks = _split(blob)
    at = len(blob) - len(blocks) + 4 * sum(math.prod(header["tensors"][k]) for k in TENSORS
                                           if k < name)
    return blob[:at] + struct.pack("<f", value) + blob[at + 4:]


def check_weights(blob: bytes) -> dict[str, int]:
    """``solve`` and ``train --resume`` from a weight file that holds
    ``blob``, on BASE; :func:`check_runs`."""
    with tempfile.TemporaryDirectory() as tmp:
        dataset, weights = Path(tmp, "set.jsonl"), Path(tmp, "w.bin")
        dataset.write_text(json.dumps(BASE) + "\n")
        weights.write_bytes(blob)
        data = ["--dataset", str(dataset)]
        return check_runs({
            "solve": ["solve", "--weights", str(weights), *data, "--iters", "2", "--pool", "2"],
            "train-resume": ["train", "--resume", str(weights), *data,
                             "--out", str(Path(tmp, "model.bin")), "--epochs", "1"],
        })


def test_the_base_weights_run_everywhere():
    assert set(check_weights(weight_file()).values()) == {EXIT_OK}


def test_the_weight_mutations_change_only_what_they_name(tmp_path):
    path = tmp_path / "w.bin"
    path.write_bytes(weight_file())
    base = load_weights(path)
    path.write_bytes(mutated_header(("config", "tau"), 0.25))
    assert load_weights(path).config == dataclasses.replace(WEIGHT_CONFIG, tau=0.25)
    for name in TENSORS:
        path.write_bytes(mutated_block(name, 1e38))
        got = load_weights(path)
        for key in TENSORS:
            want = base[key].data.copy()
            if key == name:
                want.flat[0] = 1e38
            assert np.array_equal(got[key].data, want), (name, key)


# a 400-digit temperature loaded, and forward's 1/tau then raised an
# OverflowError
@example(path=("config", "tau"), value=10**400)
@given(path=st.sampled_from(HEADER_PATHS), value=st.sampled_from(VALUES))
def test_a_mutated_weight_header_exits_as_documented(path, value):
    check_weights(mutated_header(path, value))


# 1e38 in alpha overflowed layer_norm's variance: a RuntimeWarning out of solve
@example(name="alpha", value=1e38)
@given(name=st.sampled_from(TENSORS),
       value=st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e38]))
def test_a_weight_value_out_of_range_exits_as_documented(name, value):
    check_weights(mutated_block(name, value))


# ---------------------------------------------------------------------------
# .sudoku lines

# a puzzle with blanks written both ways
SUDOKU = "".join("0" if i % 3 == 0 else "." if i % 7 == 0 else str(d)
                 for i, d in enumerate(full_sudoku_grid())).encode()
# digits, letters, whitespace, NUL, a BOM, Unicode digits, a byte that is
# not UTF-8, two characters and none
CHARS = [b"0", b".", b"9", b"a", b"x", b" ", b"\t", b"\r", b"\n", b"\x00", "\ufeff".encode(),
         "\u0663".encode(), "\uff13".encode(), b"\xff", b"-1", b""]


def check_sudoku(line: bytes) -> dict[str, int]:
    """Each command on a one-line ``--format sudoku`` dataset holding ``line``."""
    return check_dataset(line + b"\n", "sudoku", 9)


def test_the_base_puzzle_runs_everywhere():
    assert set(check_sudoku(SUDOKU).values()) == {EXIT_OK}


@given(at=st.integers(0, len(SUDOKU) - 1), char=st.sampled_from(CHARS))
def test_a_puzzle_with_a_character_replaced_exits_as_documented(at, char):
    check_sudoku(SUDOKU[:at] + char + SUDOKU[at + 1:])


@given(cut=st.integers(1, len(SUDOKU) - 1))
def test_a_truncated_puzzle_is_a_bad_line(cut):
    assert set(check_sudoku(SUDOKU[:cut]).values()) == {EXIT_IO}


# ---------------------------------------------------------------------------
# GSET files

# negative, fractional and integer weights, and a vertex (4) past the edges'
GSET = b"5 4\n1 2 1\n2 3 -1\n3 4 2.5\n1 4 3\n"
FIELDS = [m.span() for m in re.finditer(rb"\S+", GSET)]
# VALUES as text, a size only at most 64 or at least 2**62; b"" deletes the field
TEXT_VALUES = [b"x", b"true", b"1.5", b"nan", b"inf", b"-inf", b"-1", b"0", b"1", b"2", b"64",
               str(2**62).encode(), str(2**63).encode(), str(10**20).encode(),
               str(10**400).encode(), b"1 2", b""]


def check_gset(blob: bytes) -> str:
    """``load_gset`` on a file that holds ``blob`` and, when it loads,
    ``build_maxcut`` on the graph: "loaded", "bad file" (a DataError that
    names the file) or "bad instance" (a CspError). Any other exception
    fails the test; a posed instance cuts to a finite value."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "g.gset")
        path.write_bytes(blob)
        try:
            graph = load_gset(path)
        except DataError as exc:
            assert str(exc).startswith(str(path)), exc
            return "bad file"
    try:
        inst = build_maxcut(graph.n, graph.edges)
    except CspError:
        return "bad instance"
    assert all(math.isfinite(w) for _, _, w in graph.edges)
    assert np.isfinite(instance_cut_value(inst, np.arange(inst.n)[None] % 2)).all()
    return "loaded"


def test_the_base_gset_file_loads():
    assert check_gset(GSET) == "loaded"


def test_the_gset_fields_are_the_files_words():
    assert [GSET[lo:hi] for lo, hi in FIELDS] == GSET.split()


# a header of 2**62 vertices made build_maxcut enumerate them all
@example(field=0, value=str(2**62).encode())
@given(field=st.integers(0, len(FIELDS) - 1), value=st.sampled_from(TEXT_VALUES))
def test_a_gset_file_with_a_field_replaced_exits_as_documented(field, value):
    lo, hi = FIELDS[field]
    check_gset(GSET[:lo] + value + GSET[hi:])


# a byte that is not UTF-8 escaped as a UnicodeDecodeError
@example(at=GSET.index(b"2.5"), char=b"\xff")
@given(at=st.integers(0, len(GSET) - 1), char=st.sampled_from(CHARS))
def test_a_gset_file_with_a_character_replaced_exits_as_documented(at, char):
    check_gset(GSET[:at] + char + GSET[at + 1:])


@given(cut=st.integers(0, len(GSET) - 1))
def test_a_truncated_gset_file_exits_as_documented(cut):
    check_gset(GSET[:cut])


# ---------------------------------------------------------------------------
# generate flags

# a small valid run of each problem
GENERATE = {"coloring": ["--n", "5"], "maxcut": ["--n", "5"],
            "nurse": ["--days", "1", "--shifts", "1", "--per-shift", "1", "--nurses", "2"]}
# each problem's flags that take a value: a switch takes none
PROBLEM_FLAGS = [(problem, "--" + flag.replace("_", "-"))
                 for problem, (_, reads) in cli._PROBLEMS.items()
                 for flag in ["count", "seed", *reads] if reads.get(flag) is not False]


def check_generate(problem: str, flag: str, value) -> int:
    """``generate --problem problem`` with ``flag`` set to ``value`` (left
    out for MISSING); :func:`check_runs`, or argparse's usage exit. Every
    instance line and manifest record written parses with no NaN."""
    argv = ["generate", "--problem", problem, "--count", "1", *GENERATE[problem]]
    if flag in argv:
        at = argv.index(flag)
        del argv[at : at + 2]
    if value is not MISSING:
        argv.append(f"{flag}={value.decode()}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "ds")
        try:
            rc = check_runs({"generate": argv + ["--out", str(out)]})["generate"]
        except SystemExit as exc:  # argparse refuses the value
            assert exc.code == EXIT_USAGE
            return EXIT_USAGE
        assert out.exists() == (rc == EXIT_OK)
        if rc == EXIT_OK:
            for row in (out / "instances.jsonl").read_text().splitlines():
                json.loads(row, parse_constant=_no_constant)
            for row in (out / "manifest.txt").read_text().splitlines():
                key, text = row.split("=", 1)
                if key == "params" or key.startswith("instance."):
                    json.loads(text, parse_constant=_no_constant)
    return rc


def test_the_base_generate_runs_exit_0():
    assert {check_generate(p, "--seed", MISSING) for p in GENERATE} == {EXIT_OK}


# --n 10**20 escaped as a ValueError out of np.triu_indices or an
# OverflowError out of the Barabasi-Albert degree list
@example(problem_flag=("coloring", "--n"), value=str(10**20).encode())
@given(problem_flag=st.sampled_from(PROBLEM_FLAGS),
       value=st.sampled_from(TEXT_VALUES + [MISSING]))
def test_a_generate_flag_exits_as_documented(problem_flag, value):
    problem, flag = problem_flag
    # a count is real work: at most 2
    assume(flag != "--count" or value is MISSING or not value.isdigit() or int(value) <= 2)
    check_generate(problem, flag, value)
