"""Data tests: graph generators, dataset generation, and every file format
round-trip."""

import hashlib
import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from csprefine.csp import Cardinality, CspInstance, NotEqual, is_feasible
from csprefine.data import (
    COLOR_DISTRIBUTIONS,
    DataError,
    DatasetManifest,
    WeightedGraph,
    gen_barabasi_albert,
    gen_coloring_dataset,
    gen_erdos_renyi,
    gen_geometric,
    gen_maxcut_dataset,
    instance_from_json,
    instance_to_json,
    load_gset,
    load_instances,
    load_sudoku,
    load_weights,
    posed_color_count,
    save_gset,
    save_instances,
    save_sudoku,
    save_weights,
)
from csprefine.model import init_weights
from csprefine.solve import greedy_coloring
from csprefine.tensor import NumericError
from conftest import sudoku_puzzle, tiny_config, toy_alldiff


def test_weighted_graph_validation():
    WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0)))
    with pytest.raises(DataError):
        WeightedGraph(3, ((1, 0, 1.0),))  # not u < v
    with pytest.raises(DataError):
        WeightedGraph(3, ((0, 3, 1.0),))
    with pytest.raises(DataError):
        WeightedGraph(3, ((0, 1, 1.0), (0, 1, 2.0)))


def test_erdos_renyi_extremes(rng):
    empty = gen_erdos_renyi(6, 0.0, rng)
    assert not empty.edges
    full = gen_erdos_renyi(6, 1.0, rng)
    assert len(full.edges) == 15
    with pytest.raises(DataError):
        gen_erdos_renyi(0, 0.5, rng)
    with pytest.raises(DataError):
        gen_erdos_renyi(5, 1.5, rng)


def test_barabasi_albert_degree_structure(rng):
    g = gen_barabasi_albert(20, 3, rng)
    # seed clique + 17 newcomers with 3 links each
    assert len(g.edges) == 3 + 17 * 3
    degrees = np.zeros(20)
    for u, v, _ in g.edges:
        degrees[u] += 1
        degrees[v] += 1
    # clique vertices start with degree 2, every newcomer brings 3 links
    assert degrees.min() >= 2
    assert degrees[3:].min() >= 3
    with pytest.raises(DataError):
        gen_barabasi_albert(3, 3, rng)


def test_geometric_radius_monotone(rng):
    sparse = gen_geometric(30, 0.05, np.random.default_rng(5))
    dense = gen_geometric(30, 0.5, np.random.default_rng(5))
    assert len(dense.edges) >= len(sparse.edges)


def test_posed_color_count_clamps():
    assert posed_color_count(2) == 3
    assert posed_color_count(6) == 5
    assert posed_color_count(40) == 10


def test_coloring_dataset_posing(rng):
    instances, manifest = gen_coloring_dataset(10, 15, seed=3)
    assert len(instances) == 10
    assert manifest.problem == "coloring"
    for inst, rec in zip(instances, manifest.per_instance):
        assert inst.m == posed_color_count(rec["k_greedy"])
        assert rec["distribution"] in COLOR_DISTRIBUTIONS
        assert len([c for c in inst.constraints]) == rec["edges"]


def test_coloring_dataset_pose_at_greedy_is_satisfiable():
    instances, _ = gen_coloring_dataset(5, 12, seed=1, pose_at_greedy=True)
    for inst in instances:
        edges = [(c.i, c.k) for c in inst.constraints]
        colors, k = greedy_coloring(inst.n, edges)
        assert k == inst.m
        assert is_feasible(inst, colors)


def test_coloring_dataset_fixed_k_filters():
    instances, _ = gen_coloring_dataset(6, 20, seed=2, fixed_k=5, pose_at_greedy=True)
    assert all(inst.m == 5 for inst in instances)


@pytest.mark.parametrize("n, fixed_k, pose_at_greedy", [
    (20, 2, False), (20, 11, False), (4, 4, False), (20, 0, True), (20, 21, True),
])
def test_coloring_dataset_rejects_a_fixed_k_posing_cannot_give(n, fixed_k, pose_at_greedy):
    # posing gives 3..max(3, min(10, n-1)), or 1..n at greedy
    with pytest.raises(DataError, match=f"fixed_k={fixed_k} cannot be posed"):
        gen_coloring_dataset(1, n, seed=0, fixed_k=fixed_k, pose_at_greedy=pose_at_greedy)


def test_coloring_dataset_gives_up_on_an_unreachable_fixed_k():
    # greedy k = 12 at n = 12 needs a complete graph, which no generator draws
    with pytest.raises(DataError, match="k=12 at n=12 in 10000 draws"):
        gen_coloring_dataset(1, 12, seed=0, fixed_k=12, pose_at_greedy=True)


def _digest(instances, manifest):
    h = hashlib.sha256()
    for inst in instances:
        h.update((instance_to_json(inst) + "\n").encode())
    h.update(manifest.to_text().encode())
    return h.hexdigest()


@pytest.mark.parametrize("make, digest", [
    (lambda: gen_coloring_dataset(64, 20, seed=11, fixed_k=5, pose_at_greedy=True),
     "3445e756a39e40882b19e22abdb8127662314b529c8f46f66761f9325196389a"),
    (lambda: gen_coloring_dataset(32, 15, seed=3),
     "7ac2c246648edd3d00b9e2ed3a2b52589a61a1077f5cc3f75eaca9d61e9b1a29"),
    (lambda: gen_maxcut_dataset(8, 100, seed=7),
     "06f51c34a4188ad8eb59f17cfcd2df11686ae0674d683304a04f456f6306888e"),
], ids=["coloring20-k5-greedy", "coloring15", "maxcut100"])
def test_generated_dataset_bytes_are_pinned(make, digest):
    # a dataset is byte-identical for a seed: instance lines, then manifest
    assert _digest(*make()) == digest


def test_maxcut_dataset(rng):
    instances, manifest = gen_maxcut_dataset(3, 10, seed=7)
    assert all(inst.mode == "maximization" for inst in instances)
    assert manifest.count == 3


def test_manifest_text_format():
    manifest = DatasetManifest("coloring", 2, 9, {"n": 4}, [{"k": 3}, {"k": 4}])
    text = manifest.to_text()
    assert "problem=coloring" in text
    assert "seed=9" in text
    assert 'instance.1={"k": 4}' in text


# ---------------------------------------------------------------------------
# Round-trips


def test_instance_json_round_trip():
    from csprefine.csp import build_maxcut, build_nurse_rostering

    for inst in [
        toy_alldiff(4),
        sudoku_puzzle(30, 0),
        build_nurse_rostering(2, 2, 1, 3),
        build_maxcut(3, [(0, 1, 2.5), (1, 2, 1.0)]),
    ]:
        back = instance_from_json(instance_to_json(inst))
        assert back == inst


def test_instances_file_round_trip(tmp_path):
    instances = [toy_alldiff(3), toy_alldiff(5)]
    path = tmp_path / "insts.jsonl"
    save_instances(instances, path)
    assert load_instances(path) == instances


def test_numpy_numbers_round_trip_through_a_file(tmp_path):
    # CspInstance takes numpy integers and reals; the file holds plain JSON numbers
    inst = CspInstance(n=2, m=np.int64(3), index_tuples=((np.int64(0),), (np.int64(1),)),
                       constraints=(NotEqual(np.int64(0), 1, weight=np.float32(2.5)),
                                    Cardinality(np.int8(1), np.int32(1), (np.int64(0), 1))),
                       fixed=(None, np.int64(2)))
    path = tmp_path / "numpy.jsonl"
    save_instances([inst], path)
    assert load_instances(path) == [inst]


def test_load_instances_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(instance_to_json(toy_alldiff(3)) + "\n{broken\n")
    with pytest.raises(DataError, match=":2"):
        load_instances(path)


def test_sudoku_file_round_trip(tmp_path):
    instances = [sudoku_puzzle(20, 0), sudoku_puzzle(50, 1)]
    path = tmp_path / "puzzles.sudoku"
    save_sudoku(instances, path)
    loaded = load_sudoku(path)
    assert [i.fixed for i in loaded] == [i.fixed for i in instances]


def test_load_sudoku_accepts_dots(tmp_path):
    line = "1" + "." * 80
    path = tmp_path / "p.sudoku"
    path.write_text(line + "\n")
    inst = load_sudoku(path)[0]
    assert inst.fixed[0] == 0
    assert all(v is None for v in inst.fixed[1:])


def test_load_sudoku_rejects_bad_lines(tmp_path):
    path = tmp_path / "p.sudoku"
    path.write_text("123\n")
    with pytest.raises(DataError, match="81"):
        load_sudoku(path)
    path.write_text("x" * 81 + "\n")
    with pytest.raises(DataError):
        load_sudoku(path)


def test_gset_round_trip_bit_exact(tmp_path):
    graph = WeightedGraph(5, ((0, 1, 1.0), (0, 4, -2.0), (2, 3, 7.0)))
    path = tmp_path / "g.gset"
    save_gset(graph, path)
    first = path.read_bytes()
    back = load_gset(path)
    assert back == graph
    save_gset(back, path)
    assert path.read_bytes() == first


def test_load_gset_errors(tmp_path):
    path = tmp_path / "g.gset"
    path.write_text("3\n")
    with pytest.raises(DataError, match="header"):
        load_gset(path)
    path.write_text("3 2\n1 2 1\n")
    with pytest.raises(DataError, match="declares"):
        load_gset(path)
    path.write_text("3 1\n1 2\n")
    with pytest.raises(DataError):
        load_gset(path)
    # a field that is not a number names its line
    for text, line in [("3 x\n", ":1:"), ("3 1\n1 2 abc\n", ":2:"), ("3 1\n1.5 2 1\n", ":2:")]:
        path.write_text(text)
        with pytest.raises(DataError, match=line):
            load_gset(path)
    # an id outside 1..n, a self-loop or a non-finite weight names its line
    # and quotes the file's own ids
    for edge in ["0 2 1", "1 4 1", "2 2 1", "1 2 nan", "1 2 inf"]:
        path.write_text(f"3 1\n{edge}\n")
        with pytest.raises(DataError, match=f":2: edge {edge[:3]} "):
            load_gset(path)
    # a repeated edge, in either orientation, names its second line and
    # quotes the file's own ids
    for second in ["2 1", "1 2"]:
        path.write_text(f"3 2\n1 2 1\n{second} 5\n")
        with pytest.raises(DataError, match=f":3: edge {second} "):
            load_gset(path)
    # a header with fewer than one vertex names line 1
    for text in ["-3 0\n", "0 0\n"]:
        path.write_text(text)
        with pytest.raises(DataError, match=":1:"):
            load_gset(path)
    # a byte that is not UTF-8 names its line
    for raw, line in [(b"3 1\n1 2 \xff\n", ":2:"), (b"\xff 1\n1 2 1\n", ":1:")]:
        path.write_bytes(raw)
        with pytest.raises(DataError, match=f"{line} .*not UTF-8"):
            load_gset(path)


def test_weights_round_trip(tmp_path):
    cfg = tiny_config(layers=2, rpe_mode="learned")
    w = init_weights(cfg, 5, np.random.default_rng(3))
    path = tmp_path / "model.bin"
    save_weights(w, path)
    back = load_weights(path)
    assert back.config == cfg
    assert back.domain_size == 5
    assert set(back.params) == set(w.params)
    for name, p in w.named_parameters():
        assert np.array_equal(back.params[name].data, p.data)


def test_saved_weight_bytes_are_pinned(tmp_path):
    # the container's header and blocks do not move with refactors
    cfg = tiny_config(layers=2, rpe_mode="learned")
    path = tmp_path / "model.bin"
    save_weights(init_weights(cfg, 5, np.random.default_rng(3), dtype=np.float64), path)
    raw = path.read_bytes()
    assert raw[:8] == b"CSPW" + struct.pack("<I", 2)
    assert raw[12:].startswith(
        b'{"config": {"ape_mode": "none", "d_model": 16, "dropout": 0.0, "ffn_mult": 1, '
        b'"heads": 1, "layers": 2, "rpe_mode": "learned", "sampler": "softmax", '
        b'"select_p": 0.5, "tau": 0.5}, "domain_size": 5, "dtype": "float64", '
    )
    assert len(raw) == 28677
    assert hashlib.sha256(raw).hexdigest() == (
        "d3e09ee896072bcf76035462ff365399153e20a27b444ceff223fcfc3a419f3f"
    )


def test_float32_weights_keep_their_dtype_in_half_the_bytes(tmp_path):
    cfg = tiny_config(layers=2, rpe_mode="learned")
    sizes = {}
    for dtype in (np.float32, np.float64):
        w = init_weights(cfg, 5, np.random.default_rng(3), dtype=dtype)
        path = tmp_path / f"{np.dtype(dtype).name}.bin"
        save_weights(w, path)
        back = load_weights(path)
        assert back.dtype == dtype
        for name, p in w.named_parameters():
            assert back[name].data.dtype == dtype
            assert back[name].data.tobytes() == p.data.tobytes(), name
        sizes[dtype] = path.stat().st_size
    blocks = sum(p.data.size for _, p in w.named_parameters())
    assert sizes[np.float64] - sizes[np.float32] == 4 * blocks


def test_version_1_weight_files_load_as_float64(tmp_path):
    # a version-1 file, built byte by byte: no dtype in the header, float64 blocks
    cfg = tiny_config(layers=2, rpe_mode="learned")
    w = init_weights(cfg, 5, np.random.default_rng(3), dtype=np.float64)
    names = sorted(w.params)
    header = json.dumps({"config": asdict(cfg), "domain_size": 5,
                         "tensors": {k: list(w[k].shape) for k in names}}, sort_keys=True).encode()
    blocks = b"".join(w[k].data.astype("<f8").tobytes() for k in names)
    path = tmp_path / "v1.bin"
    path.write_bytes(b"CSPW" + struct.pack("<II", 1, len(header)) + header + blocks)
    back = load_weights(path)
    assert back.config == cfg
    assert back.dtype == np.float64 and back.domain_size == 5
    for k in names:
        assert back[k].data.dtype == np.float64
        assert back[k].data.tobytes() == w[k].data.tobytes(), k
    (tmp_path / "v3.bin").write_bytes(b"CSPW" + struct.pack("<II", 3, len(header)) + header + blocks)
    with pytest.raises(DataError, match="version 3"):
        load_weights(tmp_path / "v3.bin")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_weights_refuses_non_finite_values(tmp_path, bad):
    w = init_weights(tiny_config(), 4, np.random.default_rng(0))
    w["l0.w1"].data[2, 3] = bad
    path = tmp_path / "model.bin"
    with pytest.raises(NumericError, match="l0.w1"):
        save_weights(w, path)
    assert not path.exists()


def test_load_weights_rejects_corruption(tmp_path):
    w = init_weights(tiny_config(), 4, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_weights(w, path)
    blob = path.read_bytes()
    (tmp_path / "bad_magic.bin").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DataError, match="magic"):
        load_weights(tmp_path / "bad_magic.bin")
    (tmp_path / "truncated.bin").write_bytes(blob[:-8])
    with pytest.raises(DataError, match="truncated"):
        load_weights(tmp_path / "truncated.bin")
    (tmp_path / "trailing.bin").write_bytes(blob + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        load_weights(tmp_path / "trailing.bin")
