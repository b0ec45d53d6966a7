"""Property tests: the compiled, batched forms of each semantic against the
reference per-constraint forms, on random small instances of every
constraint kind (duplicates and repeated scope entries included), random
fixed variables, random lambdas and both transforms; matmul's gradients
against an einsum reference; the fused tensor ops against their composed
forms; and the graph generator and greedy coloring
against their numpy forms; the weight file round trip; and float32 against float64."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from csprefine.csp import (
    AllDifferentAtMostOnce,
    AllDifferentExact,
    Cardinality,
    CspInstance,
    NotEqual,
    constraint_graph,
    violation_degree,
)
from csprefine.data import WeightedGraph, gen_barabasi_albert, load_weights, save_weights
from csprefine.model import InstanceContext, ModelConfig, apply_update, init_weights, select_subset
from csprefine.penalty import LossConfig, LossProgram, constraint_penalty
from csprefine.solve import ViolationChecker, cut_value, greedy_coloring, instance_cut_value
from csprefine.tensor import Tape, Tensor, backward, layer_norm, linear, matmul, softmax
from csprefine.train import _batch_loss, prepare, random_assignment
from conftest import COMPOSED_OPS, replayed_mean_loss, tiny_config, workload_instances


@st.composite
def constraints(draw, n: int, m: int):
    kinds = ["ne", "atmost", "card"] + (["exact"] if n >= m else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "ne":
        i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        return NotEqual(i, k, draw(st.floats(0.25, 3.0)))

    def scope(size):
        # repeated variables are legal and count once per occurrence
        return tuple(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))

    if kind == "exact":
        return AllDifferentExact(scope(m))
    if kind == "atmost":
        return AllDifferentAtMostOnce(scope(draw(st.integers(1, m - 1))))
    s = scope(draw(st.integers(1, n)))
    return Cardinality(draw(st.integers(0, m - 1)), draw(st.integers(0, len(s))), s)


@st.composite
def instances(draw, n: int | None = None, m: int | None = None):
    n = draw(st.integers(2, 6)) if n is None else n
    m = draw(st.integers(2, 4)) if m is None else m
    cons = draw(st.lists(constraints(n, m), max_size=6))
    if cons:
        cons += draw(st.lists(st.sampled_from(cons), max_size=2))  # duplicates
    return CspInstance(n, m, tuple((i,) for i in range(n)), tuple(cons), (None,) * n)


@st.composite
def with_fixed(draw, inst: CspInstance):
    """``inst`` with random fixed markers."""
    fixed = draw(st.lists(st.none() | st.integers(0, inst.m - 1),
                          min_size=inst.n, max_size=inst.n))
    return CspInstance(inst.n, inst.m, inst.index_tuples, inst.constraints, tuple(fixed))


@st.composite
def loss_configs(draw, count: int):
    lambdas = draw(st.none() | st.lists(st.floats(0.1, 3.0), min_size=count, max_size=count))
    transform = draw(st.sampled_from(["quadratic", "identity"]))
    return LossConfig(None if lambdas is None else tuple(lambdas), transform)


def _relaxed(seed: int, shape) -> np.ndarray:
    """Random probability rows of shape ``shape`` = (..., n, m)."""
    return np.random.default_rng(seed).dirichlet(np.ones(shape[-1]), size=shape[:-1])


def _reference_loss(inst, cfg, rel: Tensor) -> Tensor:
    total = Tensor(0.0)
    for idx, c in enumerate(inst.constraints):
        p = constraint_penalty(c, rel)
        total = total + cfg.weight(idx) * (p * p if cfg.transform == "quadratic" else p)
    return total


@given(st.data(), instances(), st.integers(0, 2**32 - 1))
def test_compiled_loss_matches_reference(data, inst, seed):
    cfg = data.draw(loss_configs(len(inst.constraints)))
    program = LossProgram(inst, cfg)
    rel = _relaxed(seed, (2, inst.n, inst.m))
    batched = program.loss(Tensor(rel)).data
    for r, got in zip(rel, batched):
        x_compiled = Tensor(r, requires_grad=True)
        x_reference = Tensor(r, requires_grad=True)
        with Tape():
            compiled = program.loss(x_compiled)
            reference = _reference_loss(inst, cfg, x_reference)
            backward(compiled + reference)
        assert np.isclose(compiled.item(), reference.item(), rtol=1e-12, atol=1e-12)
        assert np.isclose(got, reference.item(), rtol=1e-12, atol=1e-12)
        if inst.constraints:
            assert np.allclose(x_compiled.grad, x_reference.grad, rtol=1e-10, atol=1e-10)


@given(st.data(), st.integers(2, 6), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_stacked_loss_matches_each_instance(data, n, m, seed):
    insts = data.draw(st.lists(instances(n, m), min_size=1, max_size=4))
    transform = data.draw(st.sampled_from(["quadratic", "identity"]))
    programs = [
        LossProgram(inst, LossConfig(data.draw(loss_configs(len(inst.constraints))).lambdas, transform))
        for inst in insts
    ]
    rel = _relaxed(seed, (len(insts), n, m))
    got = LossProgram.stack(programs).loss(Tensor(rel)).data
    want = [p.loss(Tensor(r)).item() for p, r in zip(programs, rel)]
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@given(instances(), st.integers(0, 2**32 - 1))
def test_checker_matches_violation_degrees(inst, seed):
    values = np.random.default_rng(seed).integers(0, inst.m, size=(5, inst.n))
    want = [sum(violation_degree(c, v) for c in inst.constraints) for v in values]
    checker = ViolationChecker(inst)
    assert np.array_equal(checker.total(values), want)
    assert np.array_equal(checker.total(values) == 0, np.array(want) == 0)


@given(instances(), st.integers(0, 2**32 - 1))
def test_batched_cut_matches_cut_value(inst, seed):
    values = np.random.default_rng(seed).integers(0, inst.m, size=(5, inst.n))
    edges = [(c.i, c.k, c.weight) for c in inst.constraints if isinstance(c, NotEqual)]
    want = [cut_value(edges, v) for v in values]
    assert np.allclose(instance_cut_value(inst, values), want, rtol=1e-12, atol=0.0)
    assert np.isclose(instance_cut_value(inst, values[0]), want[0], rtol=1e-12, atol=0.0)


@given(instances())
def test_adjacency_matches_constraint_graph(inst):
    want = np.eye(inst.n, dtype=bool)
    for i, j in constraint_graph(inst).edges:
        want[i, j] = want[j, i] = True
    assert np.array_equal(inst.compiled.adjacency(), want)


@given(instances(), st.sampled_from(["masked", "learned", "none"]))
def test_context_keep_is_the_adjacency(inst, rpe_mode):
    ctx = InstanceContext.build(inst, tiny_config(rpe_mode=rpe_mode))
    assert ctx.keep.dtype == np.float64
    assert np.array_equal(ctx.keep, np.where(inst.compiled.adjacency(), 1.0, 0.0))


@given(st.data(), instances())
def test_compiled_fixed_arrays_match_markers(data, inst):
    inst = data.draw(with_fixed(inst))
    cc = inst.compiled
    assert cc.fixed_mask.tolist() == [v is not None for v in inst.fixed]
    assert cc.fixed_values.tolist() == [0 if v is None else v for v in inst.fixed]


@given(instances().flatmap(with_fixed), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
def test_update_moves_only_selected_free_variables(inst, p, seed):
    rng = np.random.default_rng(seed)
    fixed = inst.compiled.fixed_mask
    selected = np.stack([select_subset(fixed, p, rng) for _ in range(3)])
    assert not (selected & fixed).any()
    assert (selected.any(axis=1) == (~fixed).any()).all()
    values = np.stack([random_assignment(inst, rng) for _ in range(3)])
    updated = apply_update(values, selected, _relaxed(seed, (3, inst.n, inst.m)))
    assert np.array_equal(updated[~selected], values[~selected])


@given(st.data(), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_mixed_size_batch_loss_is_the_mean_of_own_losses(data, m, seed):
    # one chunk of instances of random sizes and givens, in random order
    insts = data.draw(st.lists(instances(m=m).flatmap(with_fixed), min_size=1, max_size=5))
    cfg = tiny_config(
        select_p=data.draw(st.sampled_from([0.3, 0.7, 1.0])),
        rpe_mode=data.draw(st.sampled_from(["masked", "learned", "none"])),
        ape_mode=data.draw(st.sampled_from(["none", "1d", "multi"])),
    )
    w = init_weights(cfg, m, np.random.default_rng(seed), dtype=np.float64)
    bundles = prepare(insts, cfg)
    got = _batch_loss(w, bundles, np.random.default_rng(seed), training=False).item()
    assert np.isclose(got, replayed_mean_loss(w, bundles, seed), rtol=1e-12, atol=1e-12)


@given(st.sampled_from(["weight", "batched", "broadcast"]),
       st.lists(st.integers(1, 4), min_size=0, max_size=2),
       st.lists(st.integers(1, 6), min_size=3, max_size=3), st.integers(0, 2**32 - 1))
def test_matmul_gradients_match_einsum(kind, batch, nkf, seed):
    # (B.., n, k) @ (k, f) takes one GEMM per gradient; (B, H, n, k) @ (B, H, k, f)
    # and a broadcast 3-D weight (1, k, f) keep the batched form
    rng = np.random.default_rng(seed)
    n, k, f = nkf
    if kind == "weight":
        shape_a, shape_b, sub_b = (*batch, n, k), (k, f), "kf"
    elif kind == "batched":
        batch = (batch + [2, 3])[:2]
        shape_a, shape_b, sub_b = (*batch, n, k), (*batch, k, f), "...kf"
    else:
        batch = batch[:1] or [2]
        shape_a, shape_b, sub_b = (*batch, n, k), (1, k, f), "kf"
    a, b = Tensor(rng.normal(size=shape_a), True), Tensor(rng.normal(size=shape_b), True)
    g = rng.normal(size=(*shape_a[:-1], f))
    with Tape():
        backward((matmul(a, b) * Tensor(g)).sum())
    wb = b.data[0] if kind == "broadcast" else b.data
    ref_a = np.einsum(f"...nf,{sub_b}->...nk", g, wb)
    ref_b = np.einsum("...nk,...nf->...kf", a.data, g)
    if kind != "batched":
        ref_b = ref_b.reshape(-1, k, f).sum(axis=0).reshape(shape_b)
    for got, ref in ((a.grad, ref_a), (b.grad, ref_b)):
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@given(st.sampled_from(["layer_norm", "linear", "softmax"]),
       st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(1, 6),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_fused_ops_match_their_composed_references(name, batch, k, f, seed):
    # layer_norm against the elementwise expression, linear against x @ w + b,
    # and a keep mask against adding where(keep, 0, -inf) to the logits
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 3.0, size=(*batch, k))
    kwargs = {}
    if name == "layer_norm":
        consts = [rng.normal(size=k), rng.normal(size=k)]
    elif name == "linear":
        consts = [rng.normal(size=(k, f)), rng.normal(size=f)]
    else:
        consts = []
        r = rng.random(x.shape[-2:])  # one mask for every leading index
        kwargs["keep"] = ((r < 0.5) | (r == r.max(axis=-1, keepdims=True))).astype(np.float64)
    fused = {"layer_norm": layer_norm, "linear": linear, "softmax": softmax}[name]
    g = rng.normal(size=fused(Tensor(x), *map(Tensor, consts), **kwargs).shape)
    results = []
    for op in (fused, COMPOSED_OPS[name]):
        inputs = [Tensor(a, requires_grad=True) for a in (x, *consts)]
        with Tape():
            y = op(*inputs, **kwargs)
            backward((y * Tensor(g)).sum())
        results.append([y.data] + [t.grad for t in inputs])
    for got, ref in zip(*results):
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(ref).max()))


def reference_barabasi_albert(n, m_attach, rng):
    """``gen_barabasi_albert`` as written on ``rng.choice``: the draw oracle."""
    edges = []
    degree = np.zeros(n)
    for u in range(m_attach):
        for v in range(u + 1, m_attach):
            edges.append((u, v, 1.0))
            degree[u] += 1
            degree[v] += 1
    for v in range(m_attach, n):
        targets: set[int] = set()
        weights = degree[:v].copy()
        if weights.sum() == 0:  # m_attach == 1: seed vertex has degree 0
            weights[:] = 1.0
        while len(targets) < m_attach:
            w = weights.copy()
            w[list(targets)] = 0.0
            pick = int(rng.choice(v, p=w / w.sum()))
            targets.add(pick)
        for u in sorted(targets):
            edges.append((u, v, 1.0))
            degree[u] += 1
            degree[v] += 1
    return WeightedGraph(n, tuple(edges))


def reference_greedy_coloring(n_vertices, edges):
    """``greedy_coloring`` as written on an int64 array."""
    adj: list[set[int]] = [set() for _ in range(n_vertices)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colors = np.full(n_vertices, -1, dtype=np.int64)
    for v in range(n_vertices):
        used = {colors[u] for u in adj[v] if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors, int(colors.max()) + 1 if n_vertices else 0


def assert_same_graph_and_stream(n, m_attach, seed):
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert gen_barabasi_albert(n, m_attach, fast) == reference_barabasi_albert(n, m_attach, ref)
    assert fast.random() == ref.random()


@given(st.data(), st.integers(2, 120), st.integers(0, 2**32 - 1))
def test_barabasi_albert_matches_the_choice_reference(data, n, seed):
    assert_same_graph_and_stream(n, data.draw(st.integers(1, n - 1)), seed)


def test_barabasi_albert_matches_the_choice_reference_at_800_vertices():
    assert_same_graph_and_stream(800, 10, 5)


@given(st.data(), st.integers(0, 30))
def test_greedy_coloring_matches_the_array_reference(data, n):
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    edges = data.draw(st.lists(pair, max_size=4 * n)) if n >= 2 else []
    colors, k = greedy_coloring(n, edges)
    ref_colors, ref_k = reference_greedy_coloring(n, edges)
    assert colors.dtype == ref_colors.dtype == np.int64
    assert np.array_equal(colors, ref_colors)
    assert k == ref_k and type(k) is int


@given(st.sampled_from([np.float32, np.float64]), st.integers(1, 3), st.sampled_from([1, 2, 4]),
       st.integers(1, 6), st.sampled_from(["masked", "learned", "none"]),
       st.sampled_from(["none", "1d", "multi"]), st.integers(1, 3), st.integers(2, 9),
       st.integers(0, 2**32 - 1))
def test_weights_round_trip_byte_identically(dtype, layers, heads, width, rpe_mode, ape_mode,
                                             ffn_mult, m, seed):
    cfg = ModelConfig(layers=layers, heads=heads, d_model=heads * width, rpe_mode=rpe_mode,
                      ape_mode=ape_mode, ffn_mult=ffn_mult)
    w = init_weights(cfg, m, np.random.default_rng(seed), dtype=dtype)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.bin"), Path(tmp, "b.bin")
        save_weights(w, first)
        back = load_weights(first, expect_config=cfg)
        save_weights(back, second)
        assert first.read_bytes() == second.read_bytes()
    assert back.domain_size == m and back.params.keys() == w.params.keys()
    for name, p in w.named_parameters():
        assert back[name].data.dtype == dtype
        assert back[name].data.tobytes() == p.data.tobytes(), name


def _loss_and_grads(cfg, insts, seed, dtype):
    w = init_weights(cfg, insts[0].m, np.random.default_rng(seed), dtype=dtype)
    with Tape():
        loss = _batch_loss(w, prepare(insts, cfg), np.random.default_rng(seed + 1))
        backward(loss)
    grads = np.concatenate([p.grad.astype(np.float64).ravel() for _, p in w.named_parameters()])
    return loss.item(), grads


# Over a sweep of 80 cases of this kind (random sudoku puzzles and 20-vertex
# colorings, 1 to 3 layers, d 16 to 64, tau 0.5 or 1), float32 was within 2.5e-7 of float64 in loss and
# 2.8e-6 in gradient norm. tau stays at 0.5 or 1: at tau 0.1 an untrained
# model's softmax head can saturate, and then the whole gradient is about
# 1e-4 of its usual size, the same order as float32 rounding (one case
# measured 0.42).
@settings(max_examples=20)
@given(st.sampled_from(["sudoku", "coloring20"]), st.sampled_from(["masked", "learned", "none"]),
       st.sampled_from(["none", "1d", "multi"]), st.sampled_from(["gumbel", "softmax"]),
       st.sampled_from([0.5, 1.0]), st.sampled_from([0.0, 0.1]), st.integers(1, 3),
       st.integers(0, 2**31 - 2))
def test_float32_matches_float64_from_the_same_draws(workload, rpe_mode, ape_mode, sampler,
                                                     tau, dropout, layers, seed):
    cfg = ModelConfig(layers=layers, heads=2, d_model=32, select_p=0.5, rpe_mode=rpe_mode,
                      ape_mode=ape_mode, tau=tau, sampler=sampler, dropout=dropout)
    insts = workload_instances(workload, 4)
    l32, g32 = _loss_and_grads(cfg, insts, seed, np.float32)
    l64, g64 = _loss_and_grads(cfg, insts, seed, np.float64)
    assert abs(l32 - l64) <= 1e-5 * abs(l64)
    assert np.linalg.norm(g32 - g64) <= 1e-3 * np.linalg.norm(g64)
