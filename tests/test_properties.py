"""Property tests: the compiled, batched forms of each semantic against the
reference per-constraint forms, on random small instances of every
constraint kind (duplicates and repeated scope entries included), random
fixed variables and both transforms; matmul's gradients
against an einsum reference; the fused tensor ops against their composed
forms; softmax's floored backward against the plain form; the flat row
scatter-adds of the gather, take and attention backwards against the
``np.add.at`` row form, and ``LossProgram.stack`` against the per-sample
loop, byte for byte; a training step's draws and a pool's subsets against
the per-row loop of the draw rule; a pool's subset
and noise draws, and a forward with a generator per row, against each
candidate's own; ``multi_start``'s report
against a replay of its rounds; and the graph generator and greedy coloring
against their numpy forms; the weight file round trip; float32 against float64;
``solve`` on damaged dataset files; and the CLI's numeric flags at non-finite,
negative and zero values, and ``generate``'s at their smallest legal values."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from csprefine import cli
from csprefine.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from csprefine.csp import (
    AllDifferentAtMostOnce,
    AllDifferentExact,
    Cardinality,
    CspInstance,
    NotEqual,
    build_graph_coloring,
    constraint_graph,
    violation_degree,
)
from csprefine.data import (
    WeightedGraph,
    gen_barabasi_albert,
    load_weights,
    save_instances,
    save_sudoku,
    save_weights,
)
from csprefine.model import (
    APE_MODES,
    RPE_MODES,
    SAMPLERS,
    InstanceContext,
    ModelConfig,
    apply_update,
    forward,
    gumbel_noise,
    init_weights,
    random_assignment,
    select_subset,
)
from csprefine.penalty import (
    LossConfig,
    LossProgram,
    _pad_stack,
    constraint_penalty,
    default_loss_config,
)
from csprefine.solve import (
    Budget,
    ViolationChecker,
    cut_value,
    greedy_coloring,
    instance_cut_value,
    multi_start,
)
import csprefine.tensor as T
from csprefine.tensor import (
    Tape,
    Tensor,
    attention,
    backward,
    gather_rows,
    layer_norm,
    linear,
    matmul,
    softmax,
)
from csprefine.train import _batch_loss, prepare
from conftest import (
    COMPOSED_OPS,
    assemble_relaxed,
    bundles_of,
    collate,
    dense_reference_forward,
    loop_draws,
    loop_pad_stack,
    loop_subsets,
    per_sample_draws,
    replay_solve,
    replayed_mean_loss,
    row_scatter_add,
    sudoku_puzzle,
    tiny_config,
    toy_alldiff,
    workload_instances,
)


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
def maximization_instances(draw):
    """Weighted not-equal instances in maximization mode. The weights are
    dyadic, so every order of summing them gives the same cut and equal
    cuts are equal floats: ties across candidates and rounds are common."""
    n = draw(st.integers(3, 6))
    pairs = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                          min_size=2, max_size=8))
    edges = tuple(NotEqual(i, k, draw(st.sampled_from([0.5, 1.0, 2.0]))) for i, k in pairs)
    return CspInstance(n, draw(st.integers(2, 3)), tuple((i,) for i in range(n)), edges,
                       (None,) * n, mode="maximization")


def loss_configs():
    return st.sampled_from(["quadratic", "identity"]).map(LossConfig)


def _relaxed(seed: int, shape) -> np.ndarray:
    """Random probability rows of shape ``shape`` = (..., n, m)."""
    return np.random.default_rng(seed).dirichlet(np.ones(shape[-1]), size=shape[:-1])


def _reference_loss(inst, cfg, rel: Tensor) -> Tensor:
    total = Tensor(0.0)
    for c in inst.constraints:
        p = constraint_penalty(c, rel)
        total = total + (p * p if cfg.transform == "quadratic" else p)
    return total


@given(st.data(), instances(), st.integers(0, 2**32 - 1))
def test_compiled_loss_matches_reference(data, inst, seed):
    cfg = data.draw(loss_configs())
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
    programs = [LossProgram(inst, LossConfig(transform)) for inst in insts]
    rel = _relaxed(seed, (len(insts), n, m))
    got = LossProgram.stack(programs).loss(Tensor(rel)).data
    want = [p.loss(Tensor(r)).item() for p, r in zip(programs, rel)]
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@given(st.data(), st.integers(2, 6), st.integers(2, 4), st.booleans())
def test_stack_arrays_equal_the_loop_form(data, n, m, with_empty):
    # the mix may hold a program with no edges and no scope rows at all
    insts = data.draw(st.lists(instances(n, m), min_size=1, max_size=4))
    if with_empty:
        insts.insert(data.draw(st.integers(0, len(insts))),
                     CspInstance(n, m, tuple((i,) for i in range(n)), (), (None,) * n))
    cfg = data.draw(loss_configs())
    programs = [LossProgram(inst, cfg) for inst in insts]
    stacked = LossProgram.stack(programs)
    got = [*stacked.edge, *stacked.exact, *stacked.atmost, *stacked.card]
    want = []
    for kind in ("edge", "exact", "atmost", "card"):
        want += [loop_pad_stack(arrays) for arrays in zip(*(getattr(p, kind) for p in programs))]
    # the padding rule that the training set's givens read: padded True
    fixed = [inst.compiled.fixed_mask for inst in insts]
    got.append(_pad_stack(fixed, fill=True))
    want.append(loop_pad_stack(fixed, fill=True))
    assert len(got) == len(want) == 10
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


@given(st.data(), st.integers(2, 4))
def test_training_set_givens_equal_the_loop_form(data, m):
    # mixed sizes: each row holds its instance's givens, and a padding
    # column counts as given, with value 0
    insts = data.draw(st.lists(instances(m=m).flatmap(with_fixed), min_size=1, max_size=5))
    train_set = prepare(insts, tiny_config())
    width = max(inst.n for inst in insts)
    mask = np.ones((len(insts), width), dtype=bool)
    values = np.zeros((len(insts), width), dtype=np.int64)
    for b, inst in enumerate(insts):
        mask[b, : inst.n] = [v is not None for v in inst.fixed]
        values[b, : inst.n] = [0 if v is None else v for v in inst.fixed]
    for got, want in ((train_set.fixed_mask, mask), (train_set.fixed_values, values)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


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


@given(instances())
def test_adjacency_matches_constraint_graph(inst):
    want = np.eye(inst.n, dtype=bool)
    for i, j in constraint_graph(inst).edges:
        want[i, j] = want[j, i] = True
    assert np.array_equal(inst.compiled.adjacency(), want)


@given(instances(), st.sampled_from(RPE_MODES))
def test_context_keep_is_the_adjacency(inst, rpe_mode):
    ctx = InstanceContext.build(inst, tiny_config(rpe_mode=rpe_mode))
    assert ctx.keep.dtype == bool
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


def _batch_of(data, count: int) -> np.ndarray:
    """A batch of instance indices, as an epoch cuts one: distinct, in a
    random order."""
    order = data.draw(st.permutations(range(count)))
    return np.array(order[: data.draw(st.integers(1, count))])


def _groups_in_order(insts, idx):
    """(key, batch positions) per group of the batch, in order of first
    appearance, keyed as training groups: index tuples and transform."""
    keys = [(insts[i].index_tuples, default_loss_config(insts[i]).transform) for i in idx]
    return [(key, [b for b, k in enumerate(keys) if k == key]) for key in dict.fromkeys(keys)]


@settings(max_examples=200)
@given(st.data(), st.integers(2, 4), st.sampled_from([0.001, 0.05, 0.2, 0.3, 1.0]),
       st.integers(0, 2**32 - 1))
def test_a_steps_draws_equal_the_per_sample_draws(data, m, p, seed):
    # mixed sizes, so padding columns, and givens; a fully fixed instance
    # draws no subset; at p 0.001 nearly every row selects nothing at first
    # and draws again once every row has drawn, and at p 0.05 to 0.3 a row
    # that selected nothing is often followed by one that selected something
    insts = data.draw(st.lists(instances(m=m).flatmap(with_fixed), min_size=1, max_size=6))
    for i in data.draw(st.lists(st.integers(0, len(insts) - 1), max_size=2)):
        inst = insts[i]
        givens = tuple(data.draw(st.integers(0, m - 1)) for _ in range(inst.n))
        insts[i] = CspInstance(inst.n, m, inst.index_tuples, inst.constraints, givens)
    train_set = prepare(insts, tiny_config(select_p=p))
    idx = _batch_of(data, len(insts))
    batch = [insts[i] for i in idx]
    groups = _groups_in_order(insts, idx)
    rng = np.random.default_rng(seed)
    parts = train_set.draw(idx, p, rng)
    assert len(parts) == len(groups)

    def assert_drawn(values, selected, ref):
        for (_, at), (_, _, vals, sel) in zip(groups, parts):
            assert vals.dtype == np.int64 and sel.dtype == bool
            assert np.array_equal(vals, np.stack([values[b] for b in at]))
            assert np.array_equal(sel, np.stack([selected[b] for b in at]))
        # the same draws, so the generator ends in the same state
        assert rng.bit_generator.state == ref.bit_generator.state

    ref = np.random.default_rng(seed)
    values, selected, redrawn = loop_draws(batch, p, ref)
    assert_drawn(values, selected, ref)
    # a batch of one size and no row drawn again: the stream of one draw
    # per instance in turn
    if len({inst.n for inst in batch}) == 1 and not redrawn:
        alone = np.random.default_rng(seed)
        assert_drawn(*per_sample_draws(batch, p, alone), alone)


@given(st.data(), st.integers(2, 4), st.sampled_from([0.001, 0.3, 1.0]),
       st.integers(0, 2**32 - 1))
def test_a_batch_draws_only_to_its_own_longest_instance(data, m, p, seed):
    # the set's longest instance is left out of the batch: the batch draws
    # the row-loop stream padded to its own longest, and the set without
    # that instance gives the same draws
    insts = data.draw(st.lists(instances(m=m).flatmap(with_fixed), min_size=1, max_size=5))
    longest = data.draw(instances(n=max(inst.n for inst in insts) + 1, m=m))
    at = data.draw(st.integers(0, len(insts)))
    idx = _batch_of(data, len(insts))
    cfg = tiny_config(select_p=p)
    rng, without, ref = (np.random.default_rng(seed) for _ in range(3))
    parts = prepare(insts[:at] + [longest] + insts[at:], cfg).draw(idx + (idx >= at), p, rng)
    values, selected, _ = loop_draws([insts[i] for i in idx], p, ref)
    for (_, rows), (_, _, vals, sel) in zip(_groups_in_order(insts, idx), parts):
        assert np.array_equal(vals, np.stack([values[b] for b in rows]))
        assert np.array_equal(sel, np.stack([selected[b] for b in rows]))
    for got, want in zip(parts, prepare(insts, cfg).draw(idx, p, without)):
        assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
    assert rng.bit_generator.state == ref.bit_generator.state == without.bit_generator.state


def _program_arrays(program):
    return [*program.edge, *program.exact, *program.atmost, *program.card]


@given(st.data(), st.integers(2, 4))
def test_stacked_batches_equal_the_per_batch_collation(data, m):
    # sizes and kinds mixed: satisfaction instances of 2 to 6 variables, some
    # with no constraint, and maximization ones, which score under another
    # transform and so form groups of their own
    kinds = instances(m=m) | maximization_instances().map(
        lambda mx: CspInstance(mx.n, m, mx.index_tuples, mx.constraints, (None,) * mx.n,
                               mode="maximization"))
    insts = data.draw(st.lists(kinds, min_size=1, max_size=6))
    cfg = tiny_config(ape_mode=data.draw(st.sampled_from(APE_MODES)))
    train_set = prepare(insts, cfg)
    idx = _batch_of(data, len(insts))
    parts = train_set.draw(idx, cfg.select_p, np.random.default_rng(0))
    groups = _groups_in_order(insts, idx)
    assert len(parts) == len(groups)
    for (_, at), (ctx, program, _, _) in zip(groups, parts):
        # the collation of the batch's bundles built afresh
        want_ctx, want = collate(bundles_of([insts[int(idx[b])] for b in at], cfg))
        assert program.cfg == want.cfg
        pairs = [(ctx.ape, want_ctx.ape), (ctx.keep, want_ctx.keep),
                 *zip(_program_arrays(program), _program_arrays(want), strict=True)]
        for got_a, want_a in pairs:
            assert (got_a.dtype, got_a.shape) == (want_a.dtype, want_a.shape)
            assert got_a.tobytes() == want_a.tobytes()


@given(st.data(), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_mixed_size_batch_loss_is_the_mean_of_own_losses(data, m, seed):
    # one chunk of instances of random sizes and givens, in random order
    insts = data.draw(st.lists(instances(m=m).flatmap(with_fixed), min_size=1, max_size=5))
    cfg = tiny_config(
        select_p=data.draw(st.sampled_from([0.3, 0.7, 1.0])),
        rpe_mode=data.draw(st.sampled_from(RPE_MODES)),
        ape_mode=data.draw(st.sampled_from(APE_MODES)),
    )
    w = init_weights(cfg, m, np.random.default_rng(seed), dtype=np.float64)
    got = _batch_loss(w, prepare(insts, cfg), np.random.default_rng(seed), training=False).item()
    assert np.isclose(got, replayed_mean_loss(w, bundles_of(insts, cfg), seed),
                      rtol=1e-12, atol=1e-12)


@given(st.sampled_from(["weight", "batched", "broadcast"]),
       st.lists(st.integers(1, 4), min_size=0, max_size=2),
       st.lists(st.integers(1, 6), min_size=3, max_size=3), st.integers(0, 2**32 - 1))
def test_matmul_gradients_match_einsum(kind, batch, nkf, seed):
    # one batched backward for every form: a 2-D weight (k, f) under any
    # leading axes of a, (B, H, n, k) @ (B, H, k, f), and a broadcast 3-D
    # weight (1, k, f), whose gradient sums over the broadcast axes
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


@given(st.sampled_from(["layer_norm", "linear"]),
       st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(1, 6),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_fused_ops_match_their_composed_references(name, batch, k, f, seed):
    # layer_norm against the elementwise expression, linear against x @ w + b
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 3.0, size=(*batch, k))
    if name == "layer_norm":
        consts = [rng.normal(size=k), rng.normal(size=k)]
    else:
        consts = [rng.normal(size=(k, f)), rng.normal(size=f)]
    fused = {"layer_norm": layer_norm, "linear": linear}[name]
    g = rng.normal(size=fused(Tensor(x), *map(Tensor, consts)).shape)
    _assert_same_values_and_gradients(fused, COMPOSED_OPS[name], [x, *consts], g)


@given(st.sampled_from([np.float32, np.float64]), st.integers(1, 4), st.integers(2, 6),
       st.floats(0.0, 1000.0), st.integers(-60, 60), st.integers(0, 2**32 - 1))
def test_softmax_backward_is_the_plain_form_floored(dtype, rows, m, spread, g_exp, seed):
    # y * (g - dot) exactly where its magnitude reaches tiny / eps, exactly 0 below
    rng = np.random.default_rng(seed)
    x = Tensor((rng.normal(size=(rows, m)) * spread).astype(dtype), requires_grad=True)
    g = np.ldexp(rng.normal(size=(rows, m)), g_exp).astype(dtype)
    with Tape():
        y = softmax(x)
        backward((y * Tensor(g)).sum())
    y = y.data
    plain = y * (g - (g * y).sum(axis=-1, keepdims=True))
    fi = np.finfo(dtype)
    kept = np.abs(plain) >= fi.tiny / fi.eps
    assert x.grad.dtype == dtype
    assert np.array_equal(x.grad[kept], plain[kept])
    assert np.all(x.grad[~kept] == 0.0)


def _backward_bytes(op, args, g_seed, rows_form: bool):
    """The gradients ``op(*args)`` hands back for an output gradient whose
    entries spread over 60 binades (so that a change in summation order
    shows), with the row scatters in the flat form or, with ``rows_form``,
    in the row form they replaced."""
    inputs = [Tensor(a, requires_grad=True) for a in args]
    with pytest.MonkeyPatch.context() as mp:
        if rows_form:
            mp.setattr(T, "_scatter_add", row_scatter_add)
        with Tape() as tape:
            out = op(*inputs)
        rng = np.random.default_rng(g_seed)
        g = np.ldexp(rng.normal(size=out.shape), rng.integers(-30, 30, size=out.shape))
        grads = tape.ops[-1][2](g.astype(out.data.dtype))
    return [(x.dtype, x.shape, x.tobytes()) for x in grads if x is not None]


def _assert_scatter_forms_agree(op, args, g_seed):
    assert (_backward_bytes(op, args, g_seed, rows_form=False)
            == _backward_bytes(op, args, g_seed, rows_form=True))


@given(st.sampled_from([np.float32, np.float64]), st.integers(1, 5),
       st.lists(st.integers(1, 3), max_size=2), st.data(), st.integers(0, 2**32 - 1))
def test_gather_rows_backward_equals_the_row_form(dtype, rows, width, data, seed):
    # 1-, 2- and 3-D tables, one-column ones included; empty and repeated indices
    index_shape = data.draw(st.lists(st.integers(0, 4), max_size=2))
    idx = np.random.default_rng(seed).integers(0, rows, size=index_shape)
    table = np.random.default_rng(seed).normal(size=(rows, *width)).astype(dtype)
    _assert_scatter_forms_agree(lambda t: gather_rows(t, idx), [table], seed)


@given(st.sampled_from([np.float32, np.float64]), st.integers(1, 3), st.integers(1, 5),
       st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_attention_rows_backward_equals_the_row_form(dtype, batch, n, heads, s, seed):
    # every batch element asks for one query row twice
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=(batch, s + 1))
    rows[:, -1] = rows[:, 0]
    d = 2 * heads
    args = [rng.normal(size=(batch, n, d))] + [rng.normal(size=(d, d)) for _ in range(4)]
    keep = (rng.random((n, n)) < 0.5) | np.eye(n, dtype=bool)
    _assert_scatter_forms_agree(lambda *t: attention(*t, heads, keep, rows=rows),
                                [a.astype(dtype) for a in args], seed)


def _loop_subset(fixed, p, rng):
    """The per-candidate draw: Bernoulli(p) on the free variables, drawn
    again until it selects one; no draw when every variable is fixed."""
    while not fixed.all():
        sel = (rng.random(len(fixed)) < p) & ~fixed
        if sel.any():
            return sel
    return np.zeros(len(fixed), dtype=bool)


@given(st.integers(0, 3), st.integers(0, 20), st.integers(1, 12), st.floats(0.001, 0.05),
       st.integers(0, 2**32 - 1))
def test_pool_subsets_redraw_as_each_candidate_alone(free, fixed_count, pool, p, seed):
    # at a small p with 1 to 3 free variables most first draws select
    # nothing and are drawn again; 0 free variables draws nothing
    n = free + fixed_count
    fixed = np.ones(n, dtype=bool)
    fixed[np.random.default_rng(seed).permutation(n)[:free]] = False
    pooled = [np.random.default_rng([seed, c]) for c in range(pool)]
    alone = [np.random.default_rng([seed, c]) for c in range(pool)]
    sel = select_subset(fixed, p, pooled)
    assert sel.shape == (pool, n) and sel.dtype == bool
    for c, rng in enumerate(alone):
        assert np.array_equal(sel[c], _loop_subset(fixed, p, rng))
    assert [r.random() for r in pooled] == [r.random() for r in alone]
    # candidate 0 replays the pool of size 1
    assert np.array_equal(select_subset(fixed, p, np.random.default_rng([seed, 0])), sel[0])


@given(st.lists(st.booleans(), min_size=1, max_size=8),
       st.lists(st.integers(0, 2), min_size=1, max_size=6),
       st.sampled_from([0.001, 0.05, 0.5]), st.integers(0, 2**32 - 1))
def test_pool_subsets_may_share_a_generator(fixed, owners, p, seed):
    # row b draws from generator owners[b] of three: the rows that share one
    # draw from it in row order, first every row once, then the rows that
    # selected nothing, as the row loop does
    fixed = np.array(fixed)
    pooled = [np.random.default_rng([seed, g]) for g in range(3)]
    looped = [np.random.default_rng([seed, g]) for g in range(3)]
    sel = select_subset(fixed, p, [pooled[g] for g in owners])
    want, _ = loop_subsets(np.broadcast_to(fixed, (len(owners), len(fixed))), p,
                           [looped[g] for g in owners])
    assert sel.shape == want.shape and np.array_equal(sel, want)
    assert [r.bit_generator.state for r in pooled] == [r.bit_generator.state for r in looped]


@given(st.lists(st.booleans(), min_size=1, max_size=20), st.integers(1, 12), st.integers(2, 5),
       st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_pool_draws_equal_the_per_candidate_draws(fixed, pool, m, p, seed):
    # a solve's draws: select_subset and gumbel_noise with a generator per
    # row, give what each generator alone gives, and each
    # generator ends in the same state; a generator shared by every row
    # gives the bytes of one whole-shape draw
    fixed = np.array(fixed)
    n = len(fixed)
    pooled = [np.random.default_rng([seed, c]) for c in range(pool)]
    alone = [np.random.default_rng([seed, c]) for c in range(pool)]
    sel = select_subset(fixed, p, pooled)
    noise = gumbel_noise(pooled, (pool, n, m))
    for c, rng in enumerate(alone):
        assert np.array_equal(sel[c], select_subset(fixed, p, rng))
        assert np.array_equal(noise[c], gumbel_noise([rng], (1, n, m))[0])
    assert sel.shape == (pool, n) and noise.shape == (pool, n, m)
    assert [r.random() for r in pooled] == [r.random() for r in alone]
    u = np.clip(np.random.default_rng(seed).random((pool, n, m)), 1e-12, 1.0 - 1e-12)
    shared = np.random.default_rng(seed)
    assert np.array_equal(gumbel_noise([shared] * pool, (pool, n, m)), -np.log(-np.log(u)))


@given(instances().flatmap(with_fixed), st.integers(1, 5), st.sampled_from(RPE_MODES),
       st.sampled_from(SAMPLERS), st.booleans(), st.sampled_from([0.0, 0.2]),
       st.integers(0, 2**32 - 1))
def test_forward_with_a_generator_per_row_equals_the_one_row_forwards(inst, batch, rpe_mode,
                                                                       sampler, training,
                                                                       dropout, seed):
    # B generators give, row by row, what the one-row forward gives from that
    # row's generator alone, dropout masks in training included, and each
    # generator ends in the same state
    cfg = tiny_config(layers=2, rpe_mode=rpe_mode, ape_mode="multi", sampler=sampler,
                      dropout=dropout)
    w = init_weights(cfg, inst.m, np.random.default_rng(seed), dtype=np.float64)
    ctx = InstanceContext.build(inst, cfg)
    rng = np.random.default_rng(seed)
    values = np.stack([random_assignment(inst, rng) for _ in range(batch)])
    selected = rng.random((batch, inst.n)) < 0.5
    selected[0, rng.integers(inst.n)] = True  # some row is updated; others may be empty
    pooled = [np.random.default_rng([seed, c]) for c in range(batch)]
    alone = [np.random.default_rng([seed, c]) for c in range(batch)]
    got = forward(w, ctx, values, selected, pooled, training).data
    for c, r in enumerate(alone):
        want = forward(w, ctx, values[c : c + 1], selected[c : c + 1], [r], training).data[0]
        assert np.allclose(got[c], want, rtol=1e-12, atol=1e-12)
    assert [r.bit_generator.state for r in pooled] == [r.bit_generator.state for r in alone]



@settings(max_examples=200)
@given(instances().flatmap(with_fixed) | maximization_instances(), st.integers(1, 4),
       st.integers(1, 8), st.sampled_from(SAMPLERS), st.integers(0, 2**32 - 1))
def test_multi_start_reports_the_replayed_solve(inst, pool, rounds, sampler, seed):
    # the winner, the rows and the objective follow the one per-candidate rule
    # in both modes, at every pool size
    w = init_weights(tiny_config(sampler=sampler), inst.m, np.random.default_rng(seed))
    report = multi_start(w, inst, pool, Budget(max_iterations=rounds), seed=seed, trace=True)
    want = replay_solve(w, inst, pool, rounds, seed)
    assert report.winner == want["winner"]
    assert report.feasible == (want["winner"] is not None)
    assert report.iterations_used == want["iterations_used"]
    assert report.objective == want["objective"]
    assert report.violation_trace == want["violation_trace"]
    assert np.array_equal(report.final_assignment, want["final_assignment"])
    assert np.array_equal(report.best_assignment, want["best_assignment"])


def _assert_same_values_and_gradients(op, ref, args, g):
    """``op`` and ``ref`` on the same inputs: equal outputs, and equal
    gradients of ``sum(out * g)`` in every input, to 1e-12."""
    results = []
    for fn in (op, ref):
        inputs = [Tensor(a, requires_grad=True) for a in args]
        with Tape():
            y = fn(*inputs)
            backward((y * Tensor(g)).sum())
        results.append([y.data] + [t.grad for t in inputs])
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(want).max(initial=0.0)))


def _padded_rows(selected: np.ndarray) -> np.ndarray:
    """The query rows ``forward`` gives its last layer: each batch
    element's selected rows, then unselected ones, up to the largest count."""
    return np.argsort(~selected, axis=1, kind="stable")[:, : selected.sum(axis=1).max()]


@given(st.sampled_from(RPE_MODES), st.booleans(), st.booleans(),
       st.integers(1, 3), st.integers(1, 6), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_attention_matches_the_composed_block(rpe_mode, stacked, subset, batch, n, heads,
                                              width, seed):
    # every RPE mode, one (n, n) mask or one per batch element, all rows as
    # queries or the padded rows of a selection in which one element is empty
    rng = np.random.default_rng(seed)
    d = heads * width
    args = [rng.normal(0.0, 1.5, size=(batch, n, d))]
    args += [rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d)) for _ in range(4)]
    r = rng.random((batch, 1, n, n) if stacked else (n, n))
    kwargs = {"keep": ((r < 0.5) | np.eye(n, dtype=bool)).astype(np.float64)}
    if rpe_mode == "learned":
        args.append(rng.normal(0.0, 2.0, size=()))
    if subset:
        selected = rng.random((batch, n)) < 0.5
        selected[rng.integers(batch)] = False
        kwargs["rows"] = _padded_rows(selected)

    def call(fn):
        def run(x, wq, wk, wv, wo, offset=None):
            return fn(x, wq, wk, wv, wo, heads, offset=offset, **kwargs)
        return run

    g = rng.normal(size=(batch, kwargs["rows"].shape[1] if subset else n, d))
    _assert_same_values_and_gradients(call(attention), call(COMPOSED_OPS["attention"]), args, g)


@given(st.sampled_from(RPE_MODES), st.booleans(), st.booleans(),
       st.sampled_from([np.float32, np.float64]), st.integers(1, 3), st.integers(1, 6),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_bool_and_float_keep_give_the_same_attention(rpe_mode, stacked, subset, dtype, batch,
                                                     n, heads, seed):
    # the adjacency as bools and as float64 0/1: equal outputs and equal
    # gradients in every input, bit for bit
    rng = np.random.default_rng(seed)
    d = 2 * heads
    args = [rng.normal(0.0, 1.5, size=(batch, n, d))]
    args += [rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d)) for _ in range(4)]
    if rpe_mode == "learned":
        args.append(rng.normal(0.0, 2.0, size=()))
    args = [a.astype(dtype) for a in args]
    keep = (rng.random((batch, 1, n, n) if stacked else (n, n)) < 0.5) | np.eye(n, dtype=bool)
    rows = _padded_rows(rng.random((batch, n)) < 0.5) if subset else None
    g = rng.normal(size=(batch, n if rows is None else rows.shape[1], d)).astype(dtype)
    results = []
    for k in (keep, keep.astype(np.float64)):
        inputs = [Tensor(a, requires_grad=True) for a in args]
        with Tape():
            y = attention(*inputs[:5], heads, rows=rows, keep=k,
                          offset=inputs[5] if rpe_mode == "learned" else None)
            backward((y * Tensor(g)).sum())
        results.append([y.data] + [t.grad for t in inputs])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


@given(st.data(), st.integers(2, 6), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_forward_matches_the_dense_reference(data, n, m, seed):
    # the last layer on the selected rows alone, against every layer on
    # every row and the unselected rows replaced by one-hot rows afterwards:
    # the same values, the same gradient in every parameter, and the same
    # draws, so the rng ends in the same state
    insts = data.draw(st.lists(instances(n, m).flatmap(with_fixed), min_size=1, max_size=3))
    heads = data.draw(st.sampled_from([1, 2]))
    cfg = ModelConfig(layers=data.draw(st.integers(1, 2)), heads=heads, d_model=4 * heads,
                      select_p=data.draw(st.sampled_from([0.3, 0.7, 1.0])),
                      rpe_mode=data.draw(st.sampled_from(RPE_MODES)),
                      ape_mode=data.draw(st.sampled_from(APE_MODES)),
                      tau=0.5, sampler=data.draw(st.sampled_from(SAMPLERS)),
                      dropout=data.draw(st.sampled_from([0.0, 0.2])), ffn_mult=2)
    training = data.draw(st.booleans())
    w = init_weights(cfg, m, np.random.default_rng(seed), dtype=np.float64)
    ctx, _ = collate(bundles_of(insts, cfg))
    rng = np.random.default_rng(seed + 1)
    values = np.stack([random_assignment(inst, rng) for inst in insts])
    selected = np.stack([select_subset(inst.compiled.fixed_mask, cfg.select_p, rng)
                         for inst in insts])
    if data.draw(st.booleans()):
        selected[data.draw(st.integers(0, len(insts) - 1))] = False
    g = Tensor(rng.normal(size=(len(insts), n, m)))

    def run(fn, rngs):
        # forward takes a generator per row, here one shared; the reference one generator
        w.zero_grad()
        draws = np.random.default_rng(seed + 2)
        with Tape():
            out = fn(w, ctx, values, selected, rngs(draws), training=training)
            backward((out * g).sum())
        return out.data, {k: p.grad for k, p in w.named_parameters()}, draws.bit_generator.state

    def reference(*args, **kwargs):
        return assemble_relaxed(values, selected, dense_reference_forward(*args, **kwargs))

    got, got_grads, got_state = run(forward, lambda r: [r] * len(insts))
    want, want_grads, want_state = run(reference, lambda r: r)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    for k, ref in want_grads.items():
        assert np.allclose(got_grads[k], ref, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(ref).max())), k
    assert got_state == want_state


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
       st.integers(1, 6), st.sampled_from(RPE_MODES),
       st.sampled_from(APE_MODES), st.integers(1, 3), st.integers(2, 9),
       st.integers(0, 2**32 - 1))
def test_weights_round_trip_byte_identically(dtype, layers, heads, width, rpe_mode, ape_mode,
                                             ffn_mult, m, seed):
    cfg = ModelConfig(layers=layers, heads=heads, d_model=heads * width, rpe_mode=rpe_mode,
                      ape_mode=ape_mode, ffn_mult=ffn_mult)
    w = init_weights(cfg, m, np.random.default_rng(seed), dtype=dtype)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.bin"), Path(tmp, "b.bin")
        save_weights(w, first)
        back = load_weights(first)
        save_weights(back, second)
        assert first.read_bytes() == second.read_bytes()
    assert back.config == cfg
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
@given(st.sampled_from(["sudoku", "coloring20"]), st.sampled_from(RPE_MODES),
       st.sampled_from(APE_MODES), st.sampled_from(SAMPLERS),
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


def _valid_dataset(fmt: str, path: Path) -> int:
    """Write a small valid dataset of format ``fmt``; returns its domain size."""
    if fmt == "sudoku":
        save_sudoku([sudoku_puzzle(30, 0), sudoku_puzzle(50, 1)], path)
        return 9
    save_instances([build_graph_coloring(5, [(0, 1), (1, 2), (3, 4)], 3), toy_alldiff(3)], path)
    return 3


@given(st.sampled_from(["jsonl", "sudoku"]), st.data())
def test_solve_on_a_damaged_dataset_exits_0_or_3(fmt, data):
    # a prefix of a valid file with up to three bytes replaced: solve
    # either runs or exits 3 with an error line, and never raises
    with tempfile.TemporaryDirectory() as tmp:
        path, weights = Path(tmp, f"set.{fmt}"), Path(tmp, "w.bin")
        m = _valid_dataset(fmt, path)
        cfg = ModelConfig(layers=1, heads=1, d_model=4, ape_mode="multi", ffn_mult=1)
        save_weights(init_weights(cfg, m, np.random.default_rng(0)), weights)
        blob = bytearray(path.read_bytes())
        del blob[data.draw(st.integers(0, len(blob)), label="cut"):]
        if blob:
            edits = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255))
            for at, byte in data.draw(st.lists(edits, max_size=3), label="edits"):
                blob[at] = byte
        path.write_bytes(bytes(blob))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["solve", "--weights", str(weights), "--dataset", str(path),
                       "--format", fmt, "--iters", "1"])
    assert rc in (EXIT_OK, EXIT_IO), err.getvalue()
    if rc == EXIT_IO:
        assert err.getvalue().startswith("error: ")
    else:
        assert json.loads(out.getvalue().splitlines()[-1])["summary"] is True


# The numeric flags of each subcommand. Each run starts from arguments that
# make a tiny valid run and appends the drawn flags as ``--flag=value``, so
# they override the start and a value such as -inf is never read as a flag.
# ``generate`` draws from --count, --seed and the sampled problem's own flags.
_INT_FLAGS = {
    "train": ["--batch-size", "--epochs", "--seed", "--layers", "--heads", "--d-model"],
    "solve": ["--iters", "--pool", "--seed"],
    "baseline": ["--runs", "--steps", "--seed"],
}
_FLOAT_FLAGS = {
    "train": ["--lr", "--weight-decay", "--grad-clip", "--p", "--tau", "--dropout"],
    "solve": ["--time-ms"],
    "baseline": ["--lr"],
}
# the smallest value that argparse takes for each flag of ``generate``; for
# --fixed-k, the smallest k that a coloring can be posed at
_SMALLEST = {"--count": "1", "--seed": "0", "--n": "2", "--days": "1", "--shifts": "1",
             "--per-shift": "1", "--nurses": "1", "--fixed-k": "1"}


def _tiny_run(command: str, tmp: str, data) -> list[str]:
    """Arguments for a valid run of ``command`` on a tiny dataset in ``tmp``."""
    dataset, weights = Path(tmp, "set.jsonl"), Path(tmp, "w.bin")
    _valid_dataset("jsonl", dataset)
    if command == "train":
        return ["--dataset", str(dataset), "--out", str(Path(tmp, "out.bin")), "--epochs", "1",
                "--batch-size", "2", "--layers", "1", "--heads", "1", "--d-model", "4"]
    if command == "solve":
        cfg = ModelConfig(layers=1, heads=1, d_model=4, ape_mode="multi", ffn_mult=1)
        save_weights(init_weights(cfg, 3, np.random.default_rng(0)), weights)
        return ["--weights", str(weights), "--dataset", str(dataset), "--iters", "1"]
    if command == "generate":
        problem = data.draw(st.sampled_from(["coloring", "nurse", "maxcut"]))
        sizes = {"nurse": ["--days", "1", "--shifts", "1", "--per-shift", "1", "--nurses", "2"]}
        return ["--problem", problem, "--count", "1", *sizes.get(problem, ["--n", "5"]),
                "--out", str(Path(tmp, "gen"))]
    return ["--kind", data.draw(st.sampled_from(["greedy", "direct-sgd"])),
            "--dataset", str(dataset), "--runs", "1", "--steps", "1"]


def _flag_values(command: str, argv: list[str]) -> dict[str, list[str]]:
    """The numeric flags that a run of ``command`` with ``argv`` reads, each
    with the values to draw: -1 and 0 for an integer, and nan, inf and -inf
    as well for a float."""
    if command == "generate":
        _, own = cli._PROBLEMS[argv[argv.index("--problem") + 1]]
        return {f: ["-1", "0"] for f in ["--count", "--seed"] + [
            "--" + k.replace("_", "-") for k, default in own.items() if default is not False]}
    return ({f: ["-1", "0"] for f in _INT_FLAGS[command]}
            | {f: ["-1", "0", "nan", "inf", "-inf"] for f in _FLOAT_FLAGS[command]})


@pytest.mark.parametrize("command", ["baseline", "generate", "solve", "train"])
def test_cli_numeric_flags_give_only_documented_exit_codes(command, monkeypatch):
    # non-finite, negative and zero values through any of a subcommand's
    # numeric flags: an exit code from the CLI's list and never an exception.
    # An integer flag gets only -1, 0 or, for ``generate``, its smallest
    # legal value, so no case allocates at scale. At least a third of the
    # ``generate`` examples must reach a generator, counted through wrappers
    # of the problem table's entries.
    calls = []
    for problem, (gen, reads) in list(cli._PROBLEMS.items()):
        def counted(*args, _real=gen, **kwargs):
            calls.append(None)
            return _real(*args, **kwargs)
        monkeypatch.setitem(cli._PROBLEMS, problem, (counted, reads))
    reached = []

    @given(data=st.data())
    def run(data):
        before = len(calls)
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command] + _tiny_run(command, tmp, data)
            choices = _flag_values(command, argv)
            flags = data.draw(st.lists(st.sampled_from(list(choices)), min_size=1, max_size=3,
                                       unique=True), label="flags")
            # a generate example either draws each flag's value or takes every
            # flag at its smallest legal value, so that it reaches a generator
            drawn = command != "generate" or data.draw(st.booleans(), label="drawn values")
            for flag in flags:
                value = data.draw(st.sampled_from(choices[flag]), label=flag) if drawn \
                    else _SMALLEST[flag]
                argv.append(f"{flag}={value}")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:  # argparse rejects the value
                    rc = exc.code
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_NUMERIC), (argv, err.getvalue())
        reached.append(len(calls) > before)

    run()
    if command == "generate":
        assert 3 * sum(reached) >= len(reached), f"{sum(reached)} of {len(reached)} examples"
