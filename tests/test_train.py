"""Training tests: optimizer behavior, batch assembly, collation, batches
that mix structures, and a short end-to-end smoke run."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csprefine
import csprefine.tensor as T

from csprefine.csp import AllDifferentExact, CspInstance, build_graph_coloring, build_maxcut
from csprefine.data import gen_coloring_dataset
from csprefine.model import DomainMismatch, ModelConfig, init_weights
from csprefine.penalty import LossProgram, one_hot
from csprefine.tensor import Tape, Tensor, backward
from csprefine.train import (
    AdamW,
    OptimizerError,
    TrainConfig,
    TrainResult,
    _batch_loss,
    prepare,
    random_assignment,
    train,
    train_epoch,
)
from conftest import (
    COMPOSED_OPS,
    assemble_relaxed,
    bundles_of,
    reference_batch_loss,
    replayed_mean_loss,
    sudoku_puzzle,
    tiny_config,
    toy_alldiff,
)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)


def test_random_assignment_respects_fixed(rng):
    inst = sudoku_puzzle(30, 1)
    values = random_assignment(inst, rng)
    assert values.shape == (81,)
    assert np.all((0 <= values) & (values < 9))
    for i, v in enumerate(inst.fixed):
        if v is not None:
            assert values[i] == v


def test_random_assignment_replays_the_per_variable_loop():
    # the compiled fixed arrays give the same values as overwriting one
    # uniform draw variable by variable, so every training stream is kept
    inst = sudoku_puzzle(40, 3)
    for seed in range(5):
        want = np.random.default_rng(seed).integers(0, inst.m, size=inst.n)
        for i, v in enumerate(inst.fixed):
            if v is not None:
                want[i] = v
        got = random_assignment(inst, np.random.default_rng(seed))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # pinned: the first 12 values for seed 0
    got = random_assignment(inst, np.random.default_rng(0))
    assert got[:12].tolist() == [0, 5, 2, 2, 2, 5, 0, 0, 1, 7, 5, 5]


def test_assemble_relaxed_mixes_rows(rng):
    values = np.array([[0, 1, 2]])
    selected = np.array([[False, True, False]])
    yhat = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 3)))
    rel = assemble_relaxed(values, selected, yhat)
    assert np.array_equal(rel.data[0, 0], one_hot(np.array(0), 3))
    assert np.allclose(rel.data[0, 1], yhat.data[0, 1])
    assert np.array_equal(rel.data[0, 2], one_hot(np.array(2), 3))


def test_assemble_relaxed_gradient_only_through_selected(rng):
    values = np.array([[0, 1]])
    selected = np.array([[False, True]])
    yhat = Tensor(rng.uniform(0.1, 0.9, size=(1, 2, 2)), requires_grad=True)
    with Tape():
        rel = assemble_relaxed(values, selected, yhat)
        backward((rel * rel).sum())
    assert np.all(yhat.grad[0, 0] == 0.0)
    assert np.any(yhat.grad[0, 1] != 0.0)


# ---------------------------------------------------------------------------
# Optimizer


def _quadratic_weights(dtype=np.float32):
    cfg = tiny_config()
    w = init_weights(cfg, 3, np.random.default_rng(0), dtype=dtype)
    return w


def test_adamw_decay_is_decoupled():
    w = _quadratic_weights()
    cfg = TrainConfig(lr=0.1, weight_decay=0.5)
    opt = AdamW(w, cfg)
    before = {k: p.data.copy() for k, p in w.named_parameters()}
    for _, p in w.named_parameters():
        p.grad = np.zeros_like(p.data)
    opt.step()
    # zero gradient: matrices shrink by exactly lr*decay, norm params do not
    assert np.allclose(w["w_out"].data, before["w_out"] * (1.0 - 0.1 * 0.5))
    assert np.allclose(w["lnf.g"].data, before["lnf.g"])
    assert np.allclose(w["alpha"].data, before["alpha"])


def test_adamw_step_direction():
    w = _quadratic_weights()
    cfg = TrainConfig(lr=0.01, weight_decay=0.0)
    opt = AdamW(w, cfg)
    before = w["b_out"].data.copy()
    for name, p in w.named_parameters():
        p.grad = np.ones_like(p.data)
    opt.step()
    # positive gradient moves parameters down by ~lr after bias correction
    assert np.allclose(w["b_out"].data, before - 0.01, atol=1e-6)


def test_adamw_rejects_non_finite_gradient():
    w = _quadratic_weights()
    opt = AdamW(w, TrainConfig())
    for _, p in w.named_parameters():
        p.grad = np.zeros_like(p.data)
    w["w_out"].grad[0, 0] = np.nan
    with pytest.raises(OptimizerError):
        opt.step()


def test_adamw_grad_clip_scales_global_norm():
    w = _quadratic_weights()
    cfg_clip = TrainConfig(lr=0.1, weight_decay=0.0, grad_clip=1e-9)
    opt = AdamW(w, cfg_clip)
    before = {k: p.data.copy() for k, p in w.named_parameters()}
    for _, p in w.named_parameters():
        p.grad = np.full_like(p.data, 100.0)
    opt.step()
    # the clipped gradient is tiny but adam renormalizes direction; the
    # update magnitude must stay bounded by lr
    for name, p in w.named_parameters():
        assert np.all(np.abs(p.data - before[name]) <= 0.1 + 1e-12)


@pytest.mark.parametrize("grad_clip", [None, 1.0])
def test_adamw_bytes_match_the_plain_update(grad_clip):
    # three steps against the update written out as whole-array expressions
    w = _quadratic_weights(np.float64)
    cfg = TrainConfig(lr=0.01, weight_decay=0.1, grad_clip=grad_clip)
    opt = AdamW(w, cfg)
    p_ref = {k: p.data.copy() for k, p in w.named_parameters()}
    m_ref = {k: np.zeros_like(p) for k, p in p_ref.items()}
    v_ref = {k: np.zeros_like(p) for k, p in p_ref.items()}
    rng = np.random.default_rng(4)
    for t in range(1, 4):
        grads = {k: rng.normal(size=p.shape) for k, p in p_ref.items()}
        grads["alpha"] = np.zeros(())  # a parameter that got no gradient
        for k, p in w.named_parameters():
            p.grad = None if k == "alpha" else grads[k].copy()
        opt.step()
        if grad_clip is not None:
            norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            assert norm > grad_clip
            grads = {k: g * (grad_clip / norm) for k, g in grads.items()}
        for k, g in grads.items():
            m_ref[k] = 0.9 * m_ref[k] + (1.0 - 0.9) * g
            v_ref[k] = 0.999 * v_ref[k] + (1.0 - 0.999) * g * g
            mhat = m_ref[k] / (1.0 - 0.9**t)
            vhat = v_ref[k] / (1.0 - 0.999**t)
            if p_ref[k].ndim > 0 and "ln" not in k:
                p_ref[k] *= 1.0 - cfg.lr * cfg.weight_decay
            p_ref[k] -= cfg.lr * mhat / (np.sqrt(vhat) + 1e-8)
    for k, p in w.named_parameters():
        assert p.data.tobytes() == p_ref[k].tobytes(), k
        assert opt.m[k].tobytes() == m_ref[k].tobytes(), k
        assert opt.v[k].tobytes() == v_ref[k].tobytes(), k


def test_adamw_holds_the_parameters_as_views_of_one_buffer():
    w = _quadratic_weights()
    before = {k: p.data.copy() for k, p in w.named_parameters()}
    opt = AdamW(w, TrainConfig())
    flat = w["embed"].data.base
    for k, p in w.named_parameters():
        assert p.data.base is flat and p.data.tobytes() == before[k].tobytes(), k
        assert opt.m[k].shape == opt.v[k].shape == p.data.shape, k
    # the decaying parameters fill one leading slice of the buffer
    decaying = [k for k, p in w.named_parameters() if p.data.ndim > 0 and "ln" not in k]
    ends = {k: (p.data.ctypes.data - flat.ctypes.data) // flat.itemsize + p.data.size
            for k, p in w.named_parameters()}
    assert max(ends[k] for k in decaying) == sum(w[k].data.size for k in decaying)


def test_load_best_keeps_the_optimizer_views():
    w = _quadratic_weights()
    opt = AdamW(w, TrainConfig(lr=0.1))
    best = {k: p.data.copy() for k, p in w.named_parameters()}
    for _, p in w.named_parameters():
        p.grad = np.ones_like(p.data)
    opt.step()
    views = {k: p.data for k, p in w.named_parameters()}
    TrainResult(w, best).load_best()
    for k, p in w.named_parameters():
        assert p.data is views[k] and p.data.tobytes() == best[k].tobytes(), k
    # the optimizer still updates the loaded weights
    opt.step()
    assert not np.array_equal(w["w_out"].data, best["w_out"])


def test_adamw_names_the_first_non_finite_parameter_in_parameter_order():
    # alpha comes before w_out among the parameters, but after it in the
    # buffer, where the decaying parameters come first
    w = _quadratic_weights()
    opt = AdamW(w, TrainConfig())
    for _, p in w.named_parameters():
        p.grad = np.zeros_like(p.data)
    w["w_out"].grad[0, 0] = np.inf
    w["alpha"].grad = np.array(np.nan, dtype=np.float32)
    with pytest.raises(OptimizerError, match="non-finite gradient in parameter 'alpha'"):
        opt.step()
    w["alpha"].grad = np.zeros((), dtype=np.float32)
    with pytest.raises(OptimizerError, match="non-finite gradient in parameter 'w_out'"):
        opt.step()
    # an update that overflows: lr 1e39 is inf in float32 and turns every parameter
    # non-finite, and the first of them is named
    w = _quadratic_weights()
    opt = AdamW(w, TrainConfig(lr=1e39, weight_decay=0.0))
    for _, p in w.named_parameters():
        p.grad = np.ones_like(p.data)
    first = next(iter(w.params))
    with pytest.raises(OptimizerError, match=f"parameter {first!r} after the update"):
        opt.step()


def test_adamw_rejects_parameters_of_two_dtypes():
    w = _quadratic_weights()
    w["alpha"].data = w["alpha"].data.astype(np.float64)
    with pytest.raises(ValueError, match="one dtype"):
        AdamW(w, TrainConfig())


def test_fused_ops_give_the_composed_gradients_on_a_coloring_step(monkeypatch):
    # one training step of the coloring20 benchmark model, batch 16
    cfg = ModelConfig(layers=2, heads=2, d_model=64, select_p=0.3, rpe_mode="masked",
                      ape_mode="none", tau=0.1, sampler="gumbel", dropout=0.0)
    instances, _ = gen_coloring_dataset(16, 20, seed=1, fixed_k=5, pose_at_greedy=True)
    w = init_weights(cfg, 5, np.random.default_rng(1), dtype=np.float64)
    bundles = prepare(instances, cfg)

    def step():
        w.zero_grad()
        with Tape() as tape:
            loss = _batch_loss(w, bundles, np.random.default_rng(2))
            backward(loss)
        # intermediate gradients are released; every parameter has its own
        assert all(out.grad is None for out, _, _ in tape.ops)
        grads = [p.grad for _, p in w.named_parameters()]
        assert all(g is not None for g in grads)
        assert not any(np.shares_memory(g, h) for i, g in enumerate(grads) for h in grads[i + 1:])
        return loss.item(), len(tape.ops), {k: p.grad for k, p in w.named_parameters()}

    loss, ops, grads = step()
    for name, op in COMPOSED_OPS.items():
        monkeypatch.setattr(T, name, op)
    ref_loss, ref_ops, ref_grads = step()
    assert ops < ref_ops
    assert np.isclose(loss, ref_loss, rtol=1e-12, atol=0.0)
    for k, ref in ref_grads.items():
        assert np.allclose(grads[k], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()), k


def test_train_epoch_ignores_stale_grads():
    # gradients left on the weights before an epoch do not leak into its steps
    cfg = tiny_config(sampler="softmax")
    tcfg = TrainConfig(batch_size=4, epochs=1, lr=1e-2, seed=0)
    bundles = prepare([toy_alldiff(4)] * 8, cfg)
    clean, stale = (init_weights(cfg, 4, np.random.default_rng(0)) for _ in range(2))
    for _, p in stale.named_parameters():
        p.grad = np.full_like(p.data, 1e3)
    for w in (clean, stale):
        train_epoch(w, AdamW(w, tcfg), bundles, tcfg, np.random.default_rng(0))
    for name, p in clean.named_parameters():
        assert np.array_equal(p.data, stale[name].data), name


# ---------------------------------------------------------------------------
# Collation


def test_collate_identical_structure():
    insts = [sudoku_puzzle(20, s) for s in range(3)]
    cfg = tiny_config()
    bundles = prepare(insts, cfg)
    ((ctx, program, _, _),) = bundles.draw(np.arange(3), cfg.select_p, np.random.default_rng(0))
    assert ctx.keep.shape == (3, 1, 81, 81)
    assert isinstance(program, LossProgram)


def test_collate_pairs_only_stacks(rng):
    insts = [
        build_graph_coloring(4, [(0, 1), (1, 2)], 3),
        build_graph_coloring(4, [(0, 3), (2, 3), (1, 3)], 3),
    ]
    cfg = tiny_config()
    bundles = prepare(insts, cfg)
    ((ctx, program, _, _),) = bundles.draw(np.arange(2), cfg.select_p, np.random.default_rng(0))
    assert ctx.keep.shape == (2, 1, 4, 4)
    # each sample of the stack is scored against its own instance
    rel = rng.dirichlet(np.ones(3), size=(2, 4))
    got = program.loss(Tensor(rel)).data
    want = [b.program.loss(Tensor(r)).item() for b, r in zip(bundles_of(insts, cfg), rel)]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert want[0] != want[1]


def test_prepare_rejects_mixed_domain_sizes():
    # one model has one value embedding, and a batch draws every start
    # value from one domain
    with pytest.raises(ValueError, match="domain sizes"):
        prepare([toy_alldiff(3), toy_alldiff(4)], tiny_config())


def test_batch_loss_mixes_sizes():
    # 4- and 5-variable instances in one chunk, interleaved
    insts = [
        build_graph_coloring(4, [(0, 1), (1, 2)], 3),
        build_graph_coloring(5, [(0, 1), (3, 4)], 3),
        build_graph_coloring(4, [(0, 3), (2, 3)], 3),
    ]
    cfg = tiny_config(sampler="softmax", ape_mode="multi")
    w = init_weights(cfg, 3, np.random.default_rng(2), dtype=np.float64)
    bundles = prepare(insts, cfg)
    got = _batch_loss(w, bundles, np.random.default_rng(11), training=False)
    assert np.isclose(got.item(), replayed_mean_loss(w, bundles_of(insts, cfg), 11),
                      rtol=1e-12, atol=0.0)


def test_batch_loss_mixes_kinds():
    # a toy alldiff and a sudoku puzzle share only the domain size; the
    # 3x3 box has the toy's n but (row, col) indices, so its own table
    box = CspInstance(9, 9, tuple((r, c) for r in range(3) for c in range(3)),
                      (AllDifferentExact(tuple(range(9))),), (None,) * 9)
    cfg = tiny_config(sampler="softmax", ape_mode="multi")
    insts = [toy_alldiff(9), sudoku_puzzle(30, 0), box, toy_alldiff(9)]
    bundles = prepare(insts, cfg)
    w = init_weights(cfg, 9, np.random.default_rng(4), dtype=np.float64)
    got = _batch_loss(w, bundles, np.random.default_rng(5), training=False)
    assert np.isclose(got.item(), replayed_mean_loss(w, bundles_of(insts, cfg), 5),
                      rtol=1e-12, atol=0.0)
    # the mixed chunk backpropagates a finite gradient to every parameter
    with Tape():
        backward(_batch_loss(w, bundles, np.random.default_rng(5), training=False))
    assert all(np.all(np.isfinite(p.grad)) for _, p in w.named_parameters())


def test_batch_loss_scores_each_instance_under_its_own_mode():
    # a 2-coloring and a maxcut on the same 4 vertices share index tuples;
    # the maxcut keeps its identity transform, and so the sign of its -2 edge
    coloring = build_graph_coloring(4, [(0, 1), (1, 2), (2, 3)], 2)
    maxcut = build_maxcut(4, [(0, 1, 1.0), (1, 2, -2.0), (2, 3, 1.0), (0, 3, 1.0)])
    cfg = tiny_config(sampler="softmax")
    w = init_weights(cfg, 2, np.random.default_rng(3), dtype=np.float64)
    bundles = prepare([coloring, maxcut], cfg)
    got = _batch_loss(w, bundles, np.random.default_rng(7), training=False)
    assert np.isclose(got.item(), replayed_mean_loss(w, bundles_of([coloring, maxcut], cfg), 7),
                      rtol=0.0, atol=1e-12)


def test_collate_stacks_mixed_kinds(rng):
    # same n, m and index tuples is all a stack needs
    insts = [toy_alldiff(4), build_graph_coloring(4, [(0, 1), (2, 3)], 4)]
    bundles = prepare(insts, tiny_config())
    ((_, program, _, _),) = bundles.draw(np.arange(2), 0.5, np.random.default_rng(0))
    rel = rng.dirichlet(np.ones(4), size=(2, 4))
    got = program.loss(Tensor(rel)).data
    want = [b.program.loss(Tensor(r)).item() for b, r in zip(bundles_of(insts, tiny_config()), rel)]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("training", [False, True], ids=["probe", "training"])
def test_batch_loss_gives_the_bytes_of_per_sample_draws_and_collation(training):
    # mixed sizes and kinds in one shuffled batch, with givens, gumbel noise
    # and, in training, dropout: the loss and every gradient, byte for byte
    insts = [sudoku_puzzle(30, 0), toy_alldiff(9), sudoku_puzzle(50, 1), toy_alldiff(9),
             build_graph_coloring(5, [(0, 1), (3, 4)], 9), sudoku_puzzle(81, 2)]
    cfg = tiny_config(sampler="gumbel", ape_mode="multi", dropout=0.2, select_p=0.3)
    bundles = prepare(insts, cfg)
    idx = np.array([3, 0, 5, 4, 1])

    def run(loss_fn):
        w = init_weights(cfg, 9, np.random.default_rng(4), dtype=np.float32)
        rng = np.random.default_rng(6)
        with Tape():
            loss = loss_fn(w, rng)
            backward(loss)
        return loss.data.tobytes(), {k: p.grad.tobytes() for k, p in w.named_parameters()}, \
            rng.bit_generator.state

    got = run(lambda w, rng: _batch_loss(w, bundles, rng, training=training, idx=idx))
    want = run(lambda w, rng: reference_batch_loss(w, bundles_of([insts[i] for i in idx], cfg),
                                                   rng, training=training))
    assert got == want


def test_batch_loss_same_for_collated_and_loop():
    # the collated batch must agree with each instance's own program
    insts = [
        build_graph_coloring(4, [(0, 1), (1, 2)], 3),
        build_graph_coloring(4, [(0, 3), (2, 3)], 3),
    ]
    cfg = tiny_config(sampler="softmax", select_p=1.0)
    w = init_weights(cfg, 3, np.random.default_rng(2))
    bundles = prepare(insts, cfg)
    fast = _batch_loss(w, bundles, np.random.default_rng(11), training=False)
    assert np.isclose(fast.item(), replayed_mean_loss(w, bundles_of(insts, cfg), 11),
                      rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# End-to-end smoke


def test_train_epoch_returns_finite_loss():
    inst = toy_alldiff(4)
    cfg = tiny_config(sampler="softmax")
    w = init_weights(cfg, 4, np.random.default_rng(0))
    tcfg = TrainConfig(batch_size=8, epochs=1, lr=1e-3, seed=0)
    opt = AdamW(w, tcfg)
    bundles = prepare([inst] * 16, cfg)
    loss = train_epoch(w, opt, bundles, tcfg, np.random.default_rng(0))
    assert np.isfinite(loss) and loss > 0.0


def test_train_epoch_rejects_empty_dataset():
    cfg = tiny_config()
    w = init_weights(cfg, 4, np.random.default_rng(0))
    tcfg = TrainConfig()
    with pytest.raises(ValueError):
        train_epoch(w, AdamW(w, tcfg), [], tcfg, np.random.default_rng(0))


def test_prepare_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty training dataset"):
        prepare([], tiny_config())


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty training dataset"):
        train([], tiny_config(), TrainConfig(epochs=1))


def test_train_on_mixed_sizes():
    insts = [build_graph_coloring(n, [(0, 1), (1, 2)], 3) for n in (4, 5, 4, 6, 5)]
    cfg = tiny_config(sampler="gumbel", ape_mode="multi", dropout=0.1)
    tcfg = TrainConfig(batch_size=3, epochs=3, lr=1e-3, seed=2)
    a = train(insts, cfg, tcfg)
    b = train(insts, cfg, tcfg)
    assert len(a.history) == 3 and np.all(np.isfinite(a.history))
    assert a.history == b.history


def test_train_rejects_other_domain_sizes():
    # a coloring dataset generated without a fixed k mixes domain sizes
    insts = [build_graph_coloring(3, [(0, 1), (1, 2)], k) for k in (3, 4)]
    tcfg = TrainConfig(batch_size=2, epochs=1, seed=0)
    with pytest.raises(DomainMismatch):
        train(insts, tiny_config(), tcfg)
    w = init_weights(tiny_config(), 4, np.random.default_rng(0))
    with pytest.raises(DomainMismatch):
        train(insts[1:] + insts[:1], tiny_config(), tcfg, weights=w)


def test_train_rejects_weights_of_another_config():
    # the positional tables come from the model config and forward runs the
    # weights' config: "none" tables under "multi" weights trained silently
    insts = [toy_alldiff(4)] * 4
    tcfg = TrainConfig(batch_size=2, epochs=1, seed=0)
    w = init_weights(tiny_config(ape_mode="multi"), 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="cannot train under"):
        train(insts, tiny_config(ape_mode="none"), tcfg, weights=w)
    assert len(train(insts, w.config, tcfg, weights=w).history) == 1


def test_train_reduces_loss_and_tracks_best():
    inst = toy_alldiff(4)
    cfg = tiny_config(layers=2, d_model=32, sampler="softmax", tau=1.0, select_p=1.0)
    tcfg = TrainConfig(batch_size=16, epochs=30, lr=3e-3, weight_decay=0.0, seed=5)
    logs = []
    result = train([inst] * 16, cfg, tcfg, log=logs.append)
    assert len(result.history) == 30
    assert len(logs) == 30
    assert "epoch=0" in logs[0] and "loss=" in logs[0]
    assert min(result.history[-5:]) < result.history[0]
    best = result.load_best()
    assert min(result.history) <= result.history[-1] + 1e-12
    assert best is result.weights


def test_train_is_deterministic_given_seed():
    inst = toy_alldiff(4)
    cfg = tiny_config(sampler="gumbel")
    tcfg = TrainConfig(batch_size=8, epochs=3, lr=1e-3, seed=9)
    a = train([inst] * 8, cfg, tcfg)
    b = train([inst] * 8, cfg, tcfg)
    assert a.history == b.history
    for name, p in a.weights.named_parameters():
        assert np.array_equal(p.data, b.weights.params[name].data)


train_module = importlib.import_module("csprefine.train")  # the package exports train()


def _snapshot(w):
    return {k: p.data.copy() for k, p in w.named_parameters()}


def test_train_keeps_the_weights_with_the_lowest_probe_loss(monkeypatch):
    inst = toy_alldiff(4)
    cfg = tiny_config(sampler="gumbel", dropout=0.1)
    tcfg = TrainConfig(batch_size=8, epochs=8, lr=3e-2, seed=4)
    scored = []
    real = train_module._probe_loss

    def recording(w, data, cfg):
        loss = real(w, data, cfg)
        scored.append((loss, _snapshot(w)))
        return loss

    monkeypatch.setattr(train_module, "_probe_loss", recording)
    result = train([inst] * 16, cfg, tcfg)
    assert len(scored) == 8
    loss, want = min(scored, key=lambda pair: pair[0])
    for name, p in want.items():
        assert np.array_equal(result.best_params[name], p), name
    # the probe is pinned: the kept weights score the same again
    assert real(result.load_best(), prepare([inst] * 16, cfg), tcfg) == loss

    # the probe draws from its own rng: the training stream does not see it
    monkeypatch.setattr(train_module, "_probe_loss", lambda w, data, cfg: 0.0)
    assert train([inst] * 16, cfg, tcfg).history == result.history


def test_the_probe_scores_as_a_fresh_draw_each_epoch(monkeypatch):
    # the first 6 of 9 mixed instances, gumbel noise: each epoch's probe
    # loss, the history and the kept weights are those of a probe batch
    # drawn afresh from default_rng([seed, 1]) on every call by the per-row
    # reference
    insts = [build_graph_coloring(n, [(0, 1), (1, 2), (0, n - 1)], 3) for n in (4, 5, 4, 6, 5, 4, 6, 4, 5)]
    cfg = tiny_config(sampler="gumbel", ape_mode="multi", dropout=0.1)
    tcfg = TrainConfig(batch_size=6, epochs=6, lr=3e-2, seed=4)
    real = train_module._probe_loss
    probed, fresh = [], []

    def recording(w, data, train_cfg):
        probed.append(real(w, data, train_cfg))
        return probed[-1]

    def fresh_draw(w, data, train_cfg):
        with T.no_grad():
            loss = reference_batch_loss(w, bundles_of(insts[:6], cfg),
                                        np.random.default_rng([tcfg.seed, 1]), training=False)
        fresh.append(loss.item())
        return fresh[-1]

    monkeypatch.setattr(train_module, "_probe_loss", recording)
    a = train(insts, cfg, tcfg)
    monkeypatch.setattr(train_module, "_probe_loss", fresh_draw)
    b = train(insts, cfg, tcfg)
    assert len(set(probed)) > 1 and probed == fresh
    assert a.history == b.history
    for name, p in a.best_params.items():
        assert p.tobytes() == b.best_params[name].tobytes(), name


def test_train_never_keeps_a_non_finite_probe_loss(monkeypatch):
    inst = toy_alldiff(4)
    cfg = tiny_config(sampler="softmax")
    tcfg = TrainConfig(batch_size=8, epochs=2, lr=1e-2, seed=1)
    w = init_weights(cfg, 4, np.random.default_rng(0))
    start = _snapshot(w)
    monkeypatch.setattr(train_module, "_probe_loss", lambda w, data, cfg: float("nan"))
    result = train([inst] * 8, cfg, tcfg, weights=w)
    assert not np.array_equal(result.weights["w_out"].data, start["w_out"])
    for name, p in start.items():
        assert np.array_equal(result.best_params[name], p), name


_SUDOKU_TRAIN = """
import json, sys
import numpy as np
from conftest import sudoku_puzzle
from csprefine.model import ModelConfig, init_weights
from csprefine.train import TrainConfig, train
cfg = ModelConfig(layers=3, heads=3, d_model=96, select_p=0.5, rpe_mode="masked",
                  ape_mode="multi", tau=0.1, sampler="gumbel", dropout=0.1)
insts = [sudoku_puzzle(40, i) for i in range(32)]
w = init_weights(cfg, 9, np.random.default_rng(0), dtype=np.float64)
result = train(insts, cfg, TrainConfig(batch_size=16, epochs=2, lr=1e-3, seed=0), weights=w)
np.savez(sys.argv[1], **{k: p.data for k, p in result.weights.named_parameters()})
print(json.dumps(result.history))
"""


def test_training_agrees_across_blas_thread_counts(tmp_path):
    # OpenBLAS may split a large GEMM (here a weight gradient over 16x81
    # rows) across threads, which changes its summation order. Over six seeds
    # of this float64 run, 1 and 2 threads gave weights within 2.2e-15 and
    # losses within 1.2e-15 relative after four steps; 1e-12 is 450 times
    # the widest.
    src = Path(csprefine.__file__).parents[1]
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
        out = tmp_path / f"weights{threads}.npz"
        done = subprocess.run([sys.executable, "-c", _SUDOKU_TRAIN, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append((json.loads(done.stdout), dict(np.load(out))))
    (h1, w1), (h2, w2) = runs
    assert np.allclose(h1, h2, rtol=1e-12, atol=0.0)
    assert w1.keys() == w2.keys()
    for name in w1:
        assert np.allclose(w1[name], w2[name], rtol=0.0, atol=1e-12), name
