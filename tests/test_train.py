"""Training tests: optimizer behavior, batch assembly, collation, batches
that mix structures, and a short end-to-end smoke run."""

import numpy as np
import pytest

from csprefine.csp import AllDifferentExact, CspInstance, build_graph_coloring
from csprefine.model import DomainMismatch, init_weights
from csprefine.penalty import LossProgram, one_hot
from csprefine.tensor import Tape, Tensor, backward
from csprefine.train import (
    AdamW,
    OptimizerError,
    TrainConfig,
    _batch_loss,
    _collate,
    assemble_relaxed,
    prepare,
    random_assignment,
    train,
    train_epoch,
)
from conftest import replayed_mean_loss, sudoku_puzzle, tiny_config, toy_alldiff


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


def _quadratic_weights(value=1.0):
    cfg = tiny_config()
    w = init_weights(cfg, 3, np.random.default_rng(0))
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
    ctx, program = _collate(bundles)
    assert ctx.fixed_mask.shape == (3, 81)
    assert isinstance(program, LossProgram)


def test_collate_pairs_only_stacks(rng):
    insts = [
        build_graph_coloring(4, [(0, 1), (1, 2)], 3),
        build_graph_coloring(4, [(0, 3), (2, 3), (1, 3)], 3),
    ]
    cfg = tiny_config()
    bundles = prepare(insts, cfg)
    ctx, program = _collate(bundles)
    assert ctx.nonedge.shape == (2, 1, 4, 4)
    # each sample of the stack is scored against its own instance
    rel = rng.dirichlet(np.ones(3), size=(2, 4))
    got = program.loss(Tensor(rel)).data
    want = [b.program.loss(Tensor(r)).item() for b, r in zip(bundles, rel)]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert want[0] != want[1]


def test_batch_loss_mixes_sizes():
    # 4- and 5-variable instances in one chunk, interleaved
    insts = [
        build_graph_coloring(4, [(0, 1), (1, 2)], 3),
        build_graph_coloring(5, [(0, 1), (3, 4)], 3),
        build_graph_coloring(4, [(0, 3), (2, 3)], 3),
    ]
    cfg = tiny_config(sampler="softmax", ape_mode="1d")
    w = init_weights(cfg, 3, np.random.default_rng(2))
    bundles = prepare(insts, cfg)
    got = _batch_loss(w, bundles, np.random.default_rng(11), training=False)
    assert np.isclose(got.item(), replayed_mean_loss(w, bundles, 11), rtol=1e-12, atol=0.0)


def test_batch_loss_mixes_kinds():
    # a toy alldiff and a sudoku puzzle share only the domain size; the
    # 3x3 box has the toy's n but (row, col) indices, so its own table
    box = CspInstance(9, 9, tuple((r, c) for r in range(3) for c in range(3)),
                      (AllDifferentExact(tuple(range(9))),), (None,) * 9)
    cfg = tiny_config(sampler="softmax", ape_mode="multi")
    bundles = prepare([toy_alldiff(9), sudoku_puzzle(30, 0), box, toy_alldiff(9)], cfg)
    w = init_weights(cfg, 9, np.random.default_rng(4))
    got = _batch_loss(w, bundles, np.random.default_rng(5), training=False)
    assert np.isclose(got.item(), replayed_mean_loss(w, bundles, 5), rtol=1e-12, atol=0.0)
    # the mixed chunk backpropagates a finite gradient to every parameter
    with Tape():
        backward(_batch_loss(w, bundles, np.random.default_rng(5), training=False))
    assert all(np.all(np.isfinite(p.grad)) for _, p in w.named_parameters())


def test_collate_stacks_mixed_kinds(rng):
    # same n, m and index tuples is all a stack needs
    bundles = prepare([toy_alldiff(4), build_graph_coloring(4, [(0, 1), (2, 3)], 4)], tiny_config())
    _, program = _collate(bundles)
    rel = rng.dirichlet(np.ones(4), size=(2, 4))
    got = program.loss(Tensor(rel)).data
    want = [b.program.loss(Tensor(r)).item() for b, r in zip(bundles, rel)]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


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
    assert np.isclose(fast.item(), replayed_mean_loss(w, bundles, 11), rtol=1e-12, atol=0.0)


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
