"""Shared fixtures and small builders used across the test modules."""

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import csprefine.tensor as T
from csprefine.csp import (
    AllDifferentExact,
    CspInstance,
    build_sudoku,
    total_violation,
    violation_degree,
)
from csprefine.data import gen_coloring_dataset
from csprefine.model import (
    InstanceContext,
    ModelConfig,
    apply_update,
    forward,
    random_assignment,
    select_subset,
)
from csprefine.penalty import LossProgram, one_hot
from csprefine.solve import cut_value
from csprefine.tensor import Tape, Tensor, backward


def toy_alldiff(n: int = 4) -> CspInstance:
    """Single exact alldifferent over n variables with n values."""
    return CspInstance(
        n=n,
        m=n,
        index_tuples=tuple((i,) for i in range(n)),
        constraints=(AllDifferentExact(tuple(range(n))),),
        fixed=(None,) * n,
    )


def full_sudoku_grid() -> np.ndarray:
    """A complete valid sudoku grid as 81 digits in 1..9."""
    return np.array(
        [(i * 3 + i // 3 + j) % 9 + 1 for i in range(9) for j in range(9)]
    )


def sudoku_puzzle(missing: int, seed: int):
    """Blank ``missing`` random cells of the full grid. Every puzzle is a
    blanking of that one grid, so all of them share one solution; only the
    benchmark's workloads draw random grids."""
    grid = full_sudoku_grid()
    rng = np.random.default_rng(seed)
    blank = rng.choice(81, size=missing, replace=False)
    givens = grid.copy()
    givens[blank] = 0
    return build_sudoku(givens.tolist())


def workload_instances(workload: str, count: int):
    """Instances shaped like a benchmark workload's: 40-blank sudoku
    puzzles, or 20-vertex coloring posed with 5 colors."""
    if workload == "sudoku":
        return [sudoku_puzzle(40, i) for i in range(count)]
    return gen_coloring_dataset(count, 20, seed=1, fixed_k=5, pose_at_greedy=True)[0]


def tiny_config(**kw) -> ModelConfig:
    """Small deterministic model for unit tests."""
    base = dict(
        layers=1,
        heads=1,
        d_model=16,
        select_p=0.5,
        rpe_mode="masked",
        ape_mode="none",
        tau=0.5,
        sampler="softmax",
        dropout=0.0,
        ffn_mult=1,
    )
    base.update(kw)
    return ModelConfig(**base)


def assemble_relaxed(values: np.ndarray, selected: np.ndarray, yhat: Tensor) -> Tensor:
    """Soft rows for selected variables, exact one-hot rows elsewhere, in
    ``yhat``'s dtype: the relaxed assignment that ``forward`` returns,
    written out of elementwise ops as its reference."""
    m, dt = yhat.shape[-1], yhat.data.dtype
    sel = Tensor(selected[..., None].astype(dt))
    hard = Tensor(one_hot(values, m).astype(dt, copy=False))
    return sel * yhat + (1.0 - sel) * hard


# The fused ops written out of elementwise ops: the references that
# ``tensor.layer_norm``, ``tensor.linear`` and ``tensor.attention`` must
# match in value and gradient.


def composed_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = T.square(centered).mean(axis=-1, keepdims=True)
    inv = T.pow_scalar(var + eps, -0.5)
    return centered * inv * g + b


def composed_linear(x, w, b):
    return x @ w + b


_softmax = T.softmax  # the op itself, before any test patches it


def composed_attention(x, wq, wk, wv, wo, heads, keep, rows=None, offset=None):
    """The attention block over every row, written out of elementwise ops:
    three projections, each split into heads, the scaled logits, a -inf
    bias where ``keep`` is 0 (or ``offset`` there), the softmax, A V, the
    heads merged and the output projection; then the rows of ``rows``,
    picked by a one-hot matmul."""
    B, n, d = x.shape
    dh, dt = d // heads, x.data.dtype

    def split(t):  # (B, n, d) -> (B, heads, n, dh)
        return T.transpose(t.reshape(B, n, heads, dh), (0, 2, 1, 3))

    q, k, v = split(x @ wq), split(x @ wk), split(x @ wv)
    logits = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    if offset is None:
        logits = logits + Tensor(np.where(keep, 0.0, -np.inf).astype(dt))
    else:
        logits = logits + offset * Tensor((1.0 - keep).astype(dt))
    z = T.matmul(_softmax(logits, axis=-1), v)  # (B, heads, n, dh)
    z = T.transpose(z, (0, 2, 1, 3)).reshape(B, n, d) @ wo
    if rows is None:
        return z
    pick = np.zeros((B, rows.shape[1], n), dtype=dt)
    pick[np.arange(B)[:, None], np.arange(rows.shape[1]), rows] = 1.0
    return T.matmul(Tensor(pick), z)


COMPOSED_OPS = {"layer_norm": composed_layer_norm, "linear": composed_linear,
                "attention": composed_attention}


# The row and loop forms that faster code replaced: the references whose
# results it must equal byte for byte.


def row_scatter_add(target, rows, values):
    """``tensor._scatter_add`` as the row form it replaced: one
    ``np.add.at`` with ``rows`` as an index into axis 0 of ``target``."""
    np.add.at(target, np.asarray(rows).reshape(-1), values.reshape(-1, *target.shape[1:]))


def loop_pad_stack(arrays, fill=0):
    """``penalty._pad_stack`` as the per-sample loop it replaced."""
    first = arrays[0]
    out = np.full((len(arrays), max(len(a) for a in arrays)) + first.shape[1:], fill, first.dtype)
    for b, a in enumerate(arrays):
        out[b, : len(a)] = a
    return out


def dense_reference_forward(w, ctx, values, selected, rng=None, training=False):
    """The dense form of ``model.forward``: every layer and the head run on
    all n rows, and the result is the (B, n, m) distribution of every row.
    ``forward`` with ``[rng] * B`` must equal
    ``assemble_relaxed(values, selected, dense_reference_forward(..., rng))``
    and leave ``rng`` in the same state. Each dropout mask and the noise is
    one whole-shape draw from ``rng``, not a fill row by row."""
    cfg = w.config
    dt = w.dtype

    def dropout(x):
        if not training or cfg.dropout == 0.0:
            return x
        scale = 1 / dt.type(1.0 - cfg.dropout)
        return x * Tensor(np.where(rng.random(x.shape) >= cfg.dropout, scale, 0).astype(dt))

    sel = Tensor(selected[..., None].astype(dt))
    emb = T.gather_rows(w["embed"], values)
    ape = Tensor(ctx.ape.astype(dt, copy=False))
    h = w["alpha"] * emb + w["beta"] * ape + w["gamma"] * (sel * w["select_embed"])
    offset = -T.log(1.0 + T.exp(w["rpe_theta"])) if cfg.rpe_mode == "learned" else None
    for l in range(cfg.layers):
        x = T.layer_norm(h, w[f"l{l}.ln1.g"], w[f"l{l}.ln1.b"])
        z = composed_attention(x, w[f"l{l}.wq"], w[f"l{l}.wk"], w[f"l{l}.wv"], w[f"l{l}.wo"],
                               cfg.heads, ctx.keep, offset=offset)
        h = h + dropout(z)
        x = T.layer_norm(h, w[f"l{l}.ln2.g"], w[f"l{l}.ln2.b"])
        x = T.gelu(T.linear(x, w[f"l{l}.w1"], w[f"l{l}.b1"]))
        x = T.linear(x, w[f"l{l}.w2"], w[f"l{l}.b2"])
        h = h + dropout(x)
    h = T.layer_norm(h, w["lnf.g"], w["lnf.b"])
    out_logits = T.linear(h, w["w_out"], w["b_out"])
    if cfg.sampler == "gumbel":
        u = np.clip(rng.random(out_logits.shape), 1e-12, 1.0 - 1e-12)
        out_logits = out_logits + Tensor((-np.log(-np.log(u))).astype(dt))
    return _softmax(out_logits * (1.0 / cfg.tau), axis=-1)


class Bundle(NamedTuple):
    """One instance with its own attention context and loss program."""

    inst: CspInstance
    ctx: InstanceContext
    program: LossProgram


def bundles_of(insts, cfg: ModelConfig, loss_cfg=None) -> list[Bundle]:
    """Each instance's bundle built afresh, one at a time: the reference
    that the batches cut from ``train.prepare`` of the same instances must
    match."""
    return [Bundle(inst, InstanceContext.build(inst, cfg), LossProgram(inst, loss_cfg))
            for inst in insts]


def collate(bundles):
    """Batched (ctx, loss program) of bundles that share index tuples, and
    so n and the positional table, and the penalty transform, collated from
    the bundles themselves: each sample's attention mask stacked to
    (B, 1, n, n), and its compiled constraints stacked and padded to the
    batch's longest. A batch cut from a prepared training set must equal
    it byte for byte."""
    ctx = InstanceContext(bundles[0].ctx.ape, np.stack([b.ctx.keep for b in bundles])[:, None])
    return ctx, LossProgram.stack([b.program for b in bundles])


def loop_subsets(fixed, p: float, rngs):
    """``model.select_subset``'s draw rule as a plain per-row loop over a
    (B, n) ``fixed`` mask, with one generator per row; rows may share one.
    Every row that has a free variable draws n uniforms from its generator,
    in row order; then each row that selected nothing draws n again from
    its own, in row order, until it selects something. Returns the subsets
    and the rows that drew again."""
    sel = np.zeros(fixed.shape, dtype=bool)
    for b, row in enumerate(fixed):
        if not row.all():
            sel[b] = (rngs[b].random(len(row)) < p) & ~row
    redrawn = [b for b, row in enumerate(fixed) if not row.all() and not sel[b].any()]
    for b in redrawn:
        while not sel[b].any():
            sel[b] = (rngs[b].random(len(fixed[b])) < p) & ~fixed[b]
    return sel, redrawn


def loop_draws(insts, p: float, rng):
    """A training batch's start values and subsets by the draw rule, as
    plain per-row loops from ``rng`` over the givens padded to the batch's
    longest instance, a padding column given: every value row, a uniform
    value per column, then the subsets (:func:`loop_subsets`). Returns
    each instance's rows, cut to its n, and the rows that drew a subset
    again. ``TrainingSet.draw`` must give these rows."""
    width = max(inst.n for inst in insts)
    fixed = np.ones((len(insts), width), dtype=bool)
    values = []
    for b, inst in enumerate(insts):
        cc = inst.compiled
        fixed[b, : inst.n] = cc.fixed_mask
        row = rng.integers(0, inst.m, size=width)
        values.append(np.where(cc.fixed_mask, cc.fixed_values, row[: inst.n]))
    selected, redrawn = loop_subsets(fixed, p, [rng] * len(insts))
    return values, [sel[: inst.n] for sel, inst in zip(selected, insts)], redrawn


def per_sample_draws(insts, p: float, rng):
    """A batch's start values and subsets drawn one instance at a time, in
    batch order: every value row first, then every subset row, each subset
    drawn again at once until it selects something. An independent check
    of the draw rule: on a batch of one size in which no subset is drawn
    again, :func:`loop_draws` gives these rows."""
    values = [random_assignment(inst, rng) for inst in insts]
    selected = [select_subset(inst.compiled.fixed_mask, p, rng) for inst in insts]
    return values, selected


def reference_batch_loss(w, bundles, rng, training=True) -> Tensor:
    """The mean loss of one batch of bundles from the row-loop draws
    (:func:`loop_draws`) and per-batch collation (:func:`collate`): one
    forward per group of bundles that share index tuples and penalty
    transform, in order of first appearance, with ``rng`` as every row's
    generator. ``train._batch_loss`` must give its bytes."""
    values, selected, _ = loop_draws([b.inst for b in bundles], w.config.select_p, rng)
    groups: dict[tuple, list] = {}
    for row in zip(bundles, values, selected):
        groups.setdefault((row[0].inst.index_tuples, row[0].program.cfg.transform), []).append(row)
    parts = []
    for rows in groups.values():
        group, vals, sel = zip(*rows)
        ctx, program = collate(group)
        rel = forward(w, ctx, np.stack(vals), np.stack(sel), [rng] * len(group), training=training)
        parts.append(program.loss(rel).sum())
    return sum(parts[1:], parts[0]) * (1.0 / len(bundles))


def replayed_mean_loss(w, bundles, seed: int) -> float:
    """Mean of each instance's own program loss on the draws that
    ``train._batch_loss`` makes from ``seed`` (:func:`loop_draws`).
    Needs a model that draws no dropout or gumbel noise."""
    values, selected, _ = loop_draws([b.inst for b in bundles], w.config.select_p,
                                     np.random.default_rng(seed))
    total = 0.0
    for b, vals, sel in zip(bundles, values, selected):
        total += b.program.loss(forward(w, b.ctx, vals[None], sel[None])).data[0]
    return total / len(bundles)


def replay_solve(w, inst, pool: int, rounds: int, seed: int, inits=None) -> dict:
    """``multi_start`` with an iteration budget of ``rounds``, replayed from
    its rng streams and judged by the reference semantics.

    Candidate c draws from ``default_rng([seed, c])``: its initial row
    (unless ``inits`` is given), then in every round its subset and its
    noise. Every round of the budget is run and kept in ``rows``
    (rounds + 1, pool, n); a fully fixed instance runs none. The expected
    report follows from the rows: a satisfaction solve stops at the first
    round with a feasible candidate, and the lowest such index wins. Up to
    that round each candidate keeps its first row at its lowest score (the
    violation count, or the negated cut when maximizing), and the best row
    is that of the lowest-index candidate with the lowest score."""
    rngs = [np.random.default_rng([seed, c]) for c in range(pool)]
    if inits is None:
        values = np.stack([random_assignment(inst, r) for r in rngs])
    else:
        values = np.array(inits).reshape(pool, inst.n)
    ctx = InstanceContext.build(inst, w.config)
    fixed = inst.compiled.fixed_mask
    rows = [values]
    for _ in range(0 if fixed.all() else rounds):
        selected = np.stack([select_subset(fixed, w.config.select_p, r) for r in rngs])
        values = apply_update(values, selected, forward(w, ctx, values, selected, rngs))
        rows.append(values)

    maximize = inst.mode == "maximization"
    edges = [(c.i, c.k, c.weight) for c in inst.constraints] if maximize else None
    scores = [[-cut_value(edges, v) if maximize else total_violation(inst, v) for v in r]
              for r in rows]
    stop, winner = len(rows) - 1, None
    if not maximize:
        for r, round_scores in enumerate(scores):
            if 0 in round_scores:
                stop, winner = r, round_scores.index(0)
                break
    first_best = [min(range(stop + 1), key=lambda r: scores[r][c]) for c in range(pool)]
    best = min(range(pool), key=lambda c: scores[first_best[c]][c])
    return {
        "rows": np.stack(rows),
        "iterations_used": stop,
        "winner": winner,
        "final_assignment": rows[stop][0 if winner is None else winner],
        "best_assignment": rows[first_best[best]][best],
        "objective": -scores[first_best[best]][best] if maximize else None,
        "violation_trace": [min(total_violation(inst, v) for v in r) for r in rows[: stop + 1]],
    }


def masked_direct_sgd_counts(inst, runs: int, steps: int, lr: float, seed: int) -> np.ndarray:
    """``solve.direct_sgd_counts`` with its givens held by mask arithmetic:
    each step blends the softmax of the free rows with the givens' exact
    one-hot rows, and the givens are written into the rounded rows."""
    rng = np.random.default_rng(seed)
    program = LossProgram(inst)
    cc = inst.compiled
    hard = one_hot(cc.fixed_values, inst.m)
    fixed_rows = Tensor(np.broadcast_to(hard, (runs, inst.n, inst.m)).copy())
    free_mask = Tensor((~cc.fixed_mask).astype(np.float64)[None, :, None])
    z = Tensor(rng.normal(0.0, 0.1, size=(runs, inst.n, inst.m)), requires_grad=True)
    for _ in range(steps):
        z.zero_grad()
        with Tape():
            rel = free_mask * T.softmax(z, axis=-1) + (1.0 - free_mask) * fixed_rows
            backward(program.loss(rel).sum())
        z.data -= lr * z.grad
    rounded = np.where(cc.fixed_mask, cc.fixed_values, np.argmax(z.data, axis=-1))
    return np.array([sum(violation_degree(c, r) == 0 for c in inst.constraints) for r in rounded])


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# Acceptance criteria that take 25 s or more each: ``pytest -m "not slow"``
# runs every other test. A name that test_acceptance.py no longer defines
# is an error, so the list cannot go stale.
SLOW = (
    "test_criterion_05_training_smoke_toy",
    "test_criterion_06_desk_scale_coloring",
    "test_criterion_08_multi_start_dominance",
    "test_criterion_09_direct_sgd_trend",
    "test_criterion_10_maxcut_correctness",
)
_ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def pytest_collection_modifyitems(config, items):
    source = _ACCEPTANCE.read_text()
    stale = [name for name in SLOW if f"\ndef {name}(" not in source]
    if stale:
        raise pytest.UsageError(f"SLOW names tests that {_ACCEPTANCE.name} does not define: {stale}")
    for item in items:
        if item.path == _ACCEPTANCE and item.name in SLOW:
            item.add_marker(pytest.mark.slow)


try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # fixed examples and no wall-clock deadline keep the suite deterministic
    settings.register_profile(
        "csprefine", derandomize=True, deadline=None, max_examples=60, database=None
    )
    settings.load_profile("csprefine")
