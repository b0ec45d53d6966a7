"""Self-supervised single-step training.

Each batch draws fresh random assignments and fresh update subsets, runs one
refinement forward pass, scores the soft outputs with the penalty loss, and
takes one AdamW step. No multi-step unrolling: the model only ever sees a
single improvement step during training.

Each batch groups its instances by structure (index tuples, which fix n)
and runs one stacked forward per group, with the group's compiled
constraints stacked along the batch axis into one loss program. A training
set may therefore mix sizes, but not domain sizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .csp import CspInstance
from .model import (
    InstanceContext,
    ModelConfig,
    ModelWeights,
    forward,
    init_weights,
    select_subset,
)
from .penalty import LossConfig, LossProgram, default_loss_config, one_hot
from .tensor import NumericError, Tape, Tensor, backward, no_grad


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 512
    epochs: int = 5000
    lr: float = 1e-4
    weight_decay: float = 0.01
    seed: int = 0
    grad_clip: float | None = None

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch size must be positive and epochs non-negative")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if not math.isfinite(self.weight_decay):
            raise ValueError("weight decay must be finite")
        if self.grad_clip is not None and not 0.0 < self.grad_clip < math.inf:
            raise ValueError("gradient clip must be positive and finite")


# ---------------------------------------------------------------------------
# Optimizer


class OptimizerError(NumericError):
    """A non-finite gradient reached the optimizer."""


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam moment decays and denominator floor


def _decays(name: str, p: Tensor) -> bool:
    # scalars (alpha/beta/gamma/rpe_theta) and normalization params skip decay
    return p.data.ndim > 0 and "ln" not in name


class AdamW:
    """Adam with decoupled weight decay; state mirrors the parameter dict."""

    def __init__(self, weights: ModelWeights, cfg: TrainConfig):
        self.weights = weights
        self.cfg = cfg
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in weights.named_parameters()}
        self.v = {k: np.zeros_like(p.data) for k, p in weights.named_parameters()}

    def step(self) -> None:
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - _BETA1**t
        bc2 = 1.0 - _BETA2**t
        grads = {}
        for name, p in self.weights.named_parameters():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise OptimizerError(f"non-finite gradient in parameter {name!r}")
            grads[name] = g
        if cfg.grad_clip is not None:
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if norm > cfg.grad_clip:
                scale = cfg.grad_clip / norm  # a Python float keeps each g's dtype
                grads = {k: g * scale for k, g in grads.items()}
        for name, p in self.weights.named_parameters():
            # the moments update in place, in the order of b1*m + (1-b1)*g
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            if _decays(name, p):
                p.data *= 1.0 - cfg.lr * cfg.weight_decay
            p.data -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)


# ---------------------------------------------------------------------------
# Assignment sampling and relaxation


def random_assignment(inst: CspInstance, rng: np.random.Generator) -> np.ndarray:
    """Uniform values on non-fixed variables, givens kept."""
    cc = inst.compiled
    return np.where(cc.fixed_mask, cc.fixed_values, rng.integers(0, inst.m, size=inst.n))


def assemble_relaxed(values: np.ndarray, selected: np.ndarray, yhat: Tensor) -> Tensor:
    """Soft rows for selected variables, exact one-hot rows elsewhere, in
    ``yhat``'s dtype."""
    m, dt = yhat.shape[-1], yhat.data.dtype
    sel = Tensor(selected[..., None].astype(dt))
    hard = Tensor(one_hot(values, m).astype(dt, copy=False))
    return sel * yhat + (1.0 - sel) * hard


# ---------------------------------------------------------------------------
# Batch preparation


@dataclass
class InstanceBundle:
    inst: CspInstance
    ctx: InstanceContext
    program: LossProgram


def prepare(instances, mcfg: ModelConfig, loss_cfg: LossConfig | None = None):
    return [
        InstanceBundle(inst, InstanceContext.build(inst, mcfg), LossProgram(inst, loss_cfg))
        for inst in instances
    ]


def _collate(bundles):
    """Batched (ctx, loss program) for bundles that share index tuples, and
    so n and the positional table. Each sample keeps its own attention
    mask, stacked to (B, 1, n, n), and its own compiled constraints."""
    ctx = InstanceContext(bundles[0].ctx.ape, np.stack([b.ctx.keep for b in bundles])[:, None])
    return ctx, LossProgram.stack([b.program for b in bundles])


# ---------------------------------------------------------------------------
# Epoch loop


def _batch_loss(weights, bundles, rng, training=True):
    """Forward one batch inside the active tape; returns the mean loss.

    Assignments and subsets are drawn in batch order; then each group of
    instances that share index tuples runs one stacked forward, in order of
    first appearance.
    """
    values = [random_assignment(b.inst, rng) for b in bundles]
    selected = [select_subset(b.inst.compiled.fixed_mask, weights.config.select_p, rng)
                for b in bundles]
    groups: dict[tuple, list] = {}
    for row in zip(bundles, values, selected):
        groups.setdefault(row[0].inst.index_tuples, []).append(row)
    parts = []
    for rows in groups.values():
        group, vals, sel = zip(*rows)
        ctx, program = _collate(group)
        vals, sel = np.stack(vals), np.stack(sel)
        yhat = forward(weights, ctx, vals, sel, rng=rng, training=training)
        parts.append(program.loss(assemble_relaxed(vals, sel, yhat)).sum())
    return sum(parts[1:], parts[0]) * (1.0 / len(bundles))


def train_epoch(weights: ModelWeights, opt: AdamW, bundles, cfg: TrainConfig,
                rng: np.random.Generator) -> float:
    """One shuffled pass over the dataset; returns the epoch mean loss."""
    if not bundles:
        raise ValueError("empty training dataset")
    order = rng.permutation(len(bundles))
    losses = []
    for start in range(0, len(order), cfg.batch_size):
        chunk = [bundles[i] for i in order[start : start + cfg.batch_size]]
        weights.zero_grad()
        with Tape():
            loss = _batch_loss(weights, chunk, rng)
            backward(loss)
        opt.step()
        losses.append(loss.item())
    return float(np.mean(losses))


@dataclass
class TrainResult:
    weights: ModelWeights
    best_params: dict[str, np.ndarray]
    history: list[float] = field(default_factory=list)

    def load_best(self) -> ModelWeights:
        for name, p in self.weights.named_parameters():
            p.data = self.best_params[name].copy()
        return self.weights


def _probe_loss(weights: ModelWeights, bundles, cfg: TrainConfig) -> float:
    """Mean loss of the current weights on a pinned batch: the first
    ``batch_size`` bundles, with assignments, subsets and noise drawn from
    their own rng, so every call scores the same draws and the training
    stream is untouched. Dropout is off."""
    with no_grad():
        loss = _batch_loss(weights, bundles[: cfg.batch_size],
                           np.random.default_rng([cfg.seed, 1]), training=False)
    return loss.item()


def train(
    instances,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
    loss_cfg: LossConfig | None = None,
    weights: ModelWeights | None = None,
    opt: AdamW | None = None,
    log=None,
) -> TrainResult:
    """Train a refiner from scratch (or resume) on a list of instances.

    Weights made here (``weights=None``) are float32. After each epoch the
    weights are scored on the
    pinned probe batch (:func:`_probe_loss`); the best weights are those
    with the lowest finite probe loss, or the starting weights if no epoch
    gives one."""
    if not instances:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(tcfg.seed)
    if loss_cfg is None:
        loss_cfg = default_loss_config(instances[0])
    if weights is None:
        weights = init_weights(mcfg, instances[0].m, rng)
    for inst in instances:
        weights.check_domain(inst)
    if opt is None:
        opt = AdamW(weights, tcfg)
    bundles = prepare(instances, mcfg, loss_cfg)
    history: list[float] = []
    best = {k: p.data.copy() for k, p in weights.named_parameters()}
    best_loss = float("inf")
    for epoch in range(tcfg.epochs):
        t0 = time.perf_counter()
        mean_loss = train_epoch(weights, opt, bundles, tcfg, rng)
        history.append(mean_loss)
        scored = _probe_loss(weights, bundles, tcfg)
        if scored < best_loss:  # False for NaN; +inf never beats the start
            best_loss = scored
            best = {k: p.data.copy() for k, p in weights.named_parameters()}
        if log is not None:
            ms = (time.perf_counter() - t0) * 1000.0
            log(f"epoch={epoch} loss={mean_loss:.6f} probe_loss={scored:.6f} time_ms={ms:.1f}")
    return TrainResult(weights=weights, best_params=best, history=history)
