"""Self-supervised single-step training.

Each batch draws fresh random assignments and fresh update subsets, runs one
refinement forward pass, scores the soft outputs with the penalty loss, and
takes one AdamW step; ``csprefine.model`` makes every draw, from the
training rng. No multi-step unrolling: the model only ever sees a single
improvement step during training.

A training step's fixed cost does not grow with its sample count.
:func:`prepare` groups the instances by structure (index tuples, which fix
n) and by penalty transform, and stacks each group's attention masks and
compiled constraints once (:class:`TrainingSet`). A step draws its start
values in one ``integers`` call and its subsets row by row from one
generator, over the batch's givens padded to its longest instance, by the
draw rule that a solve pool follows
(:func:`~csprefine.model.select_subset`), then takes each group's rows
and runs one stacked forward per group. The probe batch that picks the
best weights is one more such batch, drawn afresh after every epoch from
its own generator. AdamW updates every parameter at once, over one flat
buffer. A training set may therefore mix sizes and kinds, but not domain
sizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Givens,
    InstanceContext,
    ModelConfig,
    ModelWeights,
    ape_table,
    forward,
    init_weights,
    random_assignment,
    select_subset,
)
from .penalty import LossConfig, LossProgram, _pad_stack
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
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight decay must be non-negative and finite")
        if self.grad_clip is not None and not 0.0 < self.grad_clip < math.inf:
            raise ValueError("gradient clip must be positive and finite")


# ---------------------------------------------------------------------------
# Optimizer


class OptimizerError(NumericError):
    """A non-finite gradient reached the optimizer, or an update left a
    parameter non-finite."""


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam moment decays and denominator floor


def _decays(name: str, p: Tensor) -> bool:
    # scalars (alpha/beta/gamma/rpe_theta) and normalization params skip decay
    return p.data.ndim > 0 and "ln" not in name


class AdamW:
    """Adam with decoupled weight decay over one flat buffer.

    The parameters move into one buffer, the decaying ones first, and each
    parameter's data becomes a view of it; the moments ``m`` and ``v`` are
    views of two buffers of the same layout. A step gathers the gradients
    into one flat array and updates every parameter with a few whole-buffer
    operations, each the elementwise arithmetic of the per-parameter
    update, so the bytes are the same.
    """

    def __init__(self, weights: ModelWeights, cfg: TrainConfig):
        self.weights = weights
        self.cfg = cfg
        self.step_count = 0
        params = dict(weights.named_parameters())
        if len({p.data.dtype for p in params.values()}) > 1:
            raise ValueError("AdamW needs parameters of one dtype")
        self._order = sorted(params, key=lambda k: not _decays(k, params[k]))  # stable
        ends = np.cumsum([params[k].data.size for k in self._order])
        self._at = {k: (end - params[k].data.size, end, params[k].data.shape)
                    for k, end in zip(self._order, ends)}
        self._decayed = sum(params[k].data.size for k in params if _decays(k, params[k]))
        self._flat = np.concatenate([params[k].data.reshape(-1) for k in self._order])
        self._m, self._v = np.zeros_like(self._flat), np.zeros_like(self._flat)
        for name, view in self._views(self._flat).items():
            params[name].data = view
        self.m, self.v = self._views(self._m), self._views(self._v)

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's part of ``flat``, in ``named_parameters`` order."""
        return {name: flat[self._at[name][0] : self._at[name][1]].reshape(self._at[name][2])
                for name, _ in self.weights.named_parameters()}

    def _first_non_finite(self, flat: np.ndarray) -> str:
        return next(k for k, a in self._views(flat).items() if not np.isfinite(a).all())

    def step(self) -> None:
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - _BETA1**t
        bc2 = 1.0 - _BETA2**t
        params = self.weights.params
        g = np.empty_like(self._flat)
        np.concatenate([np.zeros(params[k].data.size, g.dtype) if params[k].grad is None
                        else params[k].grad.reshape(-1) for k in self._order], out=g)
        if not np.isfinite(g).all():
            raise OptimizerError(f"non-finite gradient in parameter {self._first_non_finite(g)!r}")
        if cfg.grad_clip is not None:
            # summed per parameter, in parameter order
            norm = math.sqrt(sum(float((x * x).sum()) for x in self._views(g).values()))
            if norm > cfg.grad_clip:
                g *= cfg.grad_clip / norm  # a Python float keeps g's dtype
        # an update may overflow; the parameter check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            # in place, in the order of b1*m + (1-b1)*g and b2*v + (1-b2)*g*g
            scratch = np.multiply(g, 1.0 - _BETA1)
            self._m *= _BETA1
            self._m += scratch
            np.multiply(g, 1.0 - _BETA2, out=scratch)
            scratch *= g
            self._v *= _BETA2
            self._v += scratch
            # lr * (m / bc1) / (sqrt(v / bc2) + eps), into g
            np.divide(self._v, bc2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += _EPS
            np.divide(self._m, bc1, out=g)
            g *= cfg.lr
            g /= scratch
            self._flat[: self._decayed] *= 1.0 - cfg.lr * cfg.weight_decay
            self._flat -= g
        if not np.isfinite(self._flat).all():
            raise OptimizerError(f"non-finite value in parameter "
                                 f"{self._first_non_finite(self._flat)!r} after the update")


# ---------------------------------------------------------------------------
# Batch preparation


class TrainingSet:
    """A training set prepared once: its instances grouped by index tuples
    (which fix n and the positional table) and penalty transform, each group
    one context, its attention masks stacked (G, 1, n, n), and one stacked
    loss program; and every instance's givens padded to the longest by
    ``_pad_stack``, a padding column given, with value 0. :meth:`draw` makes
    a batch's draws and cuts the stacked arrays."""

    def __init__(self, instances, mcfg: ModelConfig, loss_cfg: LossConfig | None = None):
        instances = list(instances)
        if not instances:
            raise ValueError("empty training dataset")
        if len({inst.m for inst in instances}) > 1:
            raise ValueError("a training set may not mix domain sizes")
        programs = [LossProgram(inst, loss_cfg) for inst in instances]
        members: dict[tuple, list[int]] = {}
        for i, (inst, program) in enumerate(zip(instances, programs)):
            members.setdefault((inst.index_tuples, program.cfg.transform), []).append(i)
        self.groups: list[tuple[InstanceContext, LossProgram]] = []
        self.group_of = np.zeros(len(instances), dtype=np.int64)
        self.row_of = np.zeros(len(instances), dtype=np.int64)
        for g, idx in enumerate(members.values()):
            keep = np.stack([instances[i].compiled.adjacency() for i in idx])[:, None]
            self.groups.append((InstanceContext(ape_table(instances[idx[0]], mcfg), keep),
                                LossProgram.stack([programs[i] for i in idx])))
            self.group_of[idx], self.row_of[idx] = g, np.arange(len(idx))
        self.fixed_mask = _pad_stack([inst.compiled.fixed_mask for inst in instances], fill=True)
        self.fixed_values = _pad_stack([inst.compiled.fixed_values for inst in instances])
        self.m = instances[0].m

    def __len__(self) -> int:
        return len(self.fixed_mask)

    def draw(self, idx: np.ndarray, p: float, rng: np.random.Generator) -> list:
        """The batch of instances ``idx``: start values, then subsets, each
        kind drawn from ``rng`` over the rows in batch order, padded to the
        batch's longest instance; then one (ctx, program, values, selected)
        part per group, in order of first appearance in the batch, its
        stacked arrays cut to its rows and their longest."""
        gids = self.group_of[idx]
        present, first = np.unique(gids, return_index=True)
        width = max((self.groups[g][1].n for g in present), default=0)
        givens = Givens(self.fixed_mask[idx, :width], self.fixed_values[idx, :width], self.m)
        values = random_assignment(givens, rng)
        selected = select_subset(givens.mask, p, rng)
        parts = []
        for g in gids[np.sort(first)]:
            at = np.flatnonzero(gids == g)
            rows = self.row_of[idx[at]]
            ctx, stacked = self.groups[g]
            program = stacked.take(rows)
            parts.append((InstanceContext(ctx.ape, ctx.keep[rows]), program,
                          values[at, : program.n], selected[at, : program.n]))
        return parts


def prepare(instances, mcfg: ModelConfig, loss_cfg: LossConfig | None = None) -> TrainingSet:
    return TrainingSet(instances, mcfg, loss_cfg)


# ---------------------------------------------------------------------------
# Epoch loop


def _batch_loss(weights, data: TrainingSet, rng, training=True, idx=None):
    """Forward one batch, the instances ``idx`` of ``data`` (all of them by
    default), inside the active tape; returns the mean loss. Assignments
    and subsets are drawn in batch order (:meth:`TrainingSet.draw`); then
    each group of instances that share index tuples and penalty transform
    runs one stacked forward, in order of first appearance, with ``rng`` as
    every row's generator.
    """
    idx = np.arange(len(data)) if idx is None else idx
    losses = []
    for ctx, program, values, selected in data.draw(idx, weights.config.select_p, rng):
        rel = forward(weights, ctx, values, selected, [rng] * len(values), training=training)
        losses.append(program.loss(rel).sum())
    return sum(losses[1:], losses[0]) * (1.0 / len(idx))


def train_epoch(weights: ModelWeights, opt: AdamW, data: TrainingSet, cfg: TrainConfig,
                rng: np.random.Generator) -> float:
    """One shuffled pass over the dataset; returns the epoch mean loss."""
    if not len(data):
        raise ValueError("empty training dataset")
    order = rng.permutation(len(data))
    losses = []
    for start in range(0, len(order), cfg.batch_size):
        weights.zero_grad()
        # a loss in float32 may overflow: a non-finite loss or gradient stops the run
        with Tape(), np.errstate(over="ignore", invalid="ignore"):
            loss = _batch_loss(weights, data, rng, idx=order[start : start + cfg.batch_size])
            backward(loss)
        if not math.isfinite(loss.item()):
            raise NumericError(f"non-finite training loss {loss.item()}")
        opt.step()
        losses.append(loss.item())
    return float(np.mean(losses))


@dataclass
class TrainResult:
    weights: ModelWeights
    best_params: dict[str, np.ndarray]
    history: list[float] = field(default_factory=list)

    def load_best(self) -> ModelWeights:
        """The weights set to the best parameters, copied into the arrays
        that the weights hold, which may be an optimizer's views."""
        for name, p in self.weights.named_parameters():
            p.data[...] = self.best_params[name]
        return self.weights


def _probe_loss(weights: ModelWeights, data: TrainingSet, cfg: TrainConfig) -> float:
    """Mean loss of the current weights on the probe batch: the first
    ``batch_size`` instances, drawn afresh from ``default_rng([seed, 1])``
    on every call, so every call scores the same draws and the training
    stream is untouched. Dropout is off; a non-finite loss is never kept."""
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        return _batch_loss(weights, data, np.random.default_rng([cfg.seed, 1]), training=False,
                           idx=np.arange(min(cfg.batch_size, len(data)))).item()


def train(
    instances,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
    weights: ModelWeights | None = None,
    log=None,
) -> TrainResult:
    """Train a refiner on a list of instances, from ``weights``, built for
    ``mcfg`` (ValueError otherwise), or, with ``weights=None``, from float32
    weights drawn from the training rng (``default_rng(tcfg.seed)``). The
    optimizer starts with zero moments, and each instance is scored under
    its own mode: the quadratic transform for satisfaction, the identity
    for maximization.

    After each epoch the weights are scored on the probe batch
    (:func:`_probe_loss`), the same draws every epoch; the best weights are
    those with the lowest finite probe loss, or the starting weights if no
    epoch gives one."""
    if not instances:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(tcfg.seed)
    if weights is None:
        weights = init_weights(mcfg, instances[0].m, rng)
    elif weights.config != mcfg:
        raise ValueError(f"weights built for {weights.config} cannot train under {mcfg}")
    for inst in instances:
        weights.check_domain(inst)
    opt = AdamW(weights, tcfg)
    data = prepare(instances, mcfg)
    history: list[float] = []
    best = {k: p.data.copy() for k, p in weights.named_parameters()}
    best_loss = float("inf")
    for epoch in range(tcfg.epochs):
        t0 = time.perf_counter()
        mean_loss = train_epoch(weights, opt, data, tcfg, rng)
        history.append(mean_loss)
        scored = _probe_loss(weights, data, tcfg)
        if scored < best_loss:  # False for NaN; +inf never beats the start
            best_loss = scored
            best = {k: p.data.copy() for k, p in weights.named_parameters()}
        if log is not None:
            ms = (time.perf_counter() - t0) * 1000.0
            log(f"epoch={epoch} loss={mean_loss:.6f} probe_loss={scored:.6f} time_ms={ms:.1f}")
    return TrainResult(weights=weights, best_params=best, history=history)
