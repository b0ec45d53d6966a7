"""Test-time deployment of a trained refiner, plus non-neural baselines.

``iterate`` feeds the model its own output assignment until the instance is
feasible or the budget runs out. ``multi_start`` advances a pool of
candidates in lockstep rounds and accepts the first feasible one; candidate
0 replays the pool of size 1, so a bigger pool can never do worse on the
same seed. Maximization instances (maxcut) never exit early and just
track the best cut found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .csp import CspError, CspInstance, validate_assignment, violation_degree
from .model import (
    InstanceContext,
    ModelWeights,
    apply_update,
    forward,
    gumbel_noise,
    select_subset,
)
from .penalty import LossProgram, one_hot
from .tensor import Tape, Tensor, backward
from .train import random_assignment


@dataclass(frozen=True)
class Budget:
    max_iterations: int | None = None
    time_limit_ms: float | None = None

    def __post_init__(self):
        if self.max_iterations is None and self.time_limit_ms is None:
            raise ValueError("budget needs an iteration or time limit")
        if self.max_iterations is not None and self.max_iterations <= 0:
            raise ValueError("iteration limit must be positive")
        if self.time_limit_ms is not None and self.time_limit_ms <= 0:
            raise ValueError("time limit must be positive")


@dataclass
class SolveReport:
    feasible: bool
    iterations_used: int
    elapsed_ms: float
    final_assignment: np.ndarray
    best_assignment: np.ndarray
    objective: float | None = None  # best cut value in maximization mode
    violation_trace: list[int] | None = None
    winner: int | None = None  # candidate index that finished first


# ---------------------------------------------------------------------------
# Vectorized constraint checking (hot loop)


class ViolationChecker:
    """Batched discrete violation degrees, read from the compiled instance."""

    def __init__(self, inst: CspInstance):
        self.m = inst.m
        self.cc = cc = inst.compiled
        # both alldifferent variants count surplus occupancy per value
        self.member = np.concatenate([cc.exact.rows, cc.atmost.rows])

    def total(self, values: np.ndarray) -> np.ndarray:
        """Sum of violation degrees; values is (B, n), result (B,)."""
        cc = self.cc
        out = np.zeros(values.shape[0])
        out += (values[:, cc.edge_i] == values[:, cc.edge_k]).sum(axis=1)
        if len(self.member) or len(cc.card_value):
            hot = one_hot(values, self.m)  # (B, n, m)
            if len(self.member):
                counts = np.matmul(self.member, hot)  # (B, C, m)
                out += np.maximum(counts - 1.0, 0.0).sum(axis=(1, 2))
            if len(cc.card_value):
                got = np.matmul(cc.card.rows, hot)[:, np.arange(len(cc.card_value)), cc.card_value]
                out += np.abs(cc.card_count - got).sum(axis=1)
        return out


# ---------------------------------------------------------------------------
# MAXCUT helpers


def cut_value(weighted_edges, values) -> float:
    """Total weight of edges whose endpoints land on different sides."""
    values = np.asarray(values)
    return float(
        sum(w for u, v, w in weighted_edges if values[u] != values[v])
    )


def instance_cut_value(inst: CspInstance, values):
    """Cut of one assignment (n,), as a float, or of a pool (B, n), as (B,)."""
    cc = inst.compiled
    values = np.asarray(values)
    cut = values[..., cc.edge_i] != values[..., cc.edge_k]
    out = np.where(cut, cc.edge_w, 0.0).sum(axis=-1)
    return float(out) if values.ndim == 1 else out


# ---------------------------------------------------------------------------
# Iterative refinement


def _candidate_rngs(seed: int, pool: int):
    return [np.random.default_rng([seed, c]) for c in range(pool)]


def multi_start(
    weights: ModelWeights,
    inst: CspInstance,
    pool_size: int,
    budget: Budget,
    seed: int = 0,
    inits: np.ndarray | None = None,
    ctx: InstanceContext | None = None,
    trace: bool = False,
) -> SolveReport:
    """Advance ``pool_size`` candidates in lockstep refinement rounds.

    Each candidate owns an rng seeded from (seed, index) that draws its
    initial assignment (unless ``inits`` is given) and then its subsets and
    noise; candidate 0 therefore replays the pool of size 1 with the same
    seed. First feasible candidate wins (lowest index on ties). In
    maximization mode the best cut seen over all candidates and rounds is
    kept. Given ``inits`` must be assignments of ``inst`` that keep its
    givens (CspError otherwise).
    """
    if pool_size < 1:
        raise ValueError("pool size must be at least 1")
    weights.check_domain(inst)
    if ctx is None:
        ctx = InstanceContext.build(inst, weights.config)
    checker = ViolationChecker(inst)
    rngs = _candidate_rngs(seed, pool_size)
    maximize = inst.mode == "maximization"

    if inits is None:
        values = np.stack([random_assignment(inst, rng) for rng in rngs])
    else:
        inits = np.asarray(inits)
        values = np.array(inits if inits.ndim == 2 else inits[None], copy=True)
        if values.shape[0] != pool_size:
            raise ValueError("need one initial assignment per candidate")
        validate_assignment(inst, values)

    frozen = bool(ctx.fixed_mask.all())  # fully fixed: nothing can ever change
    gumbel = weights.config.sampler == "gumbel"
    t0 = time.perf_counter()
    viol = checker.total(values)
    trace_rows: list[int] | None = [int(viol.min())] if trace else None
    best_viol = np.full(pool_size, np.inf)
    best_values = values.copy()
    best_cut = -np.inf
    rounds = 0
    while True:
        if maximize:
            cuts = instance_cut_value(inst, values)
            if cuts.max() > best_cut:
                best_cut = float(cuts.max())
                best_values = values[int(cuts.argmax())][None].copy()
        else:
            improved = viol < best_viol
            best_viol = np.where(improved, viol, best_viol)
            best_values[improved] = values[improved]
            feas = viol == 0
            if feas.any():
                win = int(np.argmax(feas))
                return SolveReport(
                    feasible=True,
                    iterations_used=rounds,
                    elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                    final_assignment=values[win].copy(),
                    best_assignment=values[win].copy(),
                    violation_trace=trace_rows,
                    winner=win,
                )
        if frozen:
            break
        if budget.max_iterations is not None and rounds >= budget.max_iterations:
            break
        if budget.time_limit_ms is not None and (time.perf_counter() - t0) * 1000.0 >= budget.time_limit_ms:
            break
        selected = np.stack(
            [select_subset(ctx.fixed_mask, weights.config.select_p, rng) for rng in rngs]
        )
        noise = None
        if gumbel:
            noise = np.stack([gumbel_noise(rng, (inst.n, inst.m)) for rng in rngs])
        yhat = forward(weights, ctx, values, selected, training=False, noise=noise)
        values = apply_update(values, selected, yhat)
        rounds += 1
        viol = checker.total(values)
        if trace_rows is not None:
            trace_rows.append(int(viol.min()))

    return SolveReport(
        feasible=False,
        iterations_used=rounds,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        final_assignment=values[0].copy(),
        best_assignment=best_values[0 if maximize else int(best_viol.argmin())].copy(),
        objective=best_cut if maximize else None,
        violation_trace=trace_rows,
        winner=None,
    )


def iterate(
    weights: ModelWeights,
    inst: CspInstance,
    init: np.ndarray,
    budget: Budget,
    seed: int = 0,
    ctx: InstanceContext | None = None,
    trace: bool = False,
) -> SolveReport:
    """Single-candidate refinement loop; the pool of size 1."""
    return multi_start(
        weights, inst, 1, budget, seed=seed, inits=np.asarray(init)[None],
        ctx=ctx, trace=trace,
    )


# ---------------------------------------------------------------------------
# Baselines


def greedy_coloring(n_vertices: int, edges) -> tuple[np.ndarray, int]:
    """First-fit coloring in ascending vertex order; returns (colors, k')."""
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


def direct_sgd_counts(
    inst: CspInstance,
    runs: int = 1,
    steps: int = 10000,
    lr: float = 0.1,
    seed: int = 0,
) -> np.ndarray:
    """Optimize free logit rows by plain gradient descent on the penalty
    loss; returns the number of satisfied constraints per run.

    Variables are kept on the simplex through a softmax of the logits, so
    no projection is needed. Runs are batched along the leading axis and
    optimized independently.
    """
    if inst.mode != "satisfaction":
        raise CspError("direct gradient baseline targets satisfaction instances")
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
            loss = program.loss(rel).sum()
            backward(loss)
        z.data -= lr * z.grad

    rounded = np.where(cc.fixed_mask, cc.fixed_values, np.argmax(z.data, axis=-1))
    sat = np.zeros(runs, dtype=np.int64)
    for r in range(runs):
        sat[r] = sum(1 for c in inst.constraints if violation_degree(c, rounded[r]) == 0)
    return sat

