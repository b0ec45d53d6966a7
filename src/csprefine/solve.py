"""Test-time deployment of a trained refiner, plus non-neural baselines.

``multi_start`` is the one solve path: it advances a pool of candidates in
lockstep rounds, feeding the model its own output assignment, until a
candidate is feasible or the budget runs out. Candidate 0 replays the pool
of size 1, so a bigger pool can never do worse on the same seed.
Maximization instances (maxcut) never exit early and keep the best cut.
"""

from __future__ import annotations

import math
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
    random_assignment,
    select_subset,
)
from .penalty import LossProgram, one_hot
from .tensor import Tape, Tensor, backward


@dataclass(frozen=True)
class Budget:
    max_iterations: int | None = None
    time_limit_ms: float | None = None

    def __post_init__(self):
        if self.max_iterations is None and self.time_limit_ms is None:
            raise ValueError("budget needs an iteration or time limit")
        if self.max_iterations is not None and self.max_iterations <= 0:
            raise ValueError("iteration limit must be positive")
        if self.time_limit_ms is not None and not 0.0 < self.time_limit_ms < math.inf:
            raise ValueError("time limit must be positive and finite")


@dataclass
class SolveReport:
    """One solve's outcome. Every candidate keeps the first row at its lowest
    score (violations, or the negated cut when maximizing); ``best_assignment``
    is that row of the lowest-index candidate with the lowest score. When a
    candidate is feasible, ``winner`` is its index and ``final_assignment``
    its row; otherwise ``final_assignment`` is candidate 0's last row."""

    iterations_used: int
    elapsed_ms: float
    final_assignment: np.ndarray
    best_assignment: np.ndarray
    objective: float | None = None  # best cut value in maximization mode
    violation_trace: list[int] | None = None
    winner: int | None = None  # lowest-index feasible candidate

    @property
    def feasible(self) -> bool:
        return self.winner is not None


# ---------------------------------------------------------------------------
# Vectorized constraint checking (hot loop)


class ViolationChecker:
    """Batched discrete violation degrees, read from the compiled instance."""

    def __init__(self, inst: CspInstance):
        self.m = inst.m
        self.cc = cc = inst.compiled
        # both alldifferent variants count surplus occupancy per value
        self.member = np.concatenate([cc.exact, cc.atmost])

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
                got = np.matmul(cc.card, hot)[:, np.arange(len(cc.card_value)), cc.card_value]
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
    """Cut of each row of a pool (B, n), as (B,)."""
    cc = inst.compiled
    cut = values[:, cc.edge_i] != values[:, cc.edge_k]
    return np.where(cut, cc.edge_w, 0.0).sum(axis=1)


# ---------------------------------------------------------------------------
# Iterative refinement


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
    initial assignment (unless ``inits`` is given) and then, every round, its
    subset and, inside ``forward``, its noise; candidate 0 therefore replays
    the pool of size 1 with the same seed. A satisfaction solve stops at the
    first round in which some candidate is feasible, and the lowest such
    index wins; a maximization solve runs out its budget. Each candidate
    keeps the first row at its lowest score, the violation count or the
    negated cut, and the report's ``best_assignment`` is that row of the
    lowest-index candidate with the lowest score. ``inits`` is one
    assignment (n,) per candidate, (pool, n), or a single (n,) for a pool
    of 1; each must keep the givens of ``inst`` (CspError otherwise).
    """
    if pool_size < 1:
        raise ValueError("pool size must be at least 1")
    weights.check_domain(inst)
    if ctx is None:
        ctx = InstanceContext.build(inst, weights.config)
    checker = ViolationChecker(inst)
    rngs = [np.random.default_rng([seed, c]) for c in range(pool_size)]
    maximize = inst.mode == "maximization"

    if inits is None:
        values = np.stack([random_assignment(inst, rng) for rng in rngs])
    else:
        inits = np.asarray(inits)
        values = np.array(inits if inits.ndim == 2 else inits[None], copy=True)
        if values.shape[0] != pool_size:
            raise ValueError("need one initial assignment per candidate")
        validate_assignment(inst, values)

    fixed_mask = inst.compiled.fixed_mask
    frozen = bool(fixed_mask.all())  # fully fixed: nothing can ever change
    t0 = time.perf_counter()
    viol = checker.total(values)
    trace_rows: list[int] | None = [int(viol.min())] if trace else None
    best_score = np.full(pool_size, np.inf)
    best_values = values.copy()
    winner = None
    rounds = 0
    while True:
        score = -instance_cut_value(inst, values) if maximize else viol
        improved = score < best_score
        np.copyto(best_score, score, where=improved)
        np.copyto(best_values, values, where=improved[:, None])
        if not maximize and viol.min() == 0:
            winner = int(viol.argmin())
            break
        if frozen:
            break
        if budget.max_iterations is not None and rounds >= budget.max_iterations:
            break
        if budget.time_limit_ms is not None and (time.perf_counter() - t0) * 1000.0 >= budget.time_limit_ms:
            break
        selected = select_subset(fixed_mask, weights.config.select_p, rngs)
        values = apply_update(values, selected, forward(weights, ctx, values, selected, rngs))
        rounds += 1
        viol = checker.total(values)
        if trace_rows is not None:
            trace_rows.append(int(viol.min()))

    best = int(best_score.argmin())
    return SolveReport(
        iterations_used=rounds,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        final_assignment=values[0 if winner is None else winner].copy(),
        best_assignment=best_values[best].copy(),
        objective=float(-best_score[best]) if maximize else None,
        violation_trace=trace_rows,
        winner=winner,
    )


# ---------------------------------------------------------------------------
# Baselines


def greedy_coloring(n_vertices: int, edges) -> tuple[np.ndarray, int]:
    """First-fit coloring in ascending vertex order; returns (colors, k')."""
    adj: list[set[int]] = [set() for _ in range(n_vertices)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colors = [-1] * n_vertices
    for v in range(n_vertices):
        used = {colors[u] for u in adj[v]}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return np.array(colors, dtype=np.int64), max(colors) + 1 if n_vertices else 0


def direct_sgd_counts(
    inst: CspInstance,
    runs: int = 1,
    steps: int = 10000,
    lr: float = 0.1,
    seed: int = 0,
) -> np.ndarray:
    """Optimize logit rows by plain gradient descent on the penalty loss;
    returns the number of satisfied constraints per run.

    Variables are kept on the simplex through a softmax of the logits, so
    no projection is needed. A given is held as a saturated logit row, 1000
    at its value and 0 elsewhere. Runs are batched along the leading axis
    and optimized independently. On an instance with no constraints no
    gradient reaches the logits, so each run keeps its start and satisfies
    0 of 0. Raises ValueError unless ``lr`` is positive and finite.
    """
    if not 0.0 < lr < math.inf:
        raise ValueError("learning rate must be positive and finite")
    if inst.mode != "satisfaction":
        raise CspError("direct gradient baseline targets satisfaction instances")
    rng = np.random.default_rng(seed)
    program = LossProgram(inst)
    cc = inst.compiled
    z = Tensor(rng.normal(0.0, 0.1, size=(runs, inst.n, inst.m)), requires_grad=True)
    # exp(-1000) is exactly 0 in float64, so softmax turns a given's row into
    # its exact one-hot and its backward gives that row a zero gradient: the
    # givens never move, and their argmax is the given value
    z.data[:, cc.fixed_mask] = 1000.0 * one_hot(cc.fixed_values[cc.fixed_mask], inst.m)
    for _ in range(steps):
        z.zero_grad()
        with Tape():
            backward(program.loss(T.softmax(z, axis=-1)).sum())
        if z.grad is not None:  # None when no constraint reads z: a zero gradient
            z.data -= lr * z.grad

    rounded = np.argmax(z.data, axis=-1)
    sat = np.zeros(runs, dtype=np.int64)
    for r in range(runs):
        sat[r] = sum(1 for c in inst.constraints if violation_degree(c, rounded[r]) == 0)
    return sat

