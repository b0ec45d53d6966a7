"""The benchmark's workloads: one pipeline, three problem classes.

Every workload runs the two things a user of csprefine does. It trains a
refiner with the single-step penalty loss, and it deploys weights with
``multi_start`` at pool 1 and pool 10. This module holds the workload
definitions, the set-up, the units of work that ``run.py`` times, and the
checks on their outputs. The workloads differ in where the time goes; see
README.md beside this file for why each exists, and why ``maxcut100`` is
not among the workloads that ``BENCHMARK.json`` lists.

Everything here calls csprefine through module attributes
(``solve.multi_start``), never through names imported into this file,
so that the tracer in ``spans.py`` sees each call.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path

import numpy as np

import csprefine as C

# ``csprefine.train`` the attribute is the train function, so fetch modules
# by their import path
csp, data, model, penalty, solve, train = (
    import_module(f"csprefine.{m}")
    for m in ("csp", "data", "model", "penalty", "solve", "train")
)

LR = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # "coloring", "sudoku" or "maxcut"
    size: int  # vertices, or blank cells per sudoku puzzle
    model: C.ModelConfig
    train_count: int  # instances of the training run that yields the weights
    epochs: int
    chunk: int  # instances of the one-epoch train_epoch call timed in each round
    batch_size: int
    held_count: int
    group: int  # held-out instances solved per pool in each round
    rounds: int  # iteration budget of one multi_start call
    # solve with the trained weights, or with the set-up's init_weights so
    # that no change to training can move the solve phase
    deploy_trained: bool = True
    setup_reps: int = 7  # timed set-ups, spread over the run


_COLOR_MODEL = C.ModelConfig(
    layers=2, heads=2, d_model=64, select_p=0.3, rpe_mode="masked",
    ape_mode="none", tau=0.1, sampler="gumbel", dropout=0.0,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="coloring20",
            problem="coloring", size=20, model=_COLOR_MODEL,
            train_count=512, epochs=10, chunk=128, batch_size=64,
            held_count=32, group=2, rounds=100,
        ),
        Workload(
            name="sudoku",
            problem="sudoku", size=40,
            model=C.ModelConfig(layers=3, heads=3, d_model=96, select_p=0.5,
                                rpe_mode="masked", ape_mode="multi", tau=0.1,
                                sampler="gumbel", dropout=0.1),
            train_count=32, epochs=4, chunk=16, batch_size=16,
            held_count=16, group=1, rounds=16, setup_reps=25,
        ),
        Workload(
            name="maxcut100",
            problem="maxcut", size=100, model=_COLOR_MODEL,
            train_count=48, epochs=2, chunk=48, batch_size=16,
            held_count=16, group=1, rounds=30, deploy_trained=False,
            setup_reps=15,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same pipeline at a size that runs in about a second."""
    m = w.model
    return Workload(
        name=w.name, problem=w.problem,
        size=10 if w.problem == "sudoku" else 12,
        model=C.ModelConfig(layers=1, heads=1, d_model=8, select_p=m.select_p,
                            rpe_mode=m.rpe_mode, ape_mode=m.ape_mode, tau=m.tau,
                            sampler=m.sampler, dropout=m.dropout),
        train_count=8, epochs=2, chunk=4, batch_size=4, held_count=4, group=2,
        rounds=5, deploy_trained=w.deploy_trained, setup_reps=2,
    )


# ---------------------------------------------------------------------------
# Inputs


def sudoku_grid(rng: np.random.Generator) -> np.ndarray:
    """A random complete grid (digits 1-9): a base pattern under the
    symmetries that keep a grid valid."""
    base = np.array([[(r * 3 + r // 3 + c) % 9 for c in range(9)] for r in range(9)])
    rows = np.concatenate([3 * b + rng.permutation(3) for b in rng.permutation(3)])
    cols = np.concatenate([3 * b + rng.permutation(3) for b in rng.permutation(3)])
    grid = rng.permutation(9)[base[rows][:, cols]]
    return (grid.T if rng.random() < 0.5 else grid) + 1


def sudoku_puzzles(count: int, blanks: int, seed: int) -> list[list[int]]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        givens = sudoku_grid(rng).reshape(-1)
        givens[rng.choice(81, size=blanks, replace=False)] = 0
        out.append(givens.tolist())
    return out


@dataclass
class Setup:
    train: list
    held: list
    ctxs: list
    bundles: list  # train.prepare of the slice that each round trains on
    weights: object
    seconds: dict  # step -> wall seconds
    failed: list  # failed checks


def setup(w: Workload, seed: int, tmp: Path, tracer=None) -> Setup:
    """Generate, round-trip through files, compile, prepare and init; timed per step."""
    steps = {}
    total = w.train_count + w.held_count

    @contextmanager
    def step(name):
        span = tracer.open(f"setup.{name}", "bench") if tracer else None
        t0 = time.perf_counter()
        yield
        steps[name] = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)

    with step("generate"):
        if w.problem == "coloring":
            insts, _ = data.gen_coloring_dataset(total, w.size, seed=seed, fixed_k=5,
                                                 pose_at_greedy=True)
        elif w.problem == "maxcut":
            insts, _ = data.gen_maxcut_dataset(total, w.size, seed=seed)
        else:
            insts = [csp.build_sudoku(g) for g in sudoku_puzzles(total, w.size, seed)]
    with step("roundtrip"):
        if w.problem == "sudoku":
            path = tmp / f"{w.name}.sudoku"
            data.save_sudoku(insts, path)
            loaded = data.load_sudoku(path)
        else:
            path = tmp / f"{w.name}.jsonl"
            data.save_instances(insts, path)
            loaded = data.load_instances(path)
    train_set, held = loaded[: w.train_count], loaded[w.train_count:]
    with step("compile"):
        ctxs = [model.InstanceContext.build(inst, w.model) for inst in held]
    with step("prepare"):
        bundles = train.prepare(train_set[: w.chunk], w.model,
                                penalty.default_loss_config(train_set[0]))
    with step("init"):
        weights = model.init_weights(w.model, held[0].m, np.random.default_rng(seed))
    failed = [] if loaded == insts else ["instances changed in the file round trip"]
    return Setup(train_set, held, ctxs, bundles, weights, steps, failed)


# ---------------------------------------------------------------------------
# Units of measured work


def copy_weights(wts):
    return model.ModelWeights(
        wts.config, wts.domain_size,
        {k: C.Tensor(p.data.copy()) for k, p in wts.named_parameters()},
    )


def same_weights(a, b) -> bool:
    return all(np.array_equal(p.data, b[k].data) for k, p in a.named_parameters())


def finite(losses) -> list[str]:
    return [] if all(math.isfinite(x) for x in losses) else ["non-finite training loss"]


def train_run(w: Workload, s: Setup, seed: int):
    """``train`` from a copy of the set-up weights; (result, failed checks)."""
    tcfg = C.TrainConfig(batch_size=w.batch_size, epochs=w.epochs, lr=LR, seed=seed)
    result = train.train(s.train[: w.train_count], w.model, tcfg,
                         weights=copy_weights(s.weights))
    history = list(result.history)
    return {"history": history, "weights": result.load_best()}, finite(history)


def train_epoch(w: Workload, s: Setup, seed: int):
    """One timed ``train_epoch`` over the prepared slice, from a copy of the
    set-up weights and a fresh optimizer; (seconds, loss, failed checks)."""
    tcfg = C.TrainConfig(batch_size=w.batch_size, epochs=1, lr=LR, seed=seed)
    weights = copy_weights(s.weights)
    opt = train.AdamW(weights, tcfg)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    loss = train.train_epoch(weights, opt, s.bundles, tcfg, rng)
    return time.perf_counter() - t0, loss, finite([loss])


def solve_group(w: Workload, s: Setup, weights, pool: int, seed: int, idx):
    """multi_start on the held-out instances ``idx``; per-instance records."""
    records = []
    for j in idx:
        t0 = time.perf_counter()
        rep = solve.multi_start(weights, s.held[j], pool, C.Budget(max_iterations=w.rounds),
                                seed=seed * 1000 + j, ctx=s.ctxs[j])
        wall = time.perf_counter() - t0
        records.append({
            "wall_s": wall, "rounds": rep.iterations_used, "feasible": bool(rep.feasible),
            "objective": rep.objective, "best": rep.best_assignment.copy(),
            "final": rep.final_assignment.copy(),
        })
    return records, check_solves([s.held[j] for j in idx], records, idx)


def check_solves(held, records, idx) -> list[str]:
    """Checks on outputs alone, against the reference semantics in csp."""
    failed = []
    for j, inst, r in zip(idx, held, records):
        for key in ("best", "final"):
            vals = r[key]
            if vals.shape != (inst.n,) or vals.min() < 0 or vals.max() >= inst.m:
                failed.append(f"instance {j}: {key} assignment outside the domain")
            given = [(i, v) for i, v in enumerate(inst.fixed) if v is not None]
            if any(vals[i] != v for i, v in given):
                failed.append(f"instance {j}: a fixed variable moved")
        if r["feasible"] and not csp.is_feasible(inst, r["best"]):
            failed.append(f"instance {j}: reported feasible but violates a constraint")
        if inst.mode == "maximization":
            edges = [(c.i, c.k, c.weight) for c in inst.constraints]
            if r["objective"] is None or abs(solve.cut_value(edges, r["best"]) - r["objective"]) > 1e-9:
                failed.append(f"instance {j}: reported cut differs from the recomputed cut")
    return failed


def same_outcome(x, y) -> bool:
    """Two solves of one instance and seed agree on everything they report."""
    return (x["rounds"] == y["rounds"] and x["feasible"] == y["feasible"]
            and x["objective"] == y["objective"] and np.array_equal(x["best"], y["best"]))


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, p: float):
    """Nearest-rank percentile; None unless ten samples lie beyond it.

    Unsolved instances enter as +inf, so they rank beyond every limit.
    """
    xs = sorted(values)
    n = len(xs)
    k = max(1, math.ceil(p * n))
    if n - k < 10 or not math.isfinite(xs[k - 1]):
        return None
    return xs[k - 1]
