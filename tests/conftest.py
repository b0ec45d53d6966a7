"""Shared fixtures and small builders used across the test modules."""

import numpy as np
import pytest

import csprefine.tensor as T
from csprefine.csp import AllDifferentExact, CspInstance, build_sudoku
from csprefine.data import gen_coloring_dataset
from csprefine.model import ModelConfig, forward, select_subset
from csprefine.tensor import Tensor
from csprefine.train import assemble_relaxed, random_assignment


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
    """Blank ``missing`` random cells of the full grid."""
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


# The fused ops written out of elementwise ops: the references that
# ``tensor.layer_norm``, ``tensor.linear`` and a masked ``tensor.softmax``
# must match in value and gradient.


def composed_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = T.square(centered).mean(axis=-1, keepdims=True)
    inv = T.pow_scalar(var + eps, -0.5)
    return centered * inv * g + b


def composed_linear(x, w, b):
    return x @ w + b


_fused_softmax = T.softmax  # the op itself, before any test patches it


def composed_softmax(x, axis=-1, keep=None):
    if keep is not None:
        x = x + Tensor(np.where(keep, 0.0, -np.inf))
    return _fused_softmax(x, axis=axis)


COMPOSED_OPS = {"layer_norm": composed_layer_norm, "linear": composed_linear,
                "softmax": composed_softmax}


def replayed_mean_loss(w, bundles, seed: int) -> float:
    """Mean of each instance's own program loss on the draws that
    ``train._batch_loss`` makes from ``seed``: assignments, then subsets,
    in batch order. Needs a model that draws no dropout or gumbel noise."""
    rng = np.random.default_rng(seed)
    values = [random_assignment(b.inst, rng) for b in bundles]
    selected = [select_subset(b.inst.compiled.fixed_mask, w.config.select_p, rng)
                for b in bundles]
    total = 0.0
    for b, vals, sel in zip(bundles, values, selected):
        yhat = forward(w, b.ctx, vals[None], sel[None])
        total += b.program.loss(assemble_relaxed(vals[None], sel[None], yhat)).data[0]
    return total / len(bundles)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


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
