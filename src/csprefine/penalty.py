"""Continuous penalties for discrete constraints and the training loss.

Each variable is relaxed to a probability row over the domain; a penalty is
a differentiable non-negative function of those rows that is zero on one-hot
inputs exactly when the discrete constraint holds. The loss over an instance
is ``sum_i lambda_i * f(p_i)`` with f quadratic by default (identity for
maximization instances, so edge weights keep their sign).

``LossProgram`` evaluates the loss from the instance's compiled form
(``CspInstance.compiled``) over arbitrary leading batch dimensions; the
``pen_*`` functions are the direct single-constraint forms used for spot
values, gradient checks and as the reference the compiled loss must match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .csp import (
    AllDifferentAtMostOnce,
    AllDifferentExact,
    Cardinality,
    CspInstance,
    NotEqual,
)
from .tensor import ShapeMismatch, Tensor


@dataclass(frozen=True)
class LossConfig:
    """Per-constraint weights and the penalty transform f."""

    lambdas: tuple[float, ...] | None = None  # None: all 1.0
    transform: str = "quadratic"  # or "identity"

    def weight(self, idx: int) -> float:
        if self.lambdas is None:
            return 1.0
        return self.lambdas[idx]


def default_loss_config(inst: CspInstance) -> LossConfig:
    transform = "identity" if inst.mode == "maximization" else "quadratic"
    return LossConfig(transform=transform)


def one_hot(values, m: int) -> np.ndarray:
    """Exact one-hot rows, shape ``values.shape + (m,)``."""
    values = np.asarray(values, dtype=np.int64)
    out = np.zeros(values.shape + (m,), dtype=np.float64)
    np.put_along_axis(out, values[..., None], 1.0, axis=-1)
    return out


# ---------------------------------------------------------------------------
# Single-constraint penalties (rel: Tensor of shape (n, m))


def _rows(rel: Tensor, scope) -> Tensor:
    return T.gather_rows(rel, np.asarray(scope, dtype=np.int64))


def pen_cardinality(rel: Tensor, scope, value: int, count: int) -> Tensor:
    """|count - sum_i x_i^(value)| over the scope."""
    col = T.gather_rows(rel, np.asarray(scope, dtype=np.int64))
    total = col.sum(axis=0)  # (m,)
    sel = T.gather_rows(total.reshape(-1, 1), np.array([value])).reshape(())
    return T.abs_(float(count) - sel)


def pen_alldiff_exact(rel: Tensor, scope) -> Tensor:
    """sum_j |1 - colsum_j|; scope size must equal the domain size."""
    if len(scope) != rel.shape[-1]:
        raise ValueError(
            f"exact alldifferent penalty needs |scope|=={rel.shape[-1]}, "
            f"got {len(scope)}"
        )
    colsum = _rows(rel, scope).sum(axis=0)
    return T.abs_(1.0 - colsum).sum()


def pen_alldiff_atmost(rel: Tensor, scope) -> Tensor:
    """sum_j [relu(colsum_j - 1) + colsum_j * |1 - colsum_j|]."""
    if len(scope) >= rel.shape[-1]:
        raise ValueError(
            f"at-most-once alldifferent penalty needs |scope|<{rel.shape[-1]}, "
            f"got {len(scope)}"
        )
    colsum = _rows(rel, scope).sum(axis=0)
    over = T.relu(colsum - 1.0)
    frac = colsum * T.abs_(1.0 - colsum)
    return (over + frac).sum()


def pen_not_equal(rel: Tensor, i: int, k: int, weight: float = 1.0) -> Tensor:
    """weight * dot(x_i, x_k): the overlap of the two rows."""
    if i == k:
        raise ValueError(f"not-equal penalty needs two distinct variables, got {i}")
    pair = T.gather_rows(rel, np.array([i, k]))
    xi = T.gather_rows(pair, np.array([0])).reshape(-1)
    xk = T.gather_rows(pair, np.array([1])).reshape(-1)
    return weight * (xi * xk).sum()


def constraint_penalty(c, rel: Tensor) -> Tensor:
    if isinstance(c, Cardinality):
        return pen_cardinality(rel, c.scope, c.value, c.count)
    if isinstance(c, AllDifferentExact):
        return pen_alldiff_exact(rel, c.scope)
    if isinstance(c, AllDifferentAtMostOnce):
        return pen_alldiff_atmost(rel, c.scope)
    if isinstance(c, NotEqual):
        return pen_not_equal(rel, c.i, c.k, c.weight)
    raise TypeError(f"no penalty for constraint {type(c).__name__}")


# ---------------------------------------------------------------------------
# Compiled, batched loss


def _apply_f(p: Tensor, transform: str) -> Tensor:
    if transform == "quadratic":
        return T.square(p)
    if transform == "identity":
        return p
    raise ValueError(f"unknown penalty transform {transform!r}")


def _exact_pen(colsum: Tensor) -> Tensor:
    return T.abs_(1.0 - colsum).sum(axis=-1)


def _atmost_pen(colsum: Tensor) -> Tensor:
    return (T.relu(colsum - 1.0) + colsum * T.abs_(1.0 - colsum)).sum(axis=-1)


def _card_pen(colsum: Tensor, sel: np.ndarray, counts: np.ndarray) -> Tensor:
    dt = colsum.data.dtype
    return T.abs_(Tensor(counts.astype(dt, copy=False))
                  - (colsum * Tensor(sel.astype(dt, copy=False))).sum(axis=-1))


def _pad_stack(arrays) -> np.ndarray:
    """Stack along a new leading axis, zero-padding axis 0 to the longest."""
    first = arrays[0]
    out = np.zeros((len(arrays), max(len(a) for a in arrays)) + first.shape[1:], first.dtype)
    for b, a in enumerate(arrays):
        out[b, : len(a)] = a
    return out


class LossProgram:
    """Vectorized penalty evaluator over an instance's compiled form.

    Accepts relaxed assignments of shape ``(..., n, m)`` and returns the
    per-sample loss with shape equal to the leading dimensions. The lambdas,
    and each edge's weight under f, are folded into per-constraint
    coefficients, so the whole evaluation is a handful of tensor ops: a
    gather over the not-equal edge list and one membership matmul per scope
    kind. :meth:`stack` gives each sample of a batch its own instance.
    """

    def __init__(self, inst: CspInstance, cfg: LossConfig | None = None):
        cfg = cfg or default_loss_config(inst)
        if cfg.lambdas is not None and len(cfg.lambdas) != len(inst.constraints):
            raise ValueError(
                f"{len(cfg.lambdas)} lambdas for {len(inst.constraints)} constraints"
            )
        self.cfg = cfg
        self.n, self.m = inst.n, inst.m
        cc = inst.compiled
        lam = np.ones(len(inst.constraints)) if cfg.lambdas is None \
            else np.asarray(cfg.lambdas, dtype=np.float64)
        # f applies to w * dot(x_i, x_k), so lambda*w^2 (quadratic) or
        # lambda*w (identity) folds in front of f(dot)
        w = cc.edge_w**2 if cfg.transform == "quadratic" else cc.edge_w
        self.edge_i, self.edge_k = cc.edge_i, cc.edge_k
        self.edge_coeff = lam[cc.edge_index] * w
        self.exact = (cc.exact.rows, lam[cc.exact.index])
        self.atmost = (cc.atmost.rows, lam[cc.atmost.index])
        self.card = (
            cc.card.rows, one_hot(cc.card_value, inst.m), cc.card_count, lam[cc.card.index],
        )

    @classmethod
    def stack(cls, programs) -> "LossProgram":
        """One program whose arrays carry a leading sample axis: sample b of
        a ``(B, n, m)`` input is scored against ``programs[b]``.

        The programs must share n, m and the transform. Shorter edge lists
        and scope groups are padded with zero-weight entries.
        """
        first = programs[0]
        out = cls.__new__(cls)
        out.cfg, out.n, out.m = first.cfg, first.n, first.m
        out.edge_i, out.edge_k, out.edge_coeff = (
            _pad_stack([getattr(p, a) for p in programs]) for a in ("edge_i", "edge_k", "edge_coeff")
        )
        for kind in ("exact", "atmost", "card"):
            groups = [getattr(p, kind) for p in programs]
            setattr(out, kind, tuple(_pad_stack(arrays) for arrays in zip(*groups)))
        return out

    def _edge_rows(self, rel: Tensor, idx: np.ndarray) -> Tensor:
        """(..., E, m) rows of rel at the per-sample variable indices idx."""
        batch = rel.shape[:-2]
        offset = np.arange(int(np.prod(batch)), dtype=np.int64).reshape(batch + (1,)) * self.n
        return T.gather_rows(rel.reshape(-1, self.m), offset + idx)

    def loss(self, rel: Tensor) -> Tensor:
        """Per-sample loss; shape = rel.shape[:-2], in rel's dtype: every
        constant is cast to it."""
        if rel.shape[-2:] != (self.n, self.m):
            raise ShapeMismatch("loss over (..., n, m) rows", rel.shape, (self.n, self.m))
        dt = rel.data.dtype
        total = Tensor(np.zeros(rel.shape[:-2], dtype=dt))
        f = self.cfg.transform

        for group, pen in ((self.exact, _exact_pen), (self.atmost, _atmost_pen),
                           (self.card, _card_pen)):
            mat, lam = group[0], group[-1]
            if mat.shape[-2]:
                colsum = T.matmul(Tensor(mat.astype(dt, copy=False)), rel)  # (..., C, m)
                p = pen(colsum, *group[1:-1])
                total = total + (_apply_f(p, f) * Tensor(lam.astype(dt, copy=False))).sum(axis=-1)

        if self.edge_coeff.shape[-1]:
            dots = (self._edge_rows(rel, self.edge_i) * self._edge_rows(rel, self.edge_k)).sum(axis=-1)
            coeff = Tensor(self.edge_coeff.astype(dt, copy=False))
            total = total + (_apply_f(dots, f) * coeff).sum(axis=-1)

        return total


def total_loss(inst: CspInstance, rel: Tensor, cfg: LossConfig | None = None) -> Tensor:
    """sum_i lambda_i f(p_i) for one relaxed assignment of shape (n, m)."""
    return LossProgram(inst, cfg).loss(rel)
