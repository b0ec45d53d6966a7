"""Continuous penalties for discrete constraints and the training loss.

Each variable is relaxed to a probability row over the domain; a penalty is
a differentiable non-negative function of those rows that is zero on one-hot
inputs exactly when the discrete constraint holds. The loss over an instance
is ``sum_i f(p_i)``, every constraint weighing the same, with f quadratic by
default (identity for maximization instances, so edge weights keep their
sign).

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
    """The penalty transform f."""

    transform: str = "quadratic"  # or "identity"


def default_loss_config(inst: CspInstance) -> LossConfig:
    transform = "identity" if inst.mode == "maximization" else "quadratic"
    return LossConfig(transform=transform)


def one_hot(values, m: int) -> np.ndarray:
    """Exact float64 one-hot rows, shape ``values.shape + (m,)``: the rows
    of the identity that the values pick (IndexError for a value of m or more)."""
    return np.eye(m)[np.asarray(values, dtype=np.int64)]


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


def _exact_pen(colsum: Tensor, row_w: np.ndarray) -> Tensor:
    # a padded exact row would score m: its weight is 0
    return T.abs_(1.0 - colsum).sum(axis=-1) * row_w


def _atmost_pen(colsum: Tensor) -> Tensor:
    return (T.relu(colsum - 1.0) + colsum * T.abs_(1.0 - colsum)).sum(axis=-1)


def _card_pen(colsum: Tensor, sel: np.ndarray, counts: np.ndarray) -> Tensor:
    return T.abs_(counts - (colsum * sel).sum(axis=-1))


def _pad_stack(arrays, fill=0) -> np.ndarray:
    """Stack along a new leading axis, padding axis 0 to the longest with
    ``fill``: the arrays, concatenated, fill the rows that the lengths mark."""
    lens = np.array([len(a) for a in arrays])
    out = np.full((len(arrays), lens.max()) + arrays[0].shape[1:], fill, arrays[0].dtype)
    out[np.arange(lens.max()) < lens[:, None]] = np.concatenate(arrays)
    return out


class LossProgram:
    """Vectorized penalty evaluator over an instance's compiled form.

    Accepts relaxed assignments of shape ``(..., n, m)`` and returns the
    per-sample loss with shape equal to the leading dimensions. Four groups
    of arrays, which :meth:`stack` pads alike, make the whole evaluation a
    handful of tensor ops: ``edge`` (a gather over the not-equal edges, each
    weight under f folded into a coefficient) and one membership matmul per
    scope kind (``exact``, ``atmost``, ``card``). The exact group ends in a
    row weight: 1 for each of the instance's exact rows, 0 for the padding
    that :meth:`stack` adds when it gives each sample of a batch its own
    instance. A padded edge has coefficient 0, and a padded at-most-once or
    cardinality row scores 0.
    """

    def __init__(self, inst: CspInstance, cfg: LossConfig | None = None):
        self.cfg = cfg or default_loss_config(inst)
        self.n, self.m = inst.n, inst.m
        cc = inst.compiled
        # f applies to w * dot(x_i, x_k), so w^2 (quadratic) or w (identity)
        # folds in front of f(dot)
        self.edge = (cc.edge_i, cc.edge_k,
                     cc.edge_w**2 if self.cfg.transform == "quadratic" else cc.edge_w)
        self.exact = (cc.exact, np.ones(len(cc.exact)))
        self.atmost = (cc.atmost,)
        self.card = (cc.card, one_hot(cc.card_value, inst.m), cc.card_count)

    @classmethod
    def stack(cls, programs) -> "LossProgram":
        """One program whose arrays carry a leading sample axis: sample b of
        a ``(B, n, m)`` input is scored against ``programs[b]``.

        The programs must share n, m and the transform (ValueError
        otherwise). Each group's arrays are padded to its longest with zeros
        (:func:`_pad_stack`); ``lengths`` keeps each sample's own length of
        each group, which :meth:`take` reads.
        """
        first = programs[0]
        for p in programs[1:]:
            if (p.n, p.m, p.cfg.transform) != (first.n, first.m, first.cfg.transform):
                raise ValueError(
                    f"cannot stack a program over (n={p.n}, m={p.m}, {p.cfg.transform}) "
                    f"with one over (n={first.n}, m={first.m}, {first.cfg.transform})"
                )
        out = cls.__new__(cls)
        out.cfg, out.n, out.m = first.cfg, first.n, first.m
        out.lengths = {}
        for kind in ("edge", "exact", "atmost", "card"):
            groups = [getattr(p, kind) for p in programs]
            out.lengths[kind] = np.array([len(group[0]) for group in groups])
            setattr(out, kind, tuple(_pad_stack(arrays) for arrays in zip(*groups)))
        return out

    def take(self, rows) -> "LossProgram":
        """The samples ``rows`` (an index array) of a stacked program, each
        padded axis cut to the longest of them: the bytes of :meth:`stack`
        over those samples' own programs."""
        out = LossProgram.__new__(LossProgram)
        out.cfg, out.n, out.m = self.cfg, self.n, self.m
        for kind, lens in self.lengths.items():
            setattr(out, kind, tuple(a[rows, : lens[rows].max()] for a in getattr(self, kind)))
        return out

    def _edge_rows(self, rel: Tensor, idx: np.ndarray) -> Tensor:
        """(..., E, m) rows of rel at the per-sample variable indices idx."""
        batch = rel.shape[:-2]
        offset = np.arange(int(np.prod(batch)), dtype=np.int64).reshape(batch + (1,)) * self.n
        return T.gather_rows(rel.reshape(-1, self.m), offset + idx)

    def loss(self, rel: Tensor) -> Tensor:
        """Per-sample loss; shape = rel.shape[:-2], in rel's dtype: every
        constant enters as an array, which the tensor ops cast to it."""
        if rel.shape[-2:] != (self.n, self.m):
            raise ShapeMismatch("loss over (..., n, m) rows", rel.shape, (self.n, self.m))
        total = Tensor(np.zeros(rel.shape[:-2], dtype=rel.data.dtype))
        f = self.cfg.transform

        for group, pen in ((self.exact, _exact_pen), (self.atmost, _atmost_pen),
                           (self.card, _card_pen)):
            mat = group[0]
            if mat.shape[-2]:
                p = pen(T.matmul(mat, rel), *group[1:])  # colsum (..., C, m)
                total = total + _apply_f(p, f).sum(axis=-1)

        edge_i, edge_k, coeff = self.edge
        if coeff.shape[-1]:
            dots = (self._edge_rows(rel, edge_i) * self._edge_rows(rel, edge_k)).sum(axis=-1)
            total = total + (_apply_f(dots, f) * coeff).sum(axis=-1)

        return total

