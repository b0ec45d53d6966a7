"""Single-step assignment refiner.

The model takes a batch of variable assignments for one CSP instance and
produces, for every variable, a probability row over the domain. Inputs mix
three encodings: a learned embedding of the current value, a sinusoidal
positional encoding of the variable's index tuple, and a learned marker for
the variables chosen for update this step. The constraint graph enters the
attention as a bool mask on the softmax ("masked") or as a learned
non-positive offset added to the logits ("learned"). The output head is a
temperature softmax, optionally perturbed by Gumbel noise for
differentiable discrete sampling. This module makes every draw of a step,
in training and in a solve: the start, the subset, the dropout masks and
the Gumbel sample. ``forward`` draws from one generator per batch row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .csp import CspInstance
from .penalty import one_hot
from .tensor import NumericError, Tensor

RPE_MODES = ("masked", "learned")
APE_MODES = ("none", "multi")
SAMPLERS = ("gumbel", "softmax")


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 7
    heads: int = 4
    d_model: int = 128
    select_p: float = 0.5
    rpe_mode: str = "masked"
    ape_mode: str = "multi"
    tau: float = 0.1
    sampler: str = "gumbel"
    dropout: float = 0.1
    ffn_mult: int = 4

    def __post_init__(self):
        sizes = (self.layers, self.heads, self.d_model, self.ffn_mult)
        if not all(type(v) is int for v in sizes):
            raise ValueError("layers, heads, d_model and ffn_mult must be integers")
        if min(sizes) < 1:
            raise ValueError("layers, heads, d_model and ffn_mult must be positive")
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.heads} heads")
        # select_subset redraws until a draw selects something: at p >= 1e-3
        # that takes at most 1,000 draws in expectation
        if not 1e-3 <= self.select_p <= 1.0:
            raise ValueError(f"selection probability {self.select_p} outside [0.001,1]")
        if self.rpe_mode not in RPE_MODES:
            raise ValueError(f"rpe_mode must be one of {RPE_MODES}")
        if self.ape_mode not in APE_MODES:
            raise ValueError(f"ape_mode must be one of {APE_MODES}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError("temperature must be positive and finite")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout {self.dropout} outside [0,1)")


# ---------------------------------------------------------------------------
# Positional encodings


class ArityMismatch(ValueError):
    """A model width that the instance's index arity does not divide."""


def ape_table(inst: CspInstance, cfg: ModelConfig) -> np.ndarray:
    """(n, d_model) positional table for one instance: zeros for
    ``ape_mode="none"``; for "multi", each of the k dimensions of the index
    tuple gets a d_model/k wide interleaved sin/cos encoding."""
    d = cfg.d_model
    if cfg.ape_mode == "none":
        return np.zeros((inst.n, d))
    idx = np.array(inst.index_tuples)
    n, k = idx.shape
    if d % k != 0:
        raise ArityMismatch(f"d_model {d} not divisible by index arity {k}")
    width = d // k
    freqs = np.power(10000.0, -2.0 * np.arange((width + 1) // 2) / width)
    angles = idx[:, :, None] * freqs  # (n, k, ceil(width/2))
    out = np.empty((n, k, width))
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles[..., : width // 2])
    return out.reshape(n, d)


# ---------------------------------------------------------------------------
# Weights


class DomainMismatch(ValueError):
    """Weights built for one domain size applied to an instance of another."""


class ModelWeights:
    """All learnable parameters plus the architecture they belong to."""

    def __init__(self, config: ModelConfig, domain_size: int, params: dict[str, Tensor]):
        self.config = config
        self.domain_size = domain_size
        self.params = params
        for p in params.values():
            p.requires_grad = True

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, which every forward computes in."""
        return self.params["embed"].data.dtype

    def named_parameters(self):
        return self.params.items()

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def check_domain(self, inst: CspInstance) -> None:
        """Raise DomainMismatch unless ``inst`` has this model's domain size."""
        if inst.m != self.domain_size:
            raise DomainMismatch(
                f"instance has {inst.m} domain values, the model {self.domain_size}"
            )


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def param_shapes(config: ModelConfig, domain_size: int) -> dict[str, tuple[int, ...]]:
    """The name and shape of every parameter of ``config`` at
    ``domain_size``, in the order that ``init_weights`` draws them."""
    d = config.d_model
    ff = config.ffn_mult * d
    m = domain_size
    shapes = {"embed": (m, d), "select_embed": (d,), "alpha": (), "beta": (), "gamma": (),
              "w_out": (d, m), "b_out": (m,), "lnf.g": (d,), "lnf.b": (d,)}
    if config.rpe_mode == "learned":
        shapes["rpe_theta"] = ()
    for l in range(config.layers):
        shapes |= {f"l{l}.ln1.g": (d,), f"l{l}.ln1.b": (d,),
                   f"l{l}.wq": (d, d), f"l{l}.wk": (d, d), f"l{l}.wv": (d, d), f"l{l}.wo": (d, d),
                   f"l{l}.ln2.g": (d,), f"l{l}.ln2.b": (d,),
                   f"l{l}.w1": (d, ff), f"l{l}.b1": (ff,), f"l{l}.w2": (ff, d), f"l{l}.b2": (d,)}
    return shapes


def _init_value(name: str, shape: tuple[int, ...], rng: np.random.Generator):
    if name in ("embed", "select_embed"):
        return rng.normal(0.0, 0.02, size=shape)
    if name == "rpe_theta":  # c = -softplus(theta); this value puts c near -1
        return math.log(math.e - 1.0)
    if not shape:  # the input mix: alpha, beta, gamma
        return 1.0
    if len(shape) == 2:
        return _xavier(rng, *shape)
    return np.ones(shape) if name.endswith(".g") else np.zeros(shape)


def init_weights(config: ModelConfig, domain_size: int, rng: np.random.Generator,
                 dtype=np.float32) -> ModelWeights:
    """Fresh parameters in ``dtype``: the float64 draws, cast once, so both
    dtypes start from the same values."""
    return ModelWeights(config, domain_size, {
        name: Tensor(np.asarray(_init_value(name, shape, rng), dtype=dtype))
        for name, shape in param_shapes(config, domain_size).items()})


# ---------------------------------------------------------------------------
# Per-instance context


@dataclass
class InstanceContext:
    """The per-instance arrays that ``forward`` reads, built once and shared
    across forward passes; ``keep`` is the bool adjacency, as ``attention``
    takes it. The fixed variables are read from ``inst.compiled``, not here."""

    ape: np.ndarray  # (n, d)
    keep: np.ndarray  # (n, n) bool, the adjacency; (B, 1, n, n) when stacked

    @staticmethod
    def build(inst: CspInstance, cfg: ModelConfig) -> "InstanceContext":
        """The attention graph comes from the compiled instance; the
        diagonal counts as an edge, so every variable attends to itself."""
        return InstanceContext(ape_table(inst, cfg), inst.compiled.adjacency())


# ---------------------------------------------------------------------------
# Random draws


def random_assignment(inst: CspInstance, rng: np.random.Generator) -> np.ndarray:
    """Uniform values on non-fixed variables, givens kept."""
    cc = inst.compiled
    return np.where(cc.fixed_mask, cc.fixed_values, rng.integers(0, inst.m, size=inst.n))


def select_subset(fixed_mask: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(p) inclusion per non-fixed variable; (n,) bool.

    Redraws when nothing was selected but selectable variables exist: an
    empty step would be the identity and waste an iteration.
    """
    free = ~fixed_mask
    if not free.any():
        return np.zeros_like(fixed_mask)
    while True:
        sel = (rng.random(fixed_mask.shape[0]) < p) & free
        if sel.any():
            return sel


def _uniform(rngs, shape) -> np.ndarray:
    """Uniform [0, 1) draws of ``shape``, row b from ``rngs[b]`` alone: one
    generator per row (ValueError for another count). Rows may share a
    generator; since ``Generator.random`` fills in C order, a generator
    shared by every row gives the bytes of one whole-shape draw."""
    if len(rngs) != shape[0]:
        raise ValueError(f"need {shape[0]} generators, one per row, got {len(rngs)}")
    u = np.empty(shape)
    for r, row in zip(rngs, u):
        r.random(out=row)
    return u


def gumbel_noise(rngs, shape) -> np.ndarray:
    """Standard Gumbel noise of ``shape``, row b from ``rngs[b]``."""
    u = np.clip(_uniform(rngs, shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def _dropout_mask(rngs, shape, rate: float, dtype) -> np.ndarray:
    """Inverted-dropout mask of ``shape`` in ``dtype``, row b from
    ``rngs[b]``: 0 where the draw is below ``rate``, 1 / (1 - rate) elsewhere."""
    return (_uniform(rngs, shape) >= rate) * (1 / np.dtype(dtype).type(1.0 - rate))


# ---------------------------------------------------------------------------
# Forward pass


def forward(
    w: ModelWeights,
    ctx: InstanceContext,
    values: np.ndarray,
    selected: np.ndarray,
    rngs=None,
    training: bool = False,
) -> Tensor:
    """One refinement step over a batch of assignments of one instance.

    values: (B, n) ints; selected: (B, n) bool. Returns the (B, n, m)
    relaxed assignment: the model's probability row on each selected
    variable, and the exact one-hot row of the current value on every
    other variable.

    The last layer takes its queries from each batch element's selected
    rows, padded with unselected rows to S, the largest count in the batch.
    Only those S rows go through its attention output, residual and
    feed-forward block, the final LayerNorm and the head; the padded rows
    are then dropped. Its keys and values still come from every row.

    ``rngs`` holds one generator per batch row, and rows may share one.
    Row b draws from ``rngs[b]`` alone: in training each layer's two
    dropout masks, then the gumbel sampler's noise, each at the full
    (B, n, .) shape and read at the last layer's rows, so the streams do
    not depend on the selection. A forward that draws needs ``rngs``
    (ValueError otherwise). Everything runs in the weights' dtype: the
    context, the selection mask, the masks and the noise are cast to it.
    """
    cfg = w.config
    B, n = values.shape
    m = w.domain_size
    dt = w.dtype
    drop = training and cfg.dropout > 0.0
    if rngs is None and (drop or cfg.sampler == "gumbel"):
        raise ValueError("dropout in training and the gumbel sampler need rngs")

    sel = Tensor(selected[..., None].astype(dt))  # (B, n, 1)
    emb = T.gather_rows(w["embed"], values)  # (B, n, d)
    ape = Tensor(ctx.ape.astype(dt, copy=False))
    h = w["alpha"] * emb + w["beta"] * ape + w["gamma"] * (sel * w["select_embed"])

    offset = None
    if cfg.rpe_mode == "learned":
        offset = -T.log(1.0 + T.exp(w["rpe_theta"]))  # softplus keeps the offset <= 0

    # the selected rows first, in order, then unselected ones as padding
    rows = np.argsort(~selected, axis=1, kind="stable")[:, : selected.sum(axis=1).max()]
    batch = np.arange(B)[:, None]

    def at_rows(full: np.ndarray, q_rows) -> Tensor:  # a draw as a constant in the dtype
        return Tensor((full if q_rows is None else full[batch, q_rows]).astype(dt, copy=False))

    for l in range(cfg.layers):
        q_rows = rows if l == cfg.layers - 1 else None  # None: every row
        x = T.layer_norm(h, w[f"l{l}.ln1.g"], w[f"l{l}.ln1.b"])
        z = T.attention(x, w[f"l{l}.wq"], w[f"l{l}.wk"], w[f"l{l}.wv"], w[f"l{l}.wo"],
                        cfg.heads, ctx.keep, rows=q_rows, offset=offset)
        if q_rows is not None:
            h = T.gather_rows(h.reshape(B * n, -1), batch * n + q_rows)
        if drop:
            z = z * at_rows(_dropout_mask(rngs, (B, n, cfg.d_model), cfg.dropout, dt), q_rows)
        h = h + z

        x = T.layer_norm(h, w[f"l{l}.ln2.g"], w[f"l{l}.ln2.b"])
        x = T.gelu(T.linear(x, w[f"l{l}.w1"], w[f"l{l}.b1"]))
        x = T.linear(x, w[f"l{l}.w2"], w[f"l{l}.b2"])
        if drop:
            x = x * at_rows(_dropout_mask(rngs, (B, n, cfg.d_model), cfg.dropout, dt), q_rows)
        h = h + x

    h = T.layer_norm(h, w["lnf.g"], w["lnf.b"])
    # an overflow in the head, 1/tau's cast to the dtype included, is reported
    # by the check below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        out_logits = T.linear(h, w["w_out"], w["b_out"])  # (B, S, m)
        if cfg.sampler == "gumbel":
            out_logits = out_logits + at_rows(gumbel_noise(rngs, (B, n, m)), rows)
        out_logits = out_logits * (1.0 / cfg.tau)
    if not np.all(np.isfinite(out_logits.data)):
        raise NumericError(f"non-finite output logits at temperature {cfg.tau}")
    yhat = T.softmax(out_logits, axis=-1)
    return T.put_rows(one_hot(values, m), rows, yhat, selected[batch, rows])


def apply_update(values: np.ndarray, selected: np.ndarray, yhat) -> np.ndarray:
    """Argmax update on the selected variables; ties go to the lowest value."""
    probs = yhat.data if isinstance(yhat, Tensor) else np.asarray(yhat)
    picks = np.argmax(probs, axis=-1)
    return np.where(selected, picks, values)
