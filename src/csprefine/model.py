"""Single-step assignment refiner.

The model takes a batch of variable assignments for one CSP instance and
produces, for every variable, a probability row over the domain. Inputs mix
three encodings: a learned embedding of the current value, a sinusoidal
positional encoding of the variable's index tuple, and a learned marker for
the variables chosen for update this step. The constraint graph enters the
attention as a 0/1 mask on the softmax ("masked") or as a learned
non-positive offset added to the logits ("learned"). The output head is a
temperature softmax, optionally perturbed by Gumbel noise for
differentiable discrete sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .csp import CspInstance
from .tensor import NumericError, Tensor

RPE_MODES = ("masked", "learned", "none")
APE_MODES = ("none", "1d", "multi")
SAMPLERS = ("gumbel", "softmax")


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 7
    heads: int = 3
    d_model: int = 128
    select_p: float = 0.5
    rpe_mode: str = "masked"
    ape_mode: str = "multi"
    tau: float = 0.1
    sampler: str = "gumbel"
    dropout: float = 0.1
    ffn_mult: int = 4

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.heads} heads")
        if not 0.0 < self.select_p <= 1.0:
            raise ValueError(f"selection probability {self.select_p} outside (0,1]")
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
    """(n, d_model) positional table for one instance, per cfg.ape_mode: each
    of the k index dimensions ("1d": the variable number, "multi": the index
    tuple) gets a d_model/k wide interleaved sin/cos encoding."""
    d = cfg.d_model
    if cfg.ape_mode == "none":
        return np.zeros((inst.n, d))
    idx = np.arange(inst.n)[:, None] if cfg.ape_mode == "1d" else np.array(inst.index_tuples)
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


def init_weights(config: ModelConfig, domain_size: int, rng: np.random.Generator,
                 dtype=np.float32) -> ModelWeights:
    """Fresh parameters in ``dtype``: the float64 draws, cast once, so both
    dtypes start from the same values."""
    d = config.d_model
    ff = config.ffn_mult * d
    m = domain_size
    p = {
        "embed": rng.normal(0.0, 0.02, size=(m, d)),
        "select_embed": rng.normal(0.0, 0.02, size=(d,)),
        "alpha": 1.0,
        "beta": 1.0,
        "gamma": 1.0,
        "w_out": _xavier(rng, d, m),
        "b_out": np.zeros(m),
        "lnf.g": np.ones(d),
        "lnf.b": np.zeros(d),
    }
    if config.rpe_mode == "learned":
        # c = -softplus(theta); this value puts c near -1
        p["rpe_theta"] = math.log(math.e - 1.0)
    for l in range(config.layers):
        p[f"l{l}.ln1.g"] = np.ones(d)
        p[f"l{l}.ln1.b"] = np.zeros(d)
        p[f"l{l}.wq"] = _xavier(rng, d, d)
        p[f"l{l}.wk"] = _xavier(rng, d, d)
        p[f"l{l}.wv"] = _xavier(rng, d, d)
        p[f"l{l}.wo"] = _xavier(rng, d, d)
        p[f"l{l}.ln2.g"] = np.ones(d)
        p[f"l{l}.ln2.b"] = np.zeros(d)
        p[f"l{l}.w1"] = _xavier(rng, d, ff)
        p[f"l{l}.b1"] = np.zeros(ff)
        p[f"l{l}.w2"] = _xavier(rng, ff, d)
        p[f"l{l}.b2"] = np.zeros(d)
    return ModelWeights(config, domain_size,
                        {k: Tensor(np.asarray(v, dtype=dtype)) for k, v in p.items()})


# ---------------------------------------------------------------------------
# Per-instance context


@dataclass
class InstanceContext:
    """The per-instance arrays that ``forward`` reads, built once and shared
    across forward passes. The fixed variables are read from
    ``inst.compiled``, not from here."""

    ape: np.ndarray  # (n, d)
    keep: np.ndarray  # (n, n) 0/1 float, the adjacency; (B, 1, n, n) when stacked

    @staticmethod
    def build(inst: CspInstance, cfg: ModelConfig) -> "InstanceContext":
        """The attention graph comes from the compiled instance; the
        diagonal counts as an edge, so every variable attends to itself."""
        keep = inst.compiled.adjacency().astype(np.float64)
        return InstanceContext(ape_table(inst, cfg), keep)


# ---------------------------------------------------------------------------
# Stochastic subset selection


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


# ---------------------------------------------------------------------------
# Forward pass


def gumbel_noise(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.random(shape)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def forward(
    w: ModelWeights,
    ctx: InstanceContext,
    values: np.ndarray,
    selected: np.ndarray,
    rng: np.random.Generator | None = None,
    training: bool = False,
    noise: np.ndarray | None = None,
) -> Tensor:
    """One refinement step over a batch of assignments of one instance.

    values: (B, n) ints; selected: (B, n) bool. Returns (B, n, m)
    probability rows; only the selected rows are meaningful downstream.
    Gumbel noise comes from ``noise`` when given, else from ``rng``.
    Everything runs in the weights' dtype: the context, the selection mask
    and the noise are cast to it.
    """
    cfg = w.config
    B, n = values.shape
    d = cfg.d_model
    H = cfg.heads
    dh = d // H
    dt = w.dtype

    sel = Tensor(selected[..., None].astype(dt))  # (B, n, 1)
    emb = T.gather_rows(w["embed"], values)  # (B, n, d)
    ape = Tensor(ctx.ape.astype(dt, copy=False))
    h = w["alpha"] * emb + w["beta"] * ape + w["gamma"] * (sel * w["select_embed"])

    bias = keep = None
    if cfg.rpe_mode == "masked":
        keep = ctx.keep.astype(dt, copy=False)
    elif cfg.rpe_mode == "learned":
        c = -T.log(1.0 + T.exp(w["rpe_theta"]))  # softplus keeps c <= 0
        bias = c * Tensor(1.0 - ctx.keep.astype(dt, copy=False))  # c on every non-edge

    scale = 1.0 / math.sqrt(dh)
    for l in range(cfg.layers):
        x = T.layer_norm(h, w[f"l{l}.ln1.g"], w[f"l{l}.ln1.b"])
        q = T.transpose((x @ w[f"l{l}.wq"]).reshape(B, n, H, dh), (0, 2, 1, 3))
        k = T.transpose((x @ w[f"l{l}.wk"]).reshape(B, n, H, dh), (0, 2, 1, 3))
        v = T.transpose((x @ w[f"l{l}.wv"]).reshape(B, n, H, dh), (0, 2, 1, 3))
        logits = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * scale  # (B, H, n, n)
        if bias is not None:
            logits = logits + bias
        attn = T.softmax(logits, axis=-1, keep=keep)
        z = T.matmul(attn, v)  # (B, H, n, dh)
        z = T.transpose(z, (0, 2, 1, 3)).reshape(B, n, d) @ w[f"l{l}.wo"]
        z = T.dropout(z, cfg.dropout, rng, training) if rng is not None else z
        h = h + z

        x = T.layer_norm(h, w[f"l{l}.ln2.g"], w[f"l{l}.ln2.b"])
        x = T.gelu(T.linear(x, w[f"l{l}.w1"], w[f"l{l}.b1"]))
        x = T.linear(x, w[f"l{l}.w2"], w[f"l{l}.b2"])
        x = T.dropout(x, cfg.dropout, rng, training) if rng is not None else x
        h = h + x

    h = T.layer_norm(h, w["lnf.g"], w["lnf.b"])
    out_logits = T.linear(h, w["w_out"], w["b_out"])  # (B, n, m)
    if not np.all(np.isfinite(out_logits.data)):
        raise NumericError("non-finite output logits")

    if cfg.sampler == "gumbel":
        if noise is None:
            if rng is None:
                raise ValueError("gumbel sampler needs an rng or explicit noise")
            noise = gumbel_noise(rng, out_logits.shape)
        out_logits = out_logits + Tensor(noise.astype(dt, copy=False))
    return T.softmax(out_logits * (1.0 / cfg.tau), axis=-1)


def apply_update(values: np.ndarray, selected: np.ndarray, yhat) -> np.ndarray:
    """Argmax update on the selected variables; ties go to the lowest value."""
    probs = yhat.data if isinstance(yhat, Tensor) else np.asarray(yhat)
    picks = np.argmax(probs, axis=-1)
    return np.where(selected, picks, values)
