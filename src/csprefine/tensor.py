"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything the refinement model and the penalty functions need runs through
the ``Tensor`` class below: values live in numpy arrays, and every operation
executed while a :class:`Tape` is active records a backward rule onto that
tape. Calling :func:`backward` on a scalar replays the tape in reverse and
accumulates gradients into every reachable tensor that requires them.

Every op computes its local derivative inside its backward closure, never in
the forward, so a forward with no tape (inference) does forward work only.
Shape errors come from numpy and are reported as :class:`ShapeMismatch`.

Subgradient choices are deterministic: ``abs'(0) = 0`` and ``relu'(0) = 0``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf


class TensorError(Exception):
    """Base class for tensor-engine failures."""


class ShapeMismatch(TensorError):
    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {shapes}")


class NumericError(TensorError):
    """Non-finite values where finite ones are required."""


# ---------------------------------------------------------------------------
# Tape


class Tape:
    """Ordered record of operations for one forward pass.

    Each entry holds the output tensor, its input tensors, and a closure
    mapping the output gradient to per-input gradients. Entries are appended
    in execution order, so inputs always precede the ops that consume them;
    ``backward`` walks the list once in reverse.
    """

    def __init__(self):
        self.ops: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def record(self, out: "Tensor", inputs: tuple["Tensor", ...], backward_fn) -> None:
        out._node = len(self.ops)
        self.ops.append((out, inputs, backward_fn))

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextmanager
def no_grad():
    """Run a block without recording, even if a tape is active."""
    _TAPE_STACK.append(None)  # type: ignore[arg-type]
    try:
        yield
    finally:
        _TAPE_STACK.pop()


# ---------------------------------------------------------------------------
# Tensor


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: int | None = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul(self, _wrap(1.0 / other))
        return mul(self, pow_scalar(other, -1.0))

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _binary(fn, op: str, a: Tensor, b: Tensor) -> np.ndarray:
    """``fn(a.data, b.data)``, with numpy's shape error as :class:`ShapeMismatch`."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeMismatch(op, a.shape, b.shape) from None


# ---------------------------------------------------------------------------
# Elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(_binary(np.add, "add", a, b))

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(_binary(np.subtract, "sub", a, b))

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(_binary(np.multiply, "mul", a, b))

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(out, (a, b), bwd)


def abs_(a: Tensor) -> Tensor:
    out = Tensor(np.abs(a.data))

    def bwd(g):
        return (g * np.sign(a.data),)  # sign(0) = 0: the chosen subgradient at the kink

    return _record(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def bwd(g):
        return (g * (a.data > 0.0).astype(np.float64),)

    return _record(out, (a,), bwd)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    """Exact GeLU: x * Phi(x) with Phi the standard normal CDF."""
    x = a.data
    phi = 0.5 * (1.0 + erf(x / _SQRT2))
    out = Tensor(x * phi)

    def bwd(g):
        return (g * (phi + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))),)

    return _record(out, (a,), bwd)


def pow_scalar(a: Tensor, p: float) -> Tensor:
    out = Tensor(np.power(a.data, p))

    def bwd(g):
        return (g * (p * np.power(a.data, p - 1.0)),)

    return _record(out, (a,), bwd)


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data)

    def bwd(g):
        return (2.0 * g * a.data,)

    return _record(out, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))

    def bwd(g):
        return (g * out.data,)

    return _record(out, (a,), bwd)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))

    def bwd(g):
        return (g / a.data,)

    return _record(out, (a,), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; the identity when not training or rate == 0."""
    if not training or rate <= 0.0:
        return a
    keep = (rng.random(a.shape) >= rate).astype(np.float64) / (1.0 - rate)
    out = Tensor(a.data * keep)

    def bwd(g):
        return (g * keep,)

    return _record(out, (a,), bwd)


# ---------------------------------------------------------------------------
# Linear algebra and shaping


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_binary(np.matmul, "matmul", a, b))

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def bwd(g):
        return (g.reshape(a.shape),)

    return _record(out, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes))
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (g.transpose(inv),)

    return _record(out, (a,), bwd)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        g2 = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.shape).copy(),)

    return _record(out, (a,), bwd)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), _wrap(1.0 / n))


def gather_rows(table: Tensor, indices) -> Tensor:
    """Pick rows of ``table`` along axis 0; backward scatter-adds.

    ``indices`` may be any integer array shape; output shape is
    ``indices.shape + table.shape[1:]``. This is the embedding lookup.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"gather_rows: index out of range for table with {table.shape[0]} rows"
        )
    out = Tensor(table.data[idx])

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, *table.shape[1:]))
        return (gt,)

    return _record(out, (table,), bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``; -inf entries become exact zeros.

    Raises :class:`NumericError` when a whole slice is -inf (nothing to
    attend to).
    """
    x = a.data
    xmax = np.max(x, axis=axis, keepdims=True)
    if np.any(np.isneginf(xmax)):
        raise NumericError("softmax: a slice is entirely -inf")
    e = np.exp(x - xmax)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (a,), bwd)


# ---------------------------------------------------------------------------
# Backward pass


def backward(loss: Tensor) -> None:
    """Propagate gradients from a scalar loss through the active tape."""
    tape = active_tape()
    if tape is None:
        raise TensorError("backward called with no active tape")
    if loss.data.size != 1:
        raise TensorError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._node is None:
        return  # loss does not depend on any recorded op
    loss.accumulate_grad(np.ones_like(loss.data))
    for out, inputs, bwd in reversed(tape.ops[: loss._node + 1]):
        if out.grad is None:
            continue
        grads = bwd(out.grad)
        for t, g in zip(inputs, grads):
            if t.requires_grad and g is not None:
                t.accumulate_grad(g)


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    failures: list[tuple[int, float]] = field(default_factory=list)


def grad_check(f, x: Tensor, eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of scalar-valued ``f`` with central
    finite differences at ``x``.

    The caller is responsible for keeping ``x`` away from |.|/relu kinks;
    resample if any coordinate sits within ~1e-6 of one.
    """
    x.requires_grad = True
    x.zero_grad()
    with Tape():
        y = f(x)
        backward(y)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        with no_grad():
            fp = float(f(x).data)
        flat[i] = orig - eps
        with no_grad():
            fm = float(f(x).data)
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * eps)

    a = analytic.reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
    rel = np.abs(a - numeric) / denom
    failures = [(int(i), float(rel[i])) for i in np.nonzero(rel > tol)[0]]
    return GradCheckReport(
        max_rel_err=float(rel.max()) if rel.size else 0.0,
        passed=not failures,
        failures=failures,
    )
