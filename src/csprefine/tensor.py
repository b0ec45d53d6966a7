"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

Everything the refinement model and the penalty functions need runs through
the ``Tensor`` class below: values live in numpy arrays, and every operation
executed while a :class:`Tape` is active records a backward rule onto that
tape. Calling :func:`backward` on a scalar replays the tape in reverse and
accumulates gradients into every reachable tensor that requires them.

A tensor keeps float32 data as float32 and stores anything else as
float64. Every op computes in the dtype of its tensor inputs: a Python
number that meets a tensor takes the tensor's dtype, and masks are cast to
the input's dtype, so a float32 forward and backward never promote to
float64.

Every op computes its local derivative inside its backward closure, never in
the forward, so a forward with no tape (inference) does forward work only.
Shape errors come from numpy and are reported as :class:`ShapeMismatch`.
Three fused ops keep the tape short, each with a closed-form backward:
:func:`layer_norm`, :func:`linear` (``x @ w + b`` as one flat GEMM) and a
0/1 ``keep`` mask on :func:`softmax` that never exponentiates -inf.

A backward closure (``bwd``) maps the output gradient ``g`` to one entry per
input: ``None`` for an input that needs no gradient (``requires_grad``
false), otherwise a fresh array or a view of ``g``. :func:`backward`
releases each recorded op's output gradient (``grad`` becomes ``None``)
once its ``bwd`` has run, so only leaves, the tensors that no op on the
tape produced, keep their gradients. The first input handed ``g`` or a
view of it owns that memory without a copy; a second holder of the same
memory, or a read-only array, gets a copy.

Subgradient choices are deterministic: ``abs'(0) = 0`` and ``relu'(0) = 0``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


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


_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        # identity with numpy's native dtype singletons: the cheapest test
        self.data = data if data.dtype is _F64 or data.dtype is _F32 else data.astype(_F64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: int | None = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray, taken=()) -> None:
        """Add ``g`` to ``self.grad``. A first gradient is kept as it is when
        it is a writeable array of this tensor's dtype that shares no memory
        with any array in ``taken``; otherwise the tensor keeps a copy in its
        own dtype."""
        if self.grad is not None:
            self.grad += g
        elif (g.dtype == self.data.dtype and g.flags.writeable
              and not any(np.may_share_memory(g, h) for h in taken)):
            self.grad = g
        else:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul(self, _wrap(1.0 / other, self))
        return mul(self, pow_scalar(other, -1.0))

    def __neg__(self):
        return mul(self, _wrap(-1.0, self))

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


def _wrap(x, like: Tensor | None = None) -> Tensor:
    """``x`` as a tensor; a non-tensor takes the dtype of ``like``, the
    other operand, so that a Python number never promotes a float32 op."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64 if like is None else like.data.dtype))


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
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(_binary(np.subtract, "sub", a, b))

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(_binary(np.multiply, "mul", a, b))

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def abs_(a: Tensor) -> Tensor:
    out = Tensor(np.abs(a.data))

    def bwd(g):
        return (g * np.sign(a.data),)  # sign(0) = 0: the chosen subgradient at the kink

    return _record(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def bwd(g):
        return (g * (a.data > 0.0).astype(a.data.dtype),)

    return _record(out, (a,), bwd)


_GELU_A, _GELU_C = 0.044715, math.sqrt(2.0 / math.pi)  # Python floats: no promotion


def gelu(a: Tensor) -> Tensor:
    """GeLU, tanh form (Hendrycks & Gimpel, arXiv:1606.08415); within 5e-4 of x*Phi(x)."""
    x = a.data
    t = np.multiply(_GELU_A, x, out=np.empty_like(x))  # an array even when x is 0-d
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5
    out = Tensor(y)

    def bwd(g):
        # dt = c*(1 + 3a*x*x), the derivative of tanh's argument
        d = np.multiply(3.0 * _GELU_A, x, out=np.empty_like(x))
        d *= x
        d += 1.0
        d *= _GELU_C
        s = np.multiply(t, t, out=np.empty_like(x))
        np.subtract(1.0, s, out=s)
        s *= x
        s *= 0.5
        s *= d  # 0.5*x*(1 - t*t)*dt
        np.add(t, 1.0, out=d)
        d *= 0.5
        d += s
        d *= g
        return (d,)

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
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    out = Tensor(a.data * keep)

    def bwd(g):
        return (g * keep,)

    return _record(out, (a,), bwd)


# ---------------------------------------------------------------------------
# Linear algebra and shaping


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:  # backward swaps the last two axes
        raise ShapeMismatch("matmul", a.shape, b.shape)
    out = Tensor(_binary(np.matmul, "matmul", a, b))

    def bwd(g):
        ga = gb = None
        if b.data.ndim == 2:  # a weight: contract all rows of a at once, one GEMM per gradient
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                ga = (g2 @ b.data.T).reshape(a.shape)
            if b.requires_grad:
                gb = a.data.reshape(-1, b.shape[0]).T @ g2
        else:
            if a.requires_grad:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
            if b.requires_grad:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

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
        return (np.broadcast_to(g2, a.shape),)

    return _record(out, (a,), bwd)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), _wrap(1.0 / n, a))


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


def softmax(a: Tensor, axis: int = -1, keep: np.ndarray | None = None) -> Tensor:
    """Softmax along ``axis``; -inf entries become exact zeros.

    ``keep``, a 0/1 array that broadcasts to ``a``, masks entries out: they
    become exact zeros with a zero gradient, the max is taken over the kept
    entries only, and the shifted logits are multiplied by ``keep`` before
    and after ``exp``, so no masked entry is exponentiated as -inf. Masked
    entries must be finite. Raises :class:`NumericError` when a whole slice
    is -inf or masked (nothing to attend to).
    """
    x = a.data
    if keep is not None:
        if np.broadcast_shapes(x.shape, keep.shape) != x.shape:
            raise ShapeMismatch("softmax", x.shape, keep.shape)
        keep = keep.astype(x.dtype, copy=False)
    xmax = np.max(x if keep is None else np.where(keep, x, -np.inf), axis=axis, keepdims=True)
    if np.any(np.isneginf(xmax)):
        raise NumericError("softmax: a slice is entirely -inf or masked")
    y = x - xmax
    if keep is not None:
        y *= keep
    np.exp(y, out=y)
    if keep is not None:
        y *= keep
    y /= y.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (a,), bwd)


def layer_norm(x: Tensor, g: Tensor, b: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis (Ba et al., arXiv:1607.06450),
    ``(x - mean) / sqrt(var + eps) * g + b``, with the closed-form backward."""
    d = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * (1.0 / d)
    xhat = x.data - mu
    var = (xhat * xhat).sum(axis=-1, keepdims=True) * (1.0 / d)
    inv = np.power(var + eps, -0.5)
    xhat *= inv
    try:
        y = xhat * g.data
        y += b.data
    except ValueError:
        raise ShapeMismatch("layer_norm", x.shape, g.shape, b.shape) from None
    out = Tensor(y)

    def bwd(gy):
        gx = gg = gb = None
        if x.requires_grad:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = gy * g
            dxhat = gy * g.data
            proj = (dxhat * xhat).sum(axis=-1, keepdims=True) * (1.0 / d)
            gx = dxhat - dxhat.sum(axis=-1, keepdims=True) * (1.0 / d)
            gx -= xhat * proj
            gx *= inv
        if g.requires_grad:
            gg = _unbroadcast(gy * xhat, g.shape)
        if b.requires_grad:
            gb = _unbroadcast(gy, b.shape)
        return gx, gg, gb

    return _record(out, (x, g, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D weight ``w`` (k, f) and a bias ``b`` (f,): one
    GEMM over the rows of ``x`` flattened to (-1, k), forward and backward."""
    if x.data.ndim < 1 or w.data.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeMismatch("linear", x.shape, w.shape, b.shape)
    k, f = w.shape
    x2 = x.data.reshape(-1, k)
    y = x2 @ w.data
    y += b.data
    out = Tensor(y.reshape(*x.shape[:-1], f))

    def bwd(g):
        g2 = g.reshape(-1, f)
        return ((g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None,
                x2.T @ g2 if w.requires_grad else None,
                g2.sum(0) if b.requires_grad else None)

    return _record(out, (x, w, b), bwd)


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
        g_out, out.grad = out.grad, None  # released: no later op reads it
        if g_out is None:
            continue
        taken = []
        for t, g in zip(inputs, bwd(g_out)):
            if t.requires_grad and g is not None:
                t.accumulate_grad(g, taken)
                taken.append(t.grad)


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
