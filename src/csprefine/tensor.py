"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

Everything the refinement model and the penalty functions need runs through
the ``Tensor`` class below: values live in numpy arrays, and every operation
executed while a :class:`Tape` is active records a backward rule onto that
tape. Calling :func:`backward` on a scalar replays the tape in reverse and
accumulates gradients into every reachable tensor that requires them.

A tensor keeps float32 data as float32 and stores anything else as
float64. Every op computes in the dtype of its tensor inputs: a number or
an array that meets a tensor, on either side of :func:`add`, :func:`sub`,
:func:`mul`, :func:`matmul` or their operators (numpy defers ``array + t``
to the tensor), takes the tensor's dtype, so a float32 forward and backward
never promote to float64.

Every op computes its local derivative inside its backward closure, never in
the forward, so a forward with no tape (inference) does forward work only.
No op draws random numbers: a caller that needs dropout or noise draws
it and passes it in as a constant, as ``mul``'s or ``add``'s other operand.
Shape errors come from numpy and are reported as :class:`ShapeMismatch`.
Fused ops keep the tape short, each with a closed-form backward:
:func:`layer_norm`, :func:`linear` (``x @ w + b`` as one flat GEMM) and
:func:`attention`, a whole multi-head attention block whose queries may
come from a subset of the rows, whose bool ``keep`` mask (one (n, n) graph
for the batch, as a solve passes it, or one per batch element, as training
stacks it) never exponentiates -inf, and whose backward keeps Q, K, V, A
and A V;
:func:`gather_rows` on the flattened (B n, ...) rows takes such a subset,
and :func:`put_rows` writes one back.

A backward closure (``bwd``) maps the output gradient ``g`` to one entry per
input: ``None`` for an input that needs no gradient (``requires_grad``
false), otherwise a fresh array or a view of ``g``. :func:`backward`
releases each recorded op's output gradient (``grad`` becomes ``None``)
once its ``bwd`` has run, so only leaves, the tensors that no op on the
tape produced, keep their gradients. The first input handed ``g`` or a
view of it owns that memory without a copy; a second holder of the same
memory, or a read-only array, gets a copy.

The gradient that :func:`softmax` hands back is floored: entries below
``tiny / eps`` of the dtype in magnitude (2^-103 in float32) become exact
zeros. A low-temperature softmax head saturates, and numpy does not flush
subnormals to zero, so without the floor its backward would fill every op
upstream of it with subnormal gradients, which x86 cores compute on in
microcode, many times slower. An entry below the floor is less than half
an ulp of any value of at least ``2 tiny / eps**2`` (2^-79 in float32), so
it cannot change a sum that holds a gradient which trains anything; an
entry at or above it stays normal after a multiplication by any factor of
at least ``eps``. Every loss gradient enters the model through its head
softmax, so this one floor keeps subnormals out of the backward of every
``linear``, ``gelu``, ``layer_norm`` and ``attention`` op upstream of it.

Every row scatter-add in a backward (:func:`gather_rows` and the query
rows of :func:`attention`) is one ``np.add.at`` on the flat
indices ``rows * w + arange(w)`` of the target viewed as 1-D, w its row
width: numpy's fast 1-D loop, not its slow general one for a row index.
Both add in index order, so each sum is the row form's, bit for bit.

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
    __array_ufunc__ = None  # numpy hands ``array + t`` to ``t.__radd__``

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
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, pow_scalar(other, -1.0))
        return mul(self, 1.0 / other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

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


def _binary(fn, op: str, a, b) -> tuple[Tensor, Tensor, Tensor]:
    """``a``, ``b`` and ``fn(a.data, b.data)`` as tensors; a non-tensor takes
    the other operand's dtype (float64 for two), and numpy's shape error
    becomes :class:`ShapeMismatch`."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype if isinstance(b, Tensor) else _F64))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    try:
        return a, b, Tensor(fn(a.data, b.data))
    except ValueError:
        raise ShapeMismatch(op, a.shape, b.shape) from None


# ---------------------------------------------------------------------------
# Elementwise ops


def add(a, b) -> Tensor:
    a, b, out = _binary(np.add, "add", a, b)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b, out = _binary(np.subtract, "sub", a, b)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b, out = _binary(np.multiply, "mul", a, b)

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


# ---------------------------------------------------------------------------
# Linear algebra and shaping


def matmul(a, b) -> Tensor:
    a, b, out = _binary(np.matmul, "matmul", a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:  # backward swaps the last two axes
        raise ShapeMismatch("matmul", a.shape, b.shape)

    def bwd(g):
        ga = gb = None
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
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Pick rows of ``table`` along axis 0; backward scatter-adds.

    ``indices`` may be any integer array shape; output shape is
    ``indices.shape + table.shape[1:]``. This is the embedding lookup.
    """
    idx = np.asarray(indices, dtype=np.int64)
    _check_rows("gather_rows", idx, table.shape[0])
    out = Tensor(table.data.take(idx, 0))

    def bwd(g):
        gt = np.zeros(table.shape, table.data.dtype)
        _scatter_add(gt, idx, g)
        return (gt,)

    return _record(out, (table,), bwd)


def _scatter_add(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``target[rows[i]] += values[i]`` for every i, in index order, into a
    C-contiguous ``target``: the flat form of the module docstring."""
    if not target.flags.c_contiguous:  # reshape(-1) would scatter into a copy
        raise ValueError("_scatter_add: target must be C-contiguous")
    w = math.prod(target.shape[1:])
    flat = (np.asarray(rows, dtype=np.int64).reshape(-1, 1) * w + np.arange(w)).reshape(-1)
    np.add.at(target.reshape(-1), flat, values.reshape(-1))


def _check_rows(op: str, rows: np.ndarray, n: int) -> None:
    """Raise IndexError unless every entry of ``rows`` is in [0, n): numpy
    wraps a negative row in the forward, the flat backward scatter would not.
    Read as unsigned, a negative row is at least 2^(bits - 1), so one max
    checks both ends."""
    if rows.size and rows.view(f"u{rows.itemsize}").max() >= n:
        raise IndexError(f"{op}: row index out of range for {n} rows")


def put_rows(base: np.ndarray, rows: np.ndarray, a: Tensor, where: np.ndarray) -> Tensor:
    """A copy of the constant ``base`` (B, n, ...), in ``a``'s dtype, with
    row ``rows[b, s]`` of batch element b replaced by ``a[b, s]`` wherever
    ``where[b, s]``; ``a`` is (B, S, ...), and the rows written into one
    batch element must be distinct, and every row in [0, n) (IndexError
    otherwise). ``a`` gets the gradient of the rows it wrote and zero
    elsewhere."""
    rows = np.asarray(rows)
    y = np.array(base, dtype=a.data.dtype)
    _check_rows("put_rows", rows, y.shape[1])
    b, s = np.nonzero(where)
    r = rows[b, s]
    y[b, r] = a.data[b, s]
    out = Tensor(y)

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[b, s] = g[b, r]
        return (ga,)

    return _record(out, (a,), bwd)


def _softmax(x: np.ndarray, axis: int = -1, keep: np.ndarray | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of ``x`` along ``axis``, into ``out`` (``x`` itself for an
    in-place softmax) or a new array; -inf entries become exact zeros.

    ``keep``, a bool or 0/1 array that broadcasts to ``x``, masks entries
    out: they become exact zeros, the max is taken over ``x`` plus a 0/-inf
    bias on ``keep``'s own shape, and the shifted logits are multiplied by
    ``keep`` before and after ``exp``, so no masked entry is exponentiated
    as -inf. The bias is a lookup of ``keep``'s bytes in a two-entry
    (-inf, 0) table, about three times as fast as ``np.where`` on two
    scalars. The multiplications read ``keep`` cast to ``x``'s dtype: a
    float multiply that broadcasts a mask over the heads runs faster than
    one that casts a bool mask on the fly. Masked entries must be finite.
    Raises :class:`NumericError` when a whole slice is -inf or masked
    (nothing to attend to).
    """
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        bias = np.array((-np.inf, 0.0), dtype=x.dtype).take(keep.view(np.uint8))
    xmax = np.max(x if keep is None else x + bias, axis=axis, keepdims=True)
    if (xmax == -np.inf).any():
        raise NumericError("softmax: a slice is entirely -inf or masked")
    y = np.subtract(x, xmax, out=out)
    if keep is not None:
        keep = keep.astype(x.dtype)
        y *= keep
    np.exp(y, out=y)
    if keep is not None:
        y *= keep
    y /= y.sum(axis=axis, keepdims=True)
    return y


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``; -inf entries become exact zeros with a zero
    gradient. Raises :class:`NumericError` when a whole slice is -inf.

    The backward ``y * (g - dot)`` sets every entry below ``tiny / eps``
    of the dtype in magnitude (2^-103 in float32, 2^-970 in float64) to
    exactly zero. A saturated row, as a low-temperature head gives, would
    otherwise hand back subnormals, and normals so small that one more
    multiplication makes them subnormal; every backward op that reads a
    subnormal runs slowly. An entry below the floor is less than half an ulp
    of any value of at least ``2 tiny / eps**2`` (2^-79 in float32), so it
    cannot change a sum that holds a gradient which trains anything; an
    entry at or above it stays normal after a multiplication by any factor
    of at least ``eps``.
    """
    y = _softmax(a.data, axis)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        gx = g - dot
        gx *= y
        fi = np.finfo(gx.dtype)
        gx[np.abs(gx) < fi.tiny / fi.eps] = 0
        return (gx,)

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


def attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, heads: int,
              keep: np.ndarray, rows: np.ndarray | None = None,
              offset: Tensor | None = None) -> Tensor:
    """Multi-head scaled dot-product self-attention over the n rows of ``x``
    (B, n, d), as one op: per head, ``A = softmax(Q Kᵀ / sqrt(d / heads))``,
    then ``A V`` with the heads merged and projected by ``wo`` (d, d).

    ``rows``, a (B, S) integer array in [0, n), picks the query rows: output
    row s of batch element b is the attention of row ``rows[b, s]``, so the
    output is (B, S, d). ``None`` means every row in order (S = n). K and
    V always come from all n rows. Q, K and V are one GEMM of ``x`` against
    ``[wq|wk|wv]``; with ``rows``, Q is a GEMM of the query rows alone.

    ``keep``, a bool (or 0/1) array, is true where a row may attend to a
    column: any shape that broadcasts to (B, 1, n, n), such as one (n, n)
    graph for the batch or one per element (ShapeMismatch otherwise); the
    query rows are picked from that broadcast. Without ``offset`` it masks
    the softmax, which runs in place on the logits: an entry where it is
    false gets an exact zero weight and a zero gradient, and is never
    exponentiated. With ``offset``, a scalar tensor, it masks nothing:
    ``offset`` is added to the logits wherever it is false. Raises
    :class:`NumericError` when a query row has nothing to attend to.

    The backward is closed-form and keeps Q, K, V, A and ``A V``, as
    FlashAttention does (Dao et al., NeurIPS 2022): ``d wo = (A V)ᵀ g``, and
    with ``dZ`` the gradient of ``A V``, ``dV = Aᵀ dZ``,
    ``dS = A ⊙ (dA - rowsum(dA ⊙ A))`` for ``dA = dZ Vᵀ``,
    ``d offset = Σ dS ⊙ (1 - keep)``, ``dQ = dS K / sqrt(d / heads)`` and
    ``dK = dSᵀ Q / sqrt(d / heads)``; the projection gradients are flat GEMMs.
    """
    d = x.shape[-1]
    if (x.data.ndim != 3 or heads < 1 or d % heads
            or any(w.shape != (d, d) for w in (wq, wk, wv, wo))):
        raise ShapeMismatch("attention", x.shape, wq.shape, wk.shape, wv.shape, wo.shape)
    B, n, _ = x.shape
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    dt = x.data.dtype
    x2 = x.data.reshape(B * n, d)
    if rows is None:  # one GEMM over every row for Q, K and V
        full_w = (wq, wk, wv)
        xq2, S = x2, n
    else:  # Q from the query rows only
        rows = np.asarray(rows)
        _check_rows("attention", rows, n)
        full_w = (wk, wv)
        S = rows.shape[1]
        flat = rows + np.arange(0, B * n, n)[:, None]  # the query rows of x2
        xq2 = x2.take(flat.reshape(-1), 0)
    w_cat = np.concatenate([w.data for w in full_w], axis=1)
    # (slot, B, heads, n, dh) views of one (B, n, slots * d) product
    proj = (x2 @ w_cat).reshape(B, n, len(full_w), heads, dh).transpose(2, 0, 3, 1, 4)
    q = proj[0] if rows is None else (xq2 @ wq.data).reshape(B, S, heads, dh).transpose(0, 2, 1, 3)
    k, v = proj[-2], proj[-1]

    logits = np.matmul(q, k.swapaxes(-1, -2))  # (B, heads, S, n)
    logits *= scale
    keep = np.asarray(keep)
    try:  # without rows, the softmax reads keep in its own, smaller shape
        keep_b = np.broadcast_to(keep, (B, 1, n, n))
    except ValueError:
        raise ShapeMismatch("attention", x.shape, keep.shape) from None
    if rows is not None:  # (B, 1, S, n): the query rows
        keep = keep_b[:, 0][np.arange(B)[:, None], rows][:, None]
    if offset is not None:
        nonedge = 1.0 - np.asarray(keep, dtype=dt)
        logits += offset.data * nonedge
    a = _softmax(logits, -1, keep if offset is None else None, out=logits)  # in place
    z2 = np.empty((B * S, d), dtype=dt)  # A V with the heads merged, kept for d wo
    np.matmul(a, v, out=z2.reshape(B, S, heads, dh).transpose(0, 2, 1, 3))
    out = Tensor((z2 @ wo.data).reshape(B, S, d))
    inputs = (x, wq, wk, wv, wo) + ((offset,) if offset is not None else ())

    def bwd(g):
        g2 = g.reshape(B * S, d)
        gwo = z2.T @ g2 if wo.requires_grad else None
        dz = (g2 @ wo.data.T).reshape(B, S, heads, dh).transpose(0, 2, 1, 3)
        ds = np.matmul(dz, v.swapaxes(-1, -2))  # dA
        ds -= (ds * a).sum(axis=-1, keepdims=True)
        ds *= a
        goff = None
        if offset is not None and offset.requires_grad:
            goff = _unbroadcast(ds * nonedge, offset.shape)
        ds *= scale
        d_proj = np.empty((B, n, len(full_w), heads, dh), dtype=dt)
        slots = d_proj.transpose(2, 0, 3, 1, 4)
        slots[-2] = np.matmul(ds.swapaxes(-1, -2), q)  # dK
        slots[-1] = np.matmul(a.swapaxes(-1, -2), dz)  # dV
        dq = np.matmul(ds, k)
        if rows is None:
            slots[0] = dq
        else:
            dq2 = dq.transpose(0, 2, 1, 3).reshape(B * S, d)
        d_proj = d_proj.reshape(B * n, -1)
        gx = None
        if x.requires_grad:
            gx = d_proj @ w_cat.T
            if rows is not None:
                _scatter_add(gx, flat, dq2 @ wq.data.T)
            gx = gx.reshape(B, n, d)
        gw = [None] * len(full_w)
        if any(w.requires_grad for w in full_w):
            gw_cat = x2.T @ d_proj
            gw = [gw_cat[:, i * d:(i + 1) * d] if w.requires_grad else None
                  for i, w in enumerate(full_w)]
        if rows is not None:
            gw.insert(0, xq2.T @ dq2 if wq.requires_grad else None)
        return (gx, *gw, gwo) + ((goff,) if offset is not None else ())

    return _record(out, inputs, bwd)


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
