"""Unit tests for the autodiff engine: forward values, backward rules via
finite differences, tape semantics, and error paths."""

import math

import numpy as np
import pytest

import csprefine.tensor as T
from csprefine.tensor import (
    NumericError,
    ShapeMismatch,
    Tape,
    Tensor,
    TensorError,
    backward,
    grad_check,
    no_grad,
)


def test_tensor_wraps_float64():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float64
    assert t.shape == (3,)


def test_add_broadcasting_values():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.arange(3.0))
    out = a + b
    assert np.allclose(out.data, 1.0 + np.arange(3.0))


def test_operator_sugar():
    a = Tensor(np.array([2.0, 4.0]))
    assert np.allclose((a - 1.0).data, [1.0, 3.0])
    assert np.allclose((1.0 - a).data, [-1.0, -3.0])
    assert np.allclose((-a).data, [-2.0, -4.0])
    assert np.allclose((a / 2.0).data, [1.0, 2.0])
    assert np.allclose((3.0 * a).data, [6.0, 12.0])


def test_shape_mismatch_raises():
    cases = [
        (T.add, (2, 3), (4, 5)),
        (T.sub, (2, 3), (4, 5)),
        (T.mul, (2, 3), (4,)),
        (T.matmul, (2, 3), (4, 5)),
        (T.matmul, (2, 3, 4), (2, 5, 3)),
        (T.matmul, (), (3, 2)),
        (T.matmul, (3, 2), ()),
        (T.matmul, (3, 4), (4,)),
        (T.matmul, (4,), (4, 3)),
    ]
    for op, a, b in cases:
        with pytest.raises(ShapeMismatch) as err:
            op(Tensor(np.ones(a)), Tensor(np.ones(b)))
        assert (err.value.op, err.value.shapes) == (op.__name__, (a, b))


def test_gelu_tanh_form_is_close_to_exact_gelu():
    x = np.linspace(-8.0, 8.0, 2001)
    exact = x * np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    assert np.max(np.abs(T.gelu(Tensor(x)).data - exact)) < 5e-4


def _gelu_reference(x):
    # the tanh-form GeLU and its derivative, written out plainly
    a, c = 0.044715, np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + a * x * x * x))
    dt = c * (1.0 + 3.0 * a * x * x)
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dt


@pytest.mark.parametrize("shape", [(2001,), (), (4, 20, 64), (2, 81, 96)])
def test_gelu_matches_the_plain_expression_bit_for_bit(shape, rng):
    x = np.linspace(-8.0, 8.0, 2001) if shape == (2001,) else rng.normal(0.0, 2.0, shape)
    g = rng.normal(size=x.shape)
    y_ref, dy_ref = _gelu_reference(x)
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        y = T.gelu(xt)
    assert np.array_equal(y.data, y_ref)
    assert np.array_equal(tape.ops[-1][2](g)[0], g * dy_ref)


def test_forward_without_tape_does_no_backward_work(monkeypatch, rng):
    # derivatives are built only in backward; numpy alone checks shapes
    def forbidden(*args, **kwargs):
        raise AssertionError("backward work in a forward with no tape")

    calls = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *args, **kwargs):
            calls.append(ufunc.__name__)

            def plain(a):
                return a.view(np.ndarray) if isinstance(a, Counted) else a

            args = [plain(a) for a in args]
            if "out" in kwargs:
                kwargs["out"] = tuple(plain(a) for a in kwargs["out"])
            return getattr(ufunc, method)(*args, **kwargs).view(Counted)

    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x.data = x.data.view(Counted)
    T.gelu(x)  # 0.5*x*(1 + tanh(c*(x + a*x*x*x))) is nine ufuncs, derivative none
    assert len(calls) == 9, calls
    x.data = x.data.view(np.ndarray)
    monkeypatch.setattr(np, "broadcast_shapes", forbidden)
    x + Tensor(np.ones(4))
    x * Tensor(np.ones((3, 1)))


def test_no_tape_records_nothing():
    a = Tensor(np.ones(3), requires_grad=True)
    out = a * 2.0
    assert out._node is None
    assert not out.requires_grad


def test_backward_requires_active_tape():
    a = Tensor(1.0, requires_grad=True)
    with pytest.raises(TensorError):
        backward(a)


def test_backward_requires_scalar():
    a = Tensor(np.ones(3), requires_grad=True)
    with Tape():
        out = a * 2.0
        with pytest.raises(TensorError):
            backward(out)


def test_backward_simple_chain():
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with Tape():
        loss = (a * a).sum()
        backward(loss)
    assert np.allclose(a.grad, 2.0 * a.data)


def test_backward_accumulates_over_reuse():
    a = Tensor(2.0, requires_grad=True)
    with Tape():
        loss = a * a + a
        backward(loss)
    assert np.isclose(float(a.grad), 2.0 * 2.0 + 1.0)


def test_broadcast_backward_sums_down():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    with Tape():
        loss = (a + b).sum()
        backward(loss)
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (3,)
    assert np.allclose(b.grad, 2.0)


def test_no_grad_blocks_recording():
    a = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        with no_grad():
            _ = a * 2.0
        assert not tape.ops


def test_nested_tapes_are_independent():
    a = Tensor(3.0, requires_grad=True)
    with Tape():
        outer = a * a
        with Tape():
            inner = a * 5.0
            backward(inner)
        inner_grad = a.grad.copy()
        a.zero_grad()
        backward(outer)
    assert np.isclose(float(inner_grad), 5.0)
    assert np.isclose(float(a.grad), 6.0)


@pytest.mark.parametrize("shapes", [((3, 4), (4, 3)), ((2, 3, 4), (2, 4, 3))])
@pytest.mark.parametrize("const", [0, 1])
@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.matmul])
def test_backward_builds_no_gradient_for_a_constant(op, const, shapes, rng):
    if op is not T.matmul:
        shapes = (shapes[0], shapes[0])
    x = [Tensor(rng.normal(size=s), requires_grad=i != const) for i, s in enumerate(shapes)]
    with Tape() as tape:
        out = op(*x)
    grads = tape.ops[-1][2](np.ones(out.shape))
    assert grads[const] is None
    assert grads[1 - const].shape == x[1 - const].shape


def test_first_gradients_share_no_memory(rng):
    # add hands one g to both inputs, x + x hands it twice to one tensor,
    # reshape and transpose hand back views of g, and c is the gain, the
    # shift and a bias of the fused ops at once
    a, b, x, v, y = (Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(5))
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=3), requires_grad=True)
    leaves = (a, b, x, v, y, w, c)
    proj = rng.normal(size=(2, 3))

    def run():
        with Tape() as tape:
            loss = T.square(a + b).sum() + (x + x).sum()
            loss = loss + (T.transpose(v.reshape(3, 2), (1, 0)) * Tensor(proj)).sum()
            loss = loss + T.square(T.linear(T.layer_norm(y, c, c), w, c)).sum()
            backward(loss)
        # every recorded intermediate released its gradient; leaves keep theirs
        assert all(out.grad is None for out, _, _ in tape.ops)
        assert all(t.grad is not None for t in leaves)

    run()
    grads = [t.grad for t in leaves]
    for i, g in enumerate(grads):
        assert g.flags.writeable
        assert not any(np.shares_memory(g, h) for h in grads[i + 1:])
    assert np.array_equal(a.grad, 2.0 * (a.data + b.data))
    assert np.array_equal(b.grad, a.grad)
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))
    assert np.array_equal(v.grad, proj.T.reshape(2, 3))
    first = [g.copy() for g in grads]
    run()  # a second use accumulates into each leaf's own array
    for t, g, g1 in zip(leaves, first, grads):
        assert t.grad is g1
        assert np.array_equal(t.grad, 2.0 * g)


# ---------------------------------------------------------------------------
# Per-op gradient checks against central finite differences


def _away_from_kinks(rng, shape, margin=0.05):
    x = rng.uniform(-1.0, 1.0, size=shape)
    x[np.abs(x) < margin] += 2 * margin
    return x


@pytest.mark.parametrize(
    "name,fn",
    [
        ("abs", lambda x: T.abs_(x).sum()),
        ("relu", lambda x: T.relu(x).sum()),
        ("gelu", lambda x: T.gelu(x).sum()),
        ("square", lambda x: T.square(x).sum()),
        ("exp", lambda x: T.exp(x).sum()),
        ("mean", lambda x: x.mean()),
        ("mean_axis", lambda x: T.square(x.mean(axis=0)).sum()),
        ("reshape", lambda x: T.square(x.reshape(6)).sum()),
        ("transpose", lambda x: T.square(x.transpose(1, 0)).sum()),
        ("softmax", lambda x: T.square(T.softmax(x, axis=-1)).sum()),
    ],
)
def test_op_gradients(name, fn, rng):
    x = Tensor(_away_from_kinks(rng, (2, 3)))
    report = grad_check(fn, x)
    assert report.passed, f"{name}: max rel err {report.max_rel_err}"


_ADJ = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])  # an attention graph
_ROWS = np.array([[2, 0], [1, 1]])  # query rows; batch element 1 asks for row 1 twice


@pytest.mark.parametrize(
    "name,shapes,fn",
    [
        ("layer_norm", [(2, 3, 4), (4,), (4,)],
         lambda x, g, b: T.square(T.layer_norm(x, g, b)).sum()),
        ("linear", [(2, 3, 4), (4, 5), (5,)],
         lambda x, w, b: T.square(T.linear(x, w, b)).sum()),
        ("linear_1d", [(4,), (4, 5), (5,)],
         lambda x, w, b: T.square(T.linear(x, w, b)).sum()),
        ("attention_masked", [(2, 3, 4), (4, 4), (4, 4), (4, 4), (4, 4)],
         lambda x, wq, wk, wv, wo: T.square(T.attention(x, wq, wk, wv, wo, 2, keep=_ADJ)).sum()),
        ("attention_learned_rows", [(2, 3, 4), (4, 4), (4, 4), (4, 4), (4, 4), ()],
         lambda x, wq, wk, wv, wo, c: T.square(T.attention(
             x, wq, wk, wv, wo, 2, rows=_ROWS, keep=_ADJ, offset=c)).sum()),
    ],
)
def test_fused_op_gradients_for_every_input(name, shapes, fn, rng):
    xs = [Tensor(rng.normal(size=s)) for s in shapes]
    for i in range(len(xs)):
        def f(t):
            return fn(*(t if j == i else x for j, x in enumerate(xs)))
        report = grad_check(f, xs[i])
        assert report.passed, f"{name} input {i}: max rel err {report.max_rel_err}"
        xs[i].requires_grad = False


def test_log_gradient(rng):
    x = Tensor(rng.uniform(0.5, 2.0, size=(4,)))
    assert grad_check(lambda t: T.log(t).sum(), x).passed


def test_pow_scalar_gradient(rng):
    x = Tensor(rng.uniform(0.5, 2.0, size=(4,)))
    assert grad_check(lambda t: T.pow_scalar(t, -0.5).sum(), x).passed


def test_matmul_gradient(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))
    assert grad_check(lambda t: T.square(T.matmul(t, b)).sum(), a).passed
    assert grad_check(lambda t: T.square(T.matmul(a, t)).sum(), b).passed


def test_batched_matmul_gradient(rng):
    a = Tensor(rng.normal(size=(2, 3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))
    assert grad_check(lambda t: T.square(T.matmul(t, b)).sum(), a).passed
    assert grad_check(lambda t: T.square(T.matmul(a, t)).sum(), b).passed


def test_gather_rows_values_and_gradient(rng):
    table = Tensor(rng.normal(size=(5, 3)))
    idx = np.array([[0, 2], [2, 4]])
    out = T.gather_rows(table, idx)
    assert out.shape == (2, 2, 3)
    assert np.allclose(out.data[1, 0], table.data[2])
    assert grad_check(lambda t: T.square(T.gather_rows(t, idx)).sum(), table).passed


def test_gather_rows_repeated_index_scatter_adds():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    with Tape():
        out = T.gather_rows(table, np.array([1, 1, 1]))
        backward(out.sum())
    assert np.allclose(table.grad[1], 3.0)
    assert np.allclose(table.grad[0], 0.0)


def test_gather_rows_out_of_range():
    table = Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        T.gather_rows(table, np.array([3]))


@pytest.mark.parametrize("row", [-1, 3])
def test_row_ops_reject_rows_out_of_range(row):
    # numpy would wrap a negative row in the forward; the flat scatter of the
    # backward would then add its gradient to the previous batch element
    x = Tensor(np.zeros((2, 3, 4)))
    rows = np.array([[0, 1], [2, row]])
    with pytest.raises(IndexError):
        T.attention(x, *[Tensor(np.eye(4)) for _ in range(4)], 1, np.ones((3, 3)), rows=rows)


def test_scatter_add_refuses_a_target_it_would_copy():
    target = np.zeros((4, 3))[:, :2]
    with pytest.raises(ValueError):
        T._scatter_add(target, np.array([0]), np.ones((1, 2)))


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(size=(4, 6)))
    y = T.softmax(x, axis=-1)
    assert np.allclose(y.data.sum(axis=-1), 1.0)


def test_softmax_neg_inf_gives_exact_zero():
    x = Tensor(np.array([0.0, -np.inf, 1.0]))
    y = T.softmax(x, axis=-1)
    assert y.data[1] == 0.0
    assert np.isclose(y.data.sum(), 1.0)


def test_softmax_gradient_is_zero_at_neg_inf():
    x = Tensor(np.array([[0.0, -np.inf, 1.0], [-np.inf, 2.0, -np.inf]]), requires_grad=True)
    w = Tensor(np.array([[1.0, 2.0, -3.0], [0.5, 4.0, 1.5]]))
    with Tape():
        backward((T.softmax(x, axis=-1) * w).sum())
    assert np.all(x.grad[np.isneginf(x.data)] == 0.0)
    assert np.all(np.isfinite(x.grad))


def test_softmax_all_neg_inf_raises():
    x = Tensor(np.array([[-np.inf, -np.inf], [0.0, 0.0]]))
    with pytest.raises(NumericError):
        T.softmax(x, axis=-1)


def _attention_on_logits(x, keep, rows=None):
    """``tensor.attention`` on ``x`` (2, 4, 4) with identity projections and
    one head of width 4, so that its logits are ``x xᵀ / 2``."""
    eye = [Tensor(np.eye(4)) for _ in range(4)]
    return T.attention(x, *eye, 1, rows=rows, keep=keep)


def test_masked_softmax_zeros_masked_entries_and_their_gradient(rng):
    # attention's masked softmax gives a masked key no weight: the query's
    # output does not move with that key's row, and its gradient there is 0
    keep = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 0], [1, 0, 0, 1]], dtype=np.float64)
    x = rng.normal(size=(2, 4, 4))
    y = _attention_on_logits(Tensor(x), keep).data
    for i, j in zip(*np.nonzero(keep == 0.0)):
        moved = x.copy()
        moved[:, j] += rng.normal(size=(2, 4))
        assert np.allclose(_attention_on_logits(Tensor(moved), keep).data[:, i], y[:, i],
                           rtol=1e-12, atol=1e-12)
        t = Tensor(x, requires_grad=True)
        pick = np.zeros((2, 4, 4))
        pick[:, i] = rng.normal(size=(2, 4))
        with Tape():
            backward((_attention_on_logits(t, keep) * Tensor(pick)).sum())
        assert np.all(t.grad[:, j] == 0.0) and np.all(np.isfinite(t.grad))


def test_masked_softmax_never_exponentiates_minus_inf(rng, monkeypatch):
    seen = []
    exp = np.exp

    def spy(a, *args, **kwargs):
        seen.append(np.isneginf(a).any())
        return exp(a, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    keep = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1]], dtype=np.float64)
    _attention_on_logits(Tensor(rng.normal(size=(2, 4, 4)) * 50.0), keep, rows=np.array([[0, 3]] * 2))
    assert seen == [False]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [None, np.array([[0, 3], [2, 1]])], ids=["all_rows", "rows"])
@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
@pytest.mark.parametrize("kind", [bool, np.float64], ids=["bool", "float"])
def test_masked_attention_never_exponentiates_minus_inf(kind, stacked, rows, dtype, rng,
                                                        monkeypatch):
    # a bool or a 0/1 keep, one mask or one per batch element, every row or
    # a subset as queries, in either dtype: exp only ever sees finite values
    seen = []
    exp = np.exp

    def spy(a, *args, **kwargs):
        seen.append(np.isneginf(a).any())
        return exp(a, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    keep = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1]], dtype=kind)
    if stacked:
        keep = np.stack([keep, keep.T])[:, None]
    eye = [Tensor(np.eye(4, dtype=dtype)) for _ in range(4)]
    x = Tensor((rng.normal(size=(2, 4, 4)) * 50.0).astype(dtype))
    y = T.attention(x, *eye, 1, rows=rows, keep=keep)
    assert seen == [False]
    assert y.data.dtype == dtype and np.all(np.isfinite(y.data))


def test_masked_softmax_raises_on_a_slice_masked_entirely(rng):
    keep = np.ones((2, 1, 4, 4))
    keep[1, 0, 2] = 0.0  # row 2 of batch element 1 attends to nothing
    x = Tensor(rng.normal(size=(2, 4, 4)))
    _attention_on_logits(x, keep, rows=np.array([[2], [1]]))  # that row asks no query
    with pytest.raises(NumericError):
        _attention_on_logits(x, keep, rows=np.array([[0], [2]]))


@pytest.mark.parametrize("op,args", [
    (T.attention, [(2, 3, 4), (4, 4), (4, 4), (4, 4), (4, 4)]),
    (T.layer_norm, [(3, 4), (5,), (4,)]),
    (T.linear, [(3, 4), (4, 2), (3,)]),
    (T.linear, [(3, 4), (5, 2), (2,)]),
    (T.linear, [(3, 4), (4,), (4,)]),
])
def test_fused_op_shape_mismatch_raises(op, args):
    tensors = [Tensor(np.ones(s)) for s in args]
    with pytest.raises(ShapeMismatch) as err:
        if op is T.attention:  # a mask of another size
            op(*tensors, 2, keep=np.ones((4, 4)))
        else:
            op(*tensors)
    assert err.value.op == op.__name__


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [None, np.array([[2, 0], [1, 3]])])
def test_dropout_matches_the_where_form(dtype, rows):
    # dropout is mul by a constant inverted-dropout mask, drawn at the full
    # shape and read at rows as the model's last layer reads it: forward and
    # backward are the np.where(draw >= rate, scale, 0) form, in x's dtype
    rate = 0.3
    x = Tensor(np.random.default_rng(0).normal(size=(2, 4 if rows is None else 2, 3)).astype(dtype),
               requires_grad=True)
    g = np.random.default_rng(1).normal(size=x.shape).astype(dtype)
    u = np.random.default_rng(2).random((2, 4, 3))
    scale = 1 / x.data.dtype.type(1.0 - rate)
    keep = np.where(u >= rate, scale, 0)
    mask = (u >= rate) * scale
    if rows is not None:
        keep, mask = (a[np.arange(2)[:, None], rows] for a in (keep, mask))
    with Tape():
        y = x * Tensor(mask)
        backward((y * Tensor(g)).sum())
    assert y.data.dtype == dtype and x.grad.dtype == dtype
    assert np.array_equal(y.data, x.data * keep)
    assert np.array_equal(x.grad, g * keep)


def test_abs_subgradient_zero_at_kink():
    x = Tensor(np.array([0.0, -2.0, 2.0]), requires_grad=True)
    with Tape():
        backward(T.abs_(x).sum())
    assert np.allclose(x.grad, [0.0, -1.0, 1.0])


def test_relu_subgradient_zero_at_kink():
    x = Tensor(np.array([0.0, -1.0, 1.0]), requires_grad=True)
    with Tape():
        backward(T.relu(x).sum())
    assert np.allclose(x.grad, [0.0, 0.0, 1.0])


def test_grad_check_reports_failure():
    # a sloppy step size shows up as failure entries, not an exception
    x = Tensor(np.array([1.0, 2.0]))
    report = grad_check(lambda t: T.exp(t).sum(), x, eps=1e-2, tol=1e-12)
    assert not report.passed
    assert report.failures
