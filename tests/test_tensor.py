"""Unit tests for the autodiff engine: forward values, backward rules via
finite differences, tape semantics, and error paths."""

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
    ]
    for op, a, b in cases:
        with pytest.raises(ShapeMismatch) as err:
            op(Tensor(np.ones(a)), Tensor(np.ones(b)))
        assert (err.value.op, err.value.shapes) == (op.__name__, (a, b))


def test_forward_without_tape_does_no_backward_work(monkeypatch, rng):
    # derivatives are built only in backward; numpy alone checks shapes
    def forbidden(*args, **kwargs):
        raise AssertionError("backward work in a forward with no tape")

    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    monkeypatch.setattr(np, "exp", forbidden)
    monkeypatch.setattr(np, "broadcast_shapes", forbidden)
    T.gelu(x)
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


def test_dropout_identity_when_not_training(rng):
    x = Tensor(rng.normal(size=(10,)))
    assert T.dropout(x, 0.5, rng, training=False) is x
    assert T.dropout(x, 0.0, rng, training=True) is x


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(1)
    x = Tensor(np.ones(100_000))
    y = T.dropout(x, 0.3, rng, training=True)
    kept = y.data[y.data > 0]
    assert np.allclose(kept, 1.0 / 0.7)
    assert abs(y.data.mean() - 1.0) < 0.02


def test_dropout_deterministic_given_seed():
    x = Tensor(np.ones(50))
    a = T.dropout(x, 0.5, np.random.default_rng(3), training=True)
    b = T.dropout(x, 0.5, np.random.default_rng(3), training=True)
    assert np.array_equal(a.data, b.data)


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
