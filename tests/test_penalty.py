"""Penalty tests: spot values, equivalence of the compiled loss with the
per-constraint forms, weight folding, and batching."""

import numpy as np
import pytest

from csprefine.csp import (
    AllDifferentAtMostOnce,
    AllDifferentExact,
    Cardinality,
    CspInstance,
    NotEqual,
    build_graph_coloring,
    build_maxcut,
)
from csprefine.penalty import (
    LossConfig,
    LossProgram,
    constraint_penalty,
    default_loss_config,
    one_hot,
    pen_alldiff_atmost,
    pen_alldiff_exact,
    pen_cardinality,
    pen_not_equal,
)
from csprefine.tensor import ShapeMismatch, Tensor
from conftest import toy_alldiff


def test_one_hot_shape_and_values():
    out = one_hot(np.array([[0, 2], [1, 1]]), 3)
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out[0, 1], [0.0, 0.0, 1.0])
    assert np.array_equal(out.sum(axis=-1), np.ones((2, 2)))


@pytest.mark.parametrize("shape", [(), (4,), (3, 5), (2, 3, 4)])
def test_one_hot_equals_the_put_along_axis_form(shape):
    m = 5
    values = np.random.default_rng(len(shape)).integers(0, m, size=shape)
    ref = np.zeros(shape + (m,))
    np.put_along_axis(ref, values[..., None], 1.0, axis=-1)
    out = one_hot(values, m)
    assert out.dtype == ref.dtype and out.shape == ref.shape and np.array_equal(out, ref)
    with pytest.raises(IndexError):
        one_hot(np.full(shape, m), m)


def test_cardinality_penalty_value():
    rel = Tensor(np.array([[0.7, 0.3], [0.2, 0.8], [0.0, 1.0]]))
    p = pen_cardinality(rel, [0, 1, 2], value=0, count=2)
    assert np.isclose(p.item(), 1.1)


def test_alldiff_exact_rejects_wrong_scope():
    rel = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        pen_alldiff_exact(rel, [0, 1])


def test_alldiff_atmost_rejects_full_scope():
    rel = Tensor(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pen_alldiff_atmost(rel, [0, 1, 2])


def test_not_equal_rejects_same_variable():
    rel = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        pen_not_equal(rel, 1, 1)


def test_penalties_zero_on_valid_one_hot():
    rel = Tensor(one_hot(np.array([0, 2, 1]), 3))
    assert pen_alldiff_exact(rel, [0, 1, 2]).item() == 0.0
    assert pen_alldiff_atmost(rel, [0, 1]).item() == 0.0
    assert pen_not_equal(rel, 0, 1).item() == 0.0
    assert pen_cardinality(rel, [0, 1, 2], value=0, count=1).item() == 0.0


def test_constraint_penalty_dispatch():
    rel = Tensor(one_hot(np.array([0, 0, 1]), 3))
    assert constraint_penalty(NotEqual(0, 1), rel).item() == 1.0
    assert constraint_penalty(Cardinality(0, 1, (0, 1)), rel).item() == 1.0
    assert constraint_penalty(AllDifferentExact((0, 1, 2)), rel).item() == 2.0
    assert constraint_penalty(AllDifferentAtMostOnce((0, 1)), rel).item() == 3.0


def test_default_loss_config_transform():
    assert default_loss_config(toy_alldiff()).transform == "quadratic"
    maxcut = build_maxcut(2, [(0, 1, 1.0)])
    assert default_loss_config(maxcut).transform == "identity"


def _mixed_instance():
    return CspInstance(
        n=5,
        m=4,
        index_tuples=tuple((i,) for i in range(5)),
        constraints=(
            AllDifferentExact((0, 1, 2, 3)),
            AllDifferentAtMostOnce((3, 4)),
            Cardinality(2, 1, (0, 2, 4)),
            NotEqual(0, 4),
            NotEqual(1, 3),
        ),
        fixed=(None,) * 5,
    )


def _naive_loss(inst, rel, cfg):
    total = 0.0
    for c in inst.constraints:
        p = constraint_penalty(c, rel).item()
        total += p * p if cfg.transform == "quadratic" else p
    return total


@pytest.mark.parametrize("transform", ["quadratic", "identity"])
def test_compiled_loss_matches_naive_sum(transform, rng):
    inst = _mixed_instance()
    cfg = LossConfig(transform=transform)
    program = LossProgram(inst, cfg)
    for _ in range(25):
        rel = Tensor(rng.uniform(0.0, 1.0, size=(inst.n, inst.m)))
        got = program.loss(rel).item()
        want = _naive_loss(inst, rel, cfg)
        assert np.isclose(got, want, atol=1e-12), (got, want)


def test_loss_rejects_rows_of_another_shape():
    # rows of a 6-value domain scored by a 3-value program
    program = LossProgram(build_graph_coloring(10, [(0, 1)], 3))
    with pytest.raises(ShapeMismatch):
        program.loss(Tensor(np.full((1, 10, 6), 1.0 / 6)))
    with pytest.raises(ShapeMismatch):
        program.loss(Tensor(np.full((1, 9, 3), 1.0 / 3)))
    assert program.loss(Tensor(np.full((1, 10, 3), 1.0 / 3))).shape == (1,)


def test_not_equal_weight_folding(rng):
    # weighted pairs, including a duplicate edge, in both transforms
    inst = CspInstance(
        n=3, m=2,
        index_tuples=((0,), (1,), (2,)),
        constraints=(NotEqual(0, 1, 2.0), NotEqual(0, 1, 2.0), NotEqual(1, 2, 0.5)),
        fixed=(None,) * 3,
        mode="maximization",
    )
    for transform in ("quadratic", "identity"):
        cfg = LossConfig(transform=transform)
        program = LossProgram(inst, cfg)
        rel = Tensor(rng.uniform(0.0, 1.0, size=(3, 2)))
        assert np.isclose(program.loss(rel).item(), _naive_loss(inst, rel, cfg))


def test_batched_loss_matches_per_sample(rng):
    inst = _mixed_instance()
    program = LossProgram(inst)
    batch = Tensor(rng.uniform(0.0, 1.0, size=(4, inst.n, inst.m)))
    out = program.loss(batch)
    assert out.shape == (4,)
    for b in range(4):
        single = program.loss(Tensor(batch.data[b])).item()
        assert np.isclose(out.data[b], single)


def test_stack_rejects_programs_that_differ():
    coloring = LossProgram(build_graph_coloring(4, [(0, 1)], 2))
    others = [
        LossProgram(build_maxcut(4, [(0, 1, -2.0)])),  # another transform
        LossProgram(build_graph_coloring(5, [(0, 1)], 2)),  # another n
        LossProgram(build_graph_coloring(4, [(0, 1)], 3)),  # another m
    ]
    for other in others:
        with pytest.raises(ValueError, match="cannot stack"):
            LossProgram.stack([coloring, other])
    LossProgram.stack([coloring, LossProgram(build_graph_coloring(4, [(2, 3)], 2))])


def test_loss_zero_iff_feasible_one_hot():
    inst = toy_alldiff(4)
    program = LossProgram(inst)
    feasible = program.loss(Tensor(one_hot(np.array([1, 3, 0, 2]), 4))).item()
    infeasible = program.loss(Tensor(one_hot(np.array([1, 1, 0, 2]), 4))).item()
    assert feasible == 0.0
    assert infeasible > 0.0


def test_unknown_transform_rejected(rng):
    inst = toy_alldiff(3)
    program = LossProgram(inst, LossConfig(transform="cubic"))
    rel = Tensor(rng.uniform(0.0, 1.0, size=(3, 3)))
    with pytest.raises(ValueError):
        program.loss(rel)
