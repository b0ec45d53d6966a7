"""Property tests: the compiled, batched forms of each semantic against the
reference per-constraint forms, on random small instances of every
constraint kind (duplicates and repeated scope entries included), random
fixed variables, random lambdas and both transforms."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from csprefine.csp import (
    AllDifferentAtMostOnce,
    AllDifferentExact,
    Cardinality,
    CspInstance,
    NotEqual,
    constraint_graph,
    violation_degree,
)
from csprefine.model import InstanceContext, init_weights
from csprefine.penalty import LossConfig, LossProgram, constraint_penalty
from csprefine.solve import ViolationChecker, cut_value, instance_cut_value
from csprefine.tensor import Tape, Tensor, backward
from csprefine.train import _batch_loss, prepare
from conftest import replayed_mean_loss, tiny_config


@st.composite
def constraints(draw, n: int, m: int):
    kinds = ["ne", "atmost", "card"] + (["exact"] if n >= m else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "ne":
        i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        return NotEqual(i, k, draw(st.floats(0.25, 3.0)))

    def scope(size):
        # repeated variables are legal and count once per occurrence
        return tuple(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))

    if kind == "exact":
        return AllDifferentExact(scope(m))
    if kind == "atmost":
        return AllDifferentAtMostOnce(scope(draw(st.integers(1, m - 1))))
    s = scope(draw(st.integers(1, n)))
    return Cardinality(draw(st.integers(0, m - 1)), draw(st.integers(0, len(s))), s)


@st.composite
def instances(draw, n: int | None = None, m: int | None = None):
    n = draw(st.integers(2, 6)) if n is None else n
    m = draw(st.integers(2, 4)) if m is None else m
    cons = draw(st.lists(constraints(n, m), max_size=6))
    if cons:
        cons += draw(st.lists(st.sampled_from(cons), max_size=2))  # duplicates
    return CspInstance(n, m, tuple((i,) for i in range(n)), tuple(cons), (None,) * n)


@st.composite
def with_fixed(draw, inst: CspInstance):
    """``inst`` with random fixed markers."""
    fixed = draw(st.lists(st.none() | st.integers(0, inst.m - 1),
                          min_size=inst.n, max_size=inst.n))
    return CspInstance(inst.n, inst.m, inst.index_tuples, inst.constraints, tuple(fixed))


@st.composite
def loss_configs(draw, count: int):
    lambdas = draw(st.none() | st.lists(st.floats(0.1, 3.0), min_size=count, max_size=count))
    transform = draw(st.sampled_from(["quadratic", "identity"]))
    return LossConfig(None if lambdas is None else tuple(lambdas), transform)


def _relaxed(seed: int, shape) -> np.ndarray:
    """Random probability rows of shape ``shape`` = (..., n, m)."""
    return np.random.default_rng(seed).dirichlet(np.ones(shape[-1]), size=shape[:-1])


def _reference_loss(inst, cfg, rel: Tensor) -> Tensor:
    total = Tensor(0.0)
    for idx, c in enumerate(inst.constraints):
        p = constraint_penalty(c, rel)
        total = total + cfg.weight(idx) * (p * p if cfg.transform == "quadratic" else p)
    return total


@given(st.data(), instances(), st.integers(0, 2**32 - 1))
def test_compiled_loss_matches_reference(data, inst, seed):
    cfg = data.draw(loss_configs(len(inst.constraints)))
    program = LossProgram(inst, cfg)
    rel = _relaxed(seed, (2, inst.n, inst.m))
    batched = program.loss(Tensor(rel)).data
    for r, got in zip(rel, batched):
        x_compiled = Tensor(r, requires_grad=True)
        x_reference = Tensor(r, requires_grad=True)
        with Tape():
            compiled = program.loss(x_compiled)
            reference = _reference_loss(inst, cfg, x_reference)
            backward(compiled + reference)
        assert np.isclose(compiled.item(), reference.item(), rtol=1e-12, atol=1e-12)
        assert np.isclose(got, reference.item(), rtol=1e-12, atol=1e-12)
        if inst.constraints:
            assert np.allclose(x_compiled.grad, x_reference.grad, rtol=1e-10, atol=1e-10)


@given(st.data(), st.integers(2, 6), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_stacked_loss_matches_each_instance(data, n, m, seed):
    insts = data.draw(st.lists(instances(n, m), min_size=1, max_size=4))
    transform = data.draw(st.sampled_from(["quadratic", "identity"]))
    programs = [
        LossProgram(inst, LossConfig(data.draw(loss_configs(len(inst.constraints))).lambdas, transform))
        for inst in insts
    ]
    rel = _relaxed(seed, (len(insts), n, m))
    got = LossProgram.stack(programs).loss(Tensor(rel)).data
    want = [p.loss(Tensor(r)).item() for p, r in zip(programs, rel)]
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@given(instances(), st.integers(0, 2**32 - 1))
def test_checker_matches_violation_degrees(inst, seed):
    values = np.random.default_rng(seed).integers(0, inst.m, size=(5, inst.n))
    want = [sum(violation_degree(c, v) for c in inst.constraints) for v in values]
    checker = ViolationChecker(inst)
    assert np.array_equal(checker.total(values), want)
    assert np.array_equal(checker.total(values) == 0, np.array(want) == 0)


@given(instances(), st.integers(0, 2**32 - 1))
def test_batched_cut_matches_cut_value(inst, seed):
    values = np.random.default_rng(seed).integers(0, inst.m, size=(5, inst.n))
    edges = [(c.i, c.k, c.weight) for c in inst.constraints if isinstance(c, NotEqual)]
    want = [cut_value(edges, v) for v in values]
    assert np.allclose(instance_cut_value(inst, values), want, rtol=1e-12, atol=0.0)
    assert np.isclose(instance_cut_value(inst, values[0]), want[0], rtol=1e-12, atol=0.0)


@given(instances())
def test_adjacency_matches_constraint_graph(inst):
    want = np.eye(inst.n, dtype=bool)
    for i, j in constraint_graph(inst).edges:
        want[i, j] = want[j, i] = True
    assert np.array_equal(inst.compiled.adjacency(), want)


@given(instances(), st.sampled_from(["masked", "learned", "none"]))
def test_context_nonedge_is_the_adjacency_complement(inst, rpe_mode):
    ctx = InstanceContext.build(inst, tiny_config(rpe_mode=rpe_mode))
    adj = inst.compiled.adjacency()
    assert ctx.nonedge.dtype == np.float64
    assert np.array_equal(ctx.nonedge, np.where(adj, 0.0, 1.0))
    if rpe_mode == "masked":
        assert np.array_equal(ctx.masked_bias, np.where(adj, 0.0, -np.inf))
    else:
        assert ctx.masked_bias is None


@given(st.data(), instances())
def test_compiled_fixed_arrays_match_markers(data, inst):
    inst = data.draw(with_fixed(inst))
    cc = inst.compiled
    assert cc.fixed_mask.tolist() == [v is not None for v in inst.fixed]
    assert cc.fixed_values.tolist() == [0 if v is None else v for v in inst.fixed]
    ctx = InstanceContext.build(inst, tiny_config())
    assert np.array_equal(ctx.fixed_mask, cc.fixed_mask)
    assert np.array_equal(ctx.fixed_values, cc.fixed_values)


@given(st.data(), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_mixed_size_batch_loss_is_the_mean_of_own_losses(data, m, seed):
    # one chunk of instances of random sizes and givens, in random order
    insts = data.draw(st.lists(instances(m=m).flatmap(with_fixed), min_size=1, max_size=5))
    cfg = tiny_config(
        select_p=data.draw(st.sampled_from([0.3, 0.7, 1.0])),
        rpe_mode=data.draw(st.sampled_from(["masked", "learned", "none"])),
        ape_mode=data.draw(st.sampled_from(["none", "1d", "multi"])),
    )
    w = init_weights(cfg, m, np.random.default_rng(seed))
    bundles = prepare(insts, cfg)
    got = _batch_loss(w, bundles, np.random.default_rng(seed), training=False).item()
    assert np.isclose(got, replayed_mean_loss(w, bundles, seed), rtol=1e-12, atol=1e-12)
