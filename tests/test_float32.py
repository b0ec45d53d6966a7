"""Float32 is the default dtype: a float32 model must compute in float32 all
the way through, with no op promoting to float64. Its agreement with the
same model in float64 is a property in ``test_properties.py``."""

import numpy as np
import pytest

from csprefine.model import ModelConfig, init_weights
from csprefine.solve import Budget, multi_start
from csprefine.tensor import Tape, Tensor, backward
from csprefine.train import AdamW, TrainConfig, _batch_loss, prepare
from conftest import workload_instances

F32 = np.dtype(np.float32)

# the two benchmark models, with the RPE mode left open
WORKLOADS = {
    "coloring20": dict(layers=2, heads=2, d_model=64, select_p=0.3, ape_mode="none",
                       tau=0.1, sampler="gumbel", dropout=0.0),
    "sudoku": dict(layers=3, heads=3, d_model=96, select_p=0.5, ape_mode="multi",
                   tau=0.1, sampler="gumbel", dropout=0.1),
}


@pytest.fixture
def gradients(monkeypatch):
    """Records the dtype of every gradient handed to ``accumulate_grad``,
    intermediate or leaf, before it could be cast."""
    seen = []
    accumulate = Tensor.accumulate_grad

    def recording(self, g, taken=()):
        seen.append(g.dtype)
        accumulate(self, g, taken)

    monkeypatch.setattr(Tensor, "accumulate_grad", recording)
    return seen


def _tape_dtypes(tape):
    return {t.data.dtype for out, inputs, _ in tape.ops for t in (out, *inputs)}


@pytest.mark.parametrize("rpe_mode", ["masked", "learned", "none"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_float32_step_and_solve_stay_float32(workload, rpe_mode, gradients):
    cfg = ModelConfig(rpe_mode=rpe_mode, **WORKLOADS[workload])
    insts = workload_instances(workload, 8)
    w = init_weights(cfg, insts[0].m, np.random.default_rng(0))
    assert w.dtype == np.float32
    opt = AdamW(w, TrainConfig(lr=1e-3, grad_clip=1.0))

    with Tape() as tape:
        loss = _batch_loss(w, prepare(insts, cfg), np.random.default_rng(1))
        backward(loss)
    assert loss.data.dtype == np.float32
    assert _tape_dtypes(tape) == {F32}
    assert set(gradients) == {F32}
    assert all(p.grad.dtype == np.float32 for _, p in w.named_parameters())
    opt.step()
    for name, p in w.named_parameters():
        assert (p.data.dtype, opt.m[name].dtype, opt.v[name].dtype) == (np.float32,) * 3, name

    # a pool-10 solve records its forwards on an active tape: the weights require grad
    with Tape() as tape:
        multi_start(w, insts[0], 10, Budget(max_iterations=2), seed=3)
    assert len(tape.ops) > 0
    assert _tape_dtypes(tape) == {F32}
