"""The benchmark reads ``solve.sample_ms.pool*`` from the spans of
``model.select_subset`` and ``model.gumbel_noise``: every solve round must
still make its draws through those two functions, or the figure reads low.
It reads ``train.step_ms`` and ``train.optimizer_ms`` per ``train.optimizer``
span: every training step must still draw its subsets through
``model.select_subset`` and update through ``AdamW.step``."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from csprefine import Budget, ModelConfig, TrainConfig, build_graph_coloring, init_weights

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_solve_round_draws_inside_the_sampling_spans():
    # a triangle has no 2-coloring, so the solve runs out its 3 rounds
    inst = build_graph_coloring(3, [(0, 1), (1, 2), (0, 2)], 2)
    cfg = ModelConfig(layers=1, heads=1, d_model=8, ape_mode="none", sampler="gumbel")
    weights = init_weights(cfg, inst.m, np.random.default_rng(0))
    tracer = _tracer()
    tracer.install()
    try:
        solve = importlib.import_module("csprefine.solve")
        report = solve.multi_start(weights, inst, 10, Budget(max_iterations=3))
    finally:
        tracer.remove()
    assert report.iterations_used == 3

    spans = tracer.spans
    (top,) = [i for i, s in enumerate(spans) if s.name == "solve.multi_start"]

    def inside(i):
        while i > top:
            i = spans[i].parent
        return i == top

    # in opening order: the first check, then per round its draws, its
    # forward and its check
    names = [s.name for i, s in enumerate(spans) if i > top and inside(i)]
    checks = [i for i, name in enumerate(names) if name == "solve.checker"]
    assert len(checks) == 4
    for start, end in zip(checks, checks[1:]):
        assert {"model.select_subset", "model.gumbel_noise"} <= set(names[start:end])


def test_every_training_step_draws_and_updates_inside_the_epoch_span():
    # 6 instances in batches of 4: two steps, the second a short one
    insts = [build_graph_coloring(4, [(0, 1), (1, 2), (2, 3)][: 1 + i % 3], 2) for i in range(6)]
    cfg = ModelConfig(layers=1, heads=1, d_model=8, ape_mode="none", dropout=0.0)
    tcfg = TrainConfig(batch_size=4, epochs=1, lr=1e-3)
    train = importlib.import_module("csprefine.train")
    weights = init_weights(cfg, 2, np.random.default_rng(0))
    data = train.prepare(insts, cfg)
    opt = train.AdamW(weights, tcfg)
    tracer = _tracer()
    tracer.install()
    try:
        loss = train.train_epoch(weights, opt, data, tcfg, np.random.default_rng(0))
    finally:
        tracer.remove()
    assert np.isfinite(loss)

    spans = tracer.spans
    (top,) = [i for i, s in enumerate(spans) if s.name == "train.epoch"]

    def inside(i):
        while i > top:
            i = spans[i].parent
        return i == top

    # in opening order: per step, its subsets, its forwards, then its update
    names = [s.name for i, s in enumerate(spans) if i > top and inside(i)]
    steps = [i for i, name in enumerate(names) if name == "train.optimizer"]
    assert len(steps) == 2
    for start, end in zip([-1] + steps, steps):
        assert "model.select_subset" in names[start + 1 : end]
        assert "model.forward.train" in names[start + 1 : end]
