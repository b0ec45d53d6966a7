"""Acceptance suite.

One test per criterion, named and ordered; each prints a single PASS line
with the measured numbers once its assertions hold. Tolerances are stated
inline. The heavyweight criteria (5, 6, 9) pin every seed and
hyperparameter so reruns are bit-reproducible.
"""

import itertools
import time

import numpy as np

from csprefine.csp import (
    AllDifferentAtMostOnce,
    AllDifferentExact,
    Cardinality,
    NotEqual,
    build_maxcut,
    build_nurse_rostering,
    build_sudoku,
    check_constraint,
    constraint_graph,
    total_violation,
    violation_degree,
)
from csprefine.data import (
    WeightedGraph,
    gen_coloring_dataset,
    gen_erdos_renyi,
    load_gset,
    save_gset,
)
from csprefine.model import (
    InstanceContext,
    ModelConfig,
    apply_update,
    forward,
    init_weights,
    select_subset,
)
from csprefine.penalty import (
    LossProgram,
    constraint_penalty,
    one_hot,
    pen_alldiff_atmost,
    pen_alldiff_exact,
    pen_cardinality,
    pen_not_equal,
)
from csprefine.solve import (
    Budget,
    cut_value,
    direct_sgd_counts,
    multi_start,
)
from csprefine.tensor import Tensor, grad_check
from csprefine.train import TrainConfig, random_assignment, train
from conftest import assemble_relaxed, sudoku_puzzle, tiny_config, toy_alldiff


def test_criterion_01_penalty_golden_values():
    """Worked-example values reproduce within 1e-9; valid cases give 0."""
    tol = 1e-9

    # cardinality, count 2 on the first value
    valid = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    invalid = Tensor(np.array([[0.7, 0.3], [0.2, 0.8], [0.0, 1.0]]))
    assert abs(pen_cardinality(valid, [0, 1, 2], 0, 2).item()) <= tol
    assert abs(pen_cardinality(invalid, [0, 1, 2], 0, 2).item() - 1.1) <= tol

    # alldifferent with m == n
    valid = Tensor(one_hot(np.array([0, 1, 2]), 3))
    invalid = Tensor(np.array([[0.9, 0.1, 0.0], [0.9, 0.1, 0.0], [0.0, 0.0, 1.0]]))
    assert abs(pen_alldiff_exact(valid, [0, 1, 2]).item()) <= tol
    assert abs(pen_alldiff_exact(invalid, [0, 1, 2]).item() - 1.6) <= tol

    # alldifferent with m > n
    valid = Tensor(one_hot(np.array([0, 1]), 3))
    invalid = Tensor(np.array([[0.6, 0.4, 0.0], [0.7, 0.3, 0.0]]))
    assert abs(pen_alldiff_atmost(valid, [0, 1]).item()) <= tol
    assert abs(pen_alldiff_atmost(invalid, [0, 1]).item() - 0.9) <= tol

    # not-equal
    valid = Tensor(one_hot(np.array([0, 1]), 3))
    invalid = Tensor(np.array([[0.7, 0.3, 0.0], [0.7, 0.2, 0.1]]))
    assert abs(pen_not_equal(valid, 0, 1).item()) <= tol
    assert abs(pen_not_equal(invalid, 0, 1).item() - 0.55) <= tol

    print("criterion 1 PASS: penalty golden values 1.1 / 1.6 / 0.9 / 0.55, "
          "valid cases 0, tol 1e-9")


def test_criterion_02_oracle_equivalence():
    """penalty == 0 iff discrete check iff violation_degree == 0, for every
    one-hot assignment with |scope| <= 4 and m <= 4. Zero counterexamples."""
    t0 = time.perf_counter()
    checked = 0

    def constraints_for(size, m):
        scope = tuple(range(size))
        if size == 2:
            yield NotEqual(0, 1)
        for value in range(m):
            for count in range(size + 1):
                yield Cardinality(value, count, scope)
        if size == m:
            yield AllDifferentExact(scope)
        if size < m:
            yield AllDifferentAtMostOnce(scope)

    for m in range(1, 5):
        for size in range(1, 5):
            for c in constraints_for(size, m):
                for values in itertools.product(range(m), repeat=size):
                    rel = Tensor(one_hot(np.array(values), m))
                    p = constraint_penalty(c, rel).item()
                    ok = check_constraint(c, values)
                    deg = violation_degree(c, values)
                    assert (abs(p) < 1e-12) == ok, (c, values, p)
                    assert (deg == 0) == ok, (c, values, deg)
                    checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 2 PASS: {checked} one-hot assignments enumerated, "
          f"0 counterexamples, {elapsed:.2f}s")


def test_criterion_03_gradient_suite():
    """Analytic vs central finite-difference gradients within 1e-4 relative
    error: 25 random points per penalty kind, plus the full loss-of-forward
    composition on a 2-layer toy model."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    points = 0

    penalty_cases = [
        ("cardinality", (4, 3), lambda x: pen_cardinality(x, [0, 1, 2], 1, 2)),
        ("alldiff_exact", (3, 3), lambda x: pen_alldiff_exact(x, [0, 1, 2])),
        ("alldiff_atmost", (2, 4), lambda x: pen_alldiff_atmost(x, [0, 1])),
        ("not_equal", (3, 3), lambda x: pen_not_equal(x, 0, 2, weight=1.5)),
    ]
    for name, shape, fn in penalty_cases:
        for _ in range(25):
            x = Tensor(rng.uniform(0.05, 0.95, size=shape))
            report = grad_check(fn, x, tol=1e-4)
            assert report.passed, (name, report.max_rel_err)
            points += 1

    # end-to-end: d/dw of program.loss(assemble(forward(w, ...)))
    inst = toy_alldiff(4)
    cfg = ModelConfig(layers=2, heads=2, d_model=8, select_p=0.5,
                      rpe_mode="masked", ape_mode="multi", tau=0.5,
                      sampler="softmax", dropout=0.0, ffn_mult=2)
    w = init_weights(cfg, inst.m, rng, dtype=np.float64)  # finite differences need float64
    ctx = InstanceContext.build(inst, cfg)
    program = LossProgram(inst)
    values = np.array([[0, 2, 2, 1]])
    selected = np.array([[True, True, False, True]])

    def loss_through(name):
        def f(x):
            w.params[name] = x
            yhat = forward(w, ctx, values, selected)
            rel = assemble_relaxed(values, selected, yhat)
            return program.loss(rel).sum()
        return f

    coords = 0
    for name in ("embed", "w_out", "l0.wq", "l1.w2", "select_embed", "alpha"):
        x = Tensor(w.params[name].data.copy())
        report = grad_check(loss_through(name), x, tol=1e-4)
        assert report.passed, (name, report.max_rel_err)
        coords += x.data.size
        w.params[name] = x
    assert coords >= 100

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 3 PASS: {points} penalty points + {coords} model "
          f"coordinates within 1e-4, {elapsed:.1f}s")


def test_criterion_04_formulation_counts():
    sudoku = build_sudoku([0] * 81)
    assert len(sudoku.constraints) == 27
    g = constraint_graph(sudoku)
    degrees = [len(g.neighbors(i)) for i in range(81)]
    assert degrees == [20] * 81

    nurse = build_nurse_rostering(10, 3, 3, 10)
    assert nurse.n == 90
    atmost = sum(isinstance(c, AllDifferentAtMostOnce) for c in nurse.constraints)
    pairs = sum(isinstance(c, NotEqual) for c in nurse.constraints)
    assert atmost == 10 and pairs == 81

    print("criterion 4 PASS: sudoku 27 constraints / degree 20, "
          "nurse 90 vars / 10 alldiff / 81 not-equal")


def test_criterion_05_training_smoke_toy():
    """2-layer d=64 H=2 model on the single-alldifferent toy: final-epoch
    loss < 0.05 and >= 95% of 200 random inits solved in 100 iterations.
    All seeds pinned (train seed 7, eval seeds 1000+i)."""
    t0 = time.perf_counter()
    inst = toy_alldiff(4)
    mcfg = ModelConfig(layers=2, heads=2, d_model=64, select_p=1.0,
                       rpe_mode="masked", ape_mode="multi", tau=0.1,
                       sampler="gumbel", dropout=0.0)
    tcfg = TrainConfig(batch_size=64, epochs=2000, lr=3e-4,
                       weight_decay=0.01, seed=7)
    result = train([inst] * 64, mcfg, tcfg)
    final_loss = result.history[-1]
    assert final_loss < 0.05, final_loss
    w = result.load_best()

    solved = 0
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        init = random_assignment(inst, rng)
        report = multi_start(w, inst, 1, Budget(max_iterations=100), seed=1000 + i, inits=init)
        solved += report.feasible
    elapsed = time.perf_counter() - t0
    assert solved >= 190, solved  # 95% of 200
    assert elapsed < 900.0
    print(f"criterion 5 PASS: final loss {final_loss:.5f} < 0.05, "
          f"{solved}/200 solved in <=100 iterations, {elapsed:.0f}s")


def test_criterion_06_desk_scale_coloring():
    """2000 training / 200 held-out 20-vertex instances posed at k = k';
    >= 50% held-out solved at 1000 iterations and mean violation over the
    first 10 iterations strictly below a uniform-random-update baseline."""
    t0 = time.perf_counter()
    instances, _ = gen_coloring_dataset(2200, 20, seed=11, fixed_k=5,
                                        pose_at_greedy=True)
    train_set, held = instances[:2000], instances[2000:]
    mcfg = ModelConfig(layers=2, heads=2, d_model=64, select_p=0.3,
                       rpe_mode="masked", ape_mode="none", tau=0.1,
                       sampler="gumbel", dropout=0.0)
    tcfg = TrainConfig(batch_size=64, epochs=60, lr=1e-3,
                       weight_decay=0.01, seed=3)
    result = train(train_set, mcfg, tcfg)
    w = result.load_best()
    train_s = time.perf_counter() - t0
    assert train_s < 1800.0

    solved = 0
    model_viol = []
    rand_viol = []
    for j, inst in enumerate(held):
        rng = np.random.default_rng(900 + j)
        init = random_assignment(inst, rng)
        report = multi_start(w, inst, 1, Budget(max_iterations=1000),
                             seed=900 + j, inits=init, trace=True)
        solved += report.feasible
        trace = report.violation_trace
        model_viol.append(np.mean(trace[1:11]) if len(trace) > 1 else 0.0)

        # uniform-random updates with the same selection probability
        rng = np.random.default_rng([424242, j])
        vals = init.copy()
        fixed_mask = np.array([v is not None for v in inst.fixed])
        per_iter = []
        for _ in range(10):
            sel = select_subset(fixed_mask, mcfg.select_p, rng)
            vals = np.where(sel, rng.integers(0, inst.m, size=inst.n), vals)
            per_iter.append(total_violation(inst, vals))
        rand_viol.append(np.mean(per_iter))

    model_mean = float(np.mean(model_viol))
    rand_mean = float(np.mean(rand_viol))
    elapsed = time.perf_counter() - t0
    assert solved >= 100, solved  # 50% of 200
    assert model_mean < rand_mean, (model_mean, rand_mean)
    print(f"criterion 6 PASS: {solved}/200 held-out solved, mean violation "
          f"{model_mean:.2f} < random baseline {rand_mean:.2f}, "
          f"train {train_s:.0f}s, total {elapsed:.0f}s")


def test_criterion_07_subset_identity_invariants():
    """Forced-empty selection is the exact identity on 1000 random steps;
    sudoku givens survive 10000 refinement iterations on 10 puzzles."""
    t0 = time.perf_counter()

    inst = toy_alldiff(4)
    cfg = tiny_config(sampler="softmax")
    w = init_weights(cfg, inst.m, np.random.default_rng(2))
    ctx = InstanceContext.build(inst, cfg)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        values = rng.integers(0, inst.m, size=(1, inst.n))
        empty = np.zeros((1, inst.n), dtype=bool)
        yhat = forward(w, ctx, values, empty)
        out = apply_update(values, empty, yhat)
        assert np.array_equal(out, values)

    puzzles = [sudoku_puzzle(40, 50 + i) for i in range(10)]
    scfg = tiny_config(sampler="softmax", tau=0.1)
    sw = init_weights(scfg, 9, np.random.default_rng(5))
    ctxs = [InstanceContext.build(p, scfg) for p in puzzles]
    fixed_mask = np.stack([p.compiled.fixed_mask for p in puzzles])
    batch_ctx = InstanceContext(ctxs[0].ape, ctxs[0].keep)
    values = np.stack([random_assignment(p, rng) for p in puzzles])
    givens = values.copy()
    for _ in range(10000):
        sel = np.stack([select_subset(fixed_mask[b], scfg.select_p, rng)
                        for b in range(10)])
        yhat = forward(sw, batch_ctx, values, sel)
        values = apply_update(values, sel, yhat)
    for b in range(10):
        assert np.array_equal(values[b][fixed_mask[b]], givens[b][fixed_mask[b]])

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 7 PASS: 1000 empty-selection identity steps and 10000 "
          f"given-preserving iterations on 10 puzzles, {elapsed:.0f}s")


def test_criterion_08_multi_start_dominance():
    """solve(P=10) >= solve(P=1) on every one of 100 instances; candidate 0
    replays the single-start stream by construction."""
    t0 = time.perf_counter()
    instances, _ = gen_coloring_dataset(100, 20, seed=21, fixed_k=5,
                                        pose_at_greedy=True)
    cfg = tiny_config(select_p=0.3, tau=0.1, sampler="gumbel")
    w = init_weights(cfg, 5, np.random.default_rng(9))
    s1 = s10 = 0
    for j, inst in enumerate(instances):
        r1 = multi_start(w, inst, 1, Budget(max_iterations=300), seed=j)
        r10 = multi_start(w, inst, 10, Budget(max_iterations=300), seed=j)
        assert r10.feasible >= r1.feasible, f"instance {j}"
        s1 += r1.feasible
        s10 += r10.feasible
    elapsed = time.perf_counter() - t0
    print(f"criterion 8 PASS: dominance on 100/100 instances "
          f"(P=1 solves {s1}, P=10 solves {s10}), {elapsed:.0f}s")


def test_criterion_09_direct_sgd_trend():
    """10-run averages on sudoku with 19/33/41/47 missing cells are
    non-increasing and within +-3 of (26.8, 25.8, 24.5, 21.8).
    Pinned: lr 0.003, 10000 steps, one distinct puzzle per run."""
    t0 = time.perf_counter()
    targets = {19: 26.8, 33: 25.8, 41: 24.5, 47: 21.8}
    means = []
    for missing in (19, 33, 41, 47):
        counts = []
        for r in range(10):
            inst = sudoku_puzzle(missing, 1000 * missing + r)
            c = direct_sgd_counts(inst, runs=1, steps=10000, lr=0.003,
                                  seed=500 + 1000 * missing + r)
            counts.append(int(c[0]))
        means.append(float(np.mean(counts)))

    for mean, (missing, target) in zip(means, targets.items()):
        assert abs(mean - target) <= 3.0, (missing, mean, target)
    for a, b in zip(means, means[1:]):
        assert b <= a + 1e-9, means
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0
    print(f"criterion 9 PASS: means {means} vs targets "
          f"{list(targets.values())} within +-3, non-increasing, "
          f"{elapsed:.0f}s")


def test_criterion_10_maxcut_correctness(tmp_path):
    """Solver best cut never exceeds the enumerated maximum on 20 graphs
    with <= 10 vertices (hard); matches it on >= 15 (soft target). The
    graph file format round-trips bit-exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    graphs = []
    for _ in range(20):
        n = int(rng.integers(4, 11))
        base = gen_erdos_renyi(n, 0.5, rng)
        edges = [(u, v, float(rng.integers(1, 6))) for (u, v, _) in base.edges]
        if not edges:
            edges = [(0, 1, 1.0)]
        graphs.append((n, edges))

    cfg = tiny_config(select_p=1.0, tau=0.1, sampler="gumbel")
    w = init_weights(cfg, 2, np.random.default_rng(3))
    hits = 0
    for j, (n, edges) in enumerate(graphs):
        inst = build_maxcut(n, edges)
        report = multi_start(w, inst, 1, Budget(max_iterations=5000), seed=j)
        true_max = max(
            cut_value(edges, np.array(bits))
            for bits in itertools.product([0, 1], repeat=n)
        )
        assert report.objective <= true_max + 1e-9  # hard bound
        hits += abs(report.objective - true_max) < 1e-9
    assert hits >= 15, hits

    graph = WeightedGraph(6, ((0, 1, 1.0), (0, 5, 3.0), (2, 4, 2.0)))
    path = tmp_path / "toy.gset"
    save_gset(graph, path)
    original = path.read_bytes()
    save_gset(load_gset(path), path)
    assert path.read_bytes() == original

    elapsed = time.perf_counter() - t0
    print(f"criterion 10 PASS: best <= enumerated max on 20/20 graphs, "
          f"optimum found on {hits}/20, file round-trip exact, {elapsed:.0f}s")


def test_criterion_11_full_scale_disclosure():
    """The published full-scale results need 9K-instance, 5000-epoch,
    d=128 training runs and are out of desk scope; the README must say so
    and point at criteria 1-10 as the substitute evidence."""
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "out of desk scope" in text
    print("criterion 11 PASS: full-scale results documented as out of desk "
          "scope; criteria 1-10 substitute")
