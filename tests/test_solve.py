"""Solver tests: budgets, the vectorized violation checker, refinement
loops, multi-start semantics, and the non-neural baselines."""

import numpy as np
import pytest

from csprefine.csp import (
    CspError,
    build_graph_coloring,
    build_maxcut,
    build_sudoku,
    total_violation,
)
from csprefine.data import gen_maxcut_dataset
from csprefine.model import DomainMismatch, ModelConfig, init_weights
from csprefine.solve import (
    Budget,
    ViolationChecker,
    cut_value,
    direct_sgd_counts,
    greedy_coloring,
    instance_cut_value,
    multi_start,
)
from conftest import full_sudoku_grid, replay_solve, sudoku_puzzle, tiny_config, toy_alldiff


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget()
    with pytest.raises(ValueError):
        Budget(max_iterations=0)
    with pytest.raises(ValueError):
        Budget(time_limit_ms=-1.0)
    Budget(max_iterations=5)
    Budget(time_limit_ms=10.0)


def test_violation_checker_matches_oracle(rng):
    insts = [
        sudoku_puzzle(40, 2),
        build_graph_coloring(6, [(0, 1), (1, 2), (3, 4)], 3),
        toy_alldiff(5),
    ]
    for inst in insts:
        checker = ViolationChecker(inst)
        values = rng.integers(0, inst.m, size=(20, inst.n))
        got = checker.total(values)
        want = np.array([total_violation(inst, v) for v in values])
        assert np.array_equal(got, want)
        assert np.array_equal(checker.total(values) == 0, want == 0)


def test_violation_checker_cardinality(rng):
    from csprefine.csp import Cardinality, CspInstance

    inst = CspInstance(
        n=4, m=3,
        index_tuples=tuple((i,) for i in range(4)),
        constraints=(Cardinality(1, 2, (0, 1, 2, 3)), Cardinality(0, 0, (0, 1))),
        fixed=(None,) * 4,
    )
    checker = ViolationChecker(inst)
    values = rng.integers(0, 3, size=(50, 4))
    want = np.array([total_violation(inst, v) for v in values])
    assert np.array_equal(checker.total(values), want)


def test_cut_value():
    edges = [(0, 1, 2.0), (1, 2, 1.0), (0, 2, 0.5)]
    assert cut_value(edges, [0, 1, 0]) == 3.0
    assert cut_value(edges, [0, 0, 0]) == 0.0
    inst = build_maxcut(3, edges)
    # a whole pool in one call
    pool = np.array([[0, 1, 0], [0, 0, 0], [1, 1, 0]])
    assert np.array_equal(instance_cut_value(inst, pool), [3.0, 0.0, 1.5])


def _toy_model(seed=1, **cfg_kw):
    cfg = tiny_config(**cfg_kw)
    return cfg, init_weights(cfg, 4, np.random.default_rng(seed))


def test_iterate_feasible_init_returns_immediately():
    inst = toy_alldiff(4)
    cfg, w = _toy_model()
    report = multi_start(w, inst, 1, Budget(max_iterations=50), inits=np.array([0, 1, 2, 3]))
    assert report.feasible
    assert report.iterations_used == 0
    assert np.array_equal(report.final_assignment, [0, 1, 2, 3])


def test_iterate_respects_iteration_budget():
    inst = build_graph_coloring(2, [(0, 1)], 1)  # unsatisfiable with 1 color
    cfg = tiny_config()
    w = init_weights(cfg, 1, np.random.default_rng(0))
    report = multi_start(w, inst, 1, Budget(max_iterations=7), inits=np.array([0, 0]))
    assert not report.feasible
    assert report.iterations_used == 7
    assert report.winner is None


def test_iterate_trace_and_best_assignment():
    inst = toy_alldiff(4)
    cfg, w = _toy_model(sampler="gumbel")
    report = multi_start(
        w, inst, 1, Budget(max_iterations=200), seed=3, inits=np.array([0, 0, 0, 0]),
        trace=True,
    )
    assert report.violation_trace is not None
    assert report.violation_trace[0] == total_violation(inst, [0, 0, 0, 0])
    assert len(report.violation_trace) == report.iterations_used + 1
    best = report.best_assignment
    assert total_violation(inst, best) == min(report.violation_trace)


def test_iterate_keeps_fixed_variables():
    inst = sudoku_puzzle(30, 4)
    cfg = tiny_config(select_p=0.9, sampler="gumbel")
    w = init_weights(cfg, 9, np.random.default_rng(0))
    init = np.array([v if v is not None else 0 for v in inst.fixed])
    report = multi_start(w, inst, 1, Budget(max_iterations=20), seed=1, inits=init)
    for i, v in enumerate(inst.fixed):
        if v is not None:
            assert report.final_assignment[i] == v


def test_inits_must_keep_the_givens():
    # the valid grid relabelled to 0-based values is feasible, but it moves
    # the givens of a puzzle posed from the 1-based grid
    inst = sudoku_puzzle(30, 1)
    w = init_weights(tiny_config(), 9, np.random.default_rng(0))
    relabelled = full_sudoku_grid() % 9
    with pytest.raises(CspError, match="differs from its given"):
        multi_start(w, inst, 1, Budget(max_iterations=5), inits=relabelled)
    with pytest.raises(CspError, match="differs from its given"):
        multi_start(w, inst, 2, Budget(max_iterations=5), inits=np.stack([relabelled] * 2))


def test_inits_must_lie_in_the_domain():
    inst = sudoku_puzzle(30, 1)
    w = init_weights(tiny_config(), 9, np.random.default_rng(0))
    with pytest.raises(CspError, match="outside domain"):
        multi_start(w, inst, 1, Budget(max_iterations=5), inits=np.full(81, 12))
    with pytest.raises(CspError, match="81 values"):
        multi_start(w, inst, 1, Budget(max_iterations=5), inits=np.zeros(80, dtype=int))


def test_multi_start_rejects_other_domain_size():
    inst = build_graph_coloring(3, [(0, 1), (1, 2)], 4)
    w = init_weights(tiny_config(), 3, np.random.default_rng(0))
    with pytest.raises(DomainMismatch):
        multi_start(w, inst, 2, Budget(max_iterations=5))


def test_fully_fixed_instance_short_circuits():
    inst = build_sudoku(full_sudoku_grid().tolist())
    cfg = tiny_config()
    w = init_weights(cfg, 9, np.random.default_rng(0))
    report = multi_start(w, inst, 3, Budget(max_iterations=10), seed=0)
    assert report.feasible
    assert report.iterations_used == 0


def test_multi_start_pool_size_validation():
    inst = toy_alldiff(4)
    cfg, w = _toy_model()
    with pytest.raises(ValueError):
        multi_start(w, inst, 0, Budget(max_iterations=1))
    with pytest.raises(ValueError):
        multi_start(w, inst, 2, Budget(max_iterations=1), inits=np.zeros((3, 4), dtype=int))


def test_multi_start_candidate_zero_replays_single_start():
    # on an unsatisfiable instance both runs exhaust the budget and report
    # candidate 0's final assignment, which must match exactly
    inst = build_graph_coloring(3, [(0, 1), (1, 2), (0, 2)], 2)  # odd clique
    cfg = tiny_config(sampler="gumbel")
    w = init_weights(cfg, 2, np.random.default_rng(4))
    r1 = multi_start(w, inst, 1, Budget(max_iterations=25), seed=12)
    r5 = multi_start(w, inst, 5, Budget(max_iterations=25), seed=12)
    assert not r1.feasible and not r5.feasible
    assert np.array_equal(r1.final_assignment, r5.final_assignment)


def test_multi_start_winner_is_lowest_feasible_index():
    inst = toy_alldiff(4)
    cfg, w = _toy_model()
    feasible = np.array([0, 1, 2, 3])
    inits = np.stack([[0, 0, 0, 0], feasible, feasible])
    report = multi_start(w, inst, 3, Budget(max_iterations=5), inits=inits)
    assert report.feasible
    assert report.winner == 1


def test_multi_start_deterministic_given_seed():
    inst = build_graph_coloring(6, [(0, 1), (1, 2), (2, 3), (4, 5)], 2)
    cfg = tiny_config(sampler="gumbel")
    w = init_weights(cfg, 2, np.random.default_rng(8))
    a = multi_start(w, inst, 4, Budget(max_iterations=30), seed=5)
    b = multi_start(w, inst, 4, Budget(max_iterations=30), seed=5)
    assert a.feasible == b.feasible
    assert a.iterations_used == b.iterations_used
    assert np.array_equal(a.final_assignment, b.final_assignment)


def test_maxcut_solve_tracks_best_cut():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 2.0)]
    inst = build_maxcut(4, edges)
    cfg = tiny_config(sampler="gumbel", select_p=1.0)
    w = init_weights(cfg, 2, np.random.default_rng(2))
    report = multi_start(w, inst, 2, Budget(max_iterations=60), seed=1)
    assert not report.feasible  # maximization never exits early
    assert report.objective is not None
    assert np.isclose(report.objective, cut_value(edges, report.best_assignment))
    assert report.objective <= 4.0 + 1e-12  # enumerated maximum


def test_maxcut_best_assignment_attains_objective():
    # a pool member whose violation count improved used to overwrite the row
    # that held the best cut, so best_assignment cut 257 against an objective
    # of 261 here
    inst = gen_maxcut_dataset(4, 100, seed=7)[0][3]
    cfg = ModelConfig(layers=2, heads=2, d_model=64, select_p=0.3, rpe_mode="masked",
                      ape_mode="none", tau=0.1, sampler="gumbel", dropout=0.0)
    w = init_weights(cfg, inst.m, np.random.default_rng(7))
    report = multi_start(w, inst, 10, Budget(max_iterations=30), seed=3)
    edges = [(c.i, c.k, c.weight) for c in inst.constraints]
    assert report.objective == 261.0
    assert cut_value(edges, report.best_assignment) == report.objective



def test_maxcut_tie_across_candidates_keeps_the_lower_index_row():
    # candidate 1 starts on a maximum cut of the path 0-1-2; candidate 0
    # reaches the other one, its mirror, only in round 2. Equal cuts go to
    # the lower index, not to the earlier round
    inst = build_maxcut(3, [(0, 1, 1.0), (1, 2, 1.0)])
    w = init_weights(tiny_config(sampler="gumbel"), 2, np.random.default_rng(0))
    inits = np.array([[0, 0, 0], [0, 1, 0]])
    rows = replay_solve(w, inst, 2, 4, seed=1, inits=inits)["rows"]
    assert rows[:3, 0].tolist() == [[0, 0, 0], [0, 0, 1], [1, 0, 1]]
    report = multi_start(w, inst, 2, Budget(max_iterations=4), seed=1, inits=inits)
    assert report.objective == 2.0
    assert report.best_assignment.tolist() == [1, 0, 1]


def test_time_budget_stops():
    inst = build_graph_coloring(3, [(0, 1), (1, 2), (0, 2)], 2)
    cfg = tiny_config(sampler="gumbel")
    w = init_weights(cfg, 2, np.random.default_rng(0))
    report = multi_start(w, inst, 1, Budget(time_limit_ms=30.0), seed=0)
    assert not report.feasible
    assert report.elapsed_ms < 5000.0


# ---------------------------------------------------------------------------
# Baselines


def test_greedy_coloring_is_proper():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    colors, k = greedy_coloring(4, edges)
    assert colors.max() + 1 == k
    for u, v in edges:
        assert colors[u] != colors[v]


def test_greedy_coloring_known_cases():
    _, k_path = greedy_coloring(3, [(0, 1), (1, 2)])
    assert k_path == 2
    _, k_clique = greedy_coloring(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert k_clique == 4
    _, k_empty = greedy_coloring(5, [])
    assert k_empty == 1


def test_direct_sgd_zero_missing_is_perfect():
    inst = build_sudoku(full_sudoku_grid().tolist())
    assert direct_sgd_counts(inst, runs=1, steps=1, lr=0.1, seed=0).tolist() == [27]


def test_direct_sgd_counts_batched_shape():
    inst = toy_alldiff(4)
    counts = direct_sgd_counts(inst, runs=3, steps=50, lr=0.5, seed=2)
    assert counts.shape == (3,)
    assert np.all((0 <= counts) & (counts <= 1))


def test_direct_sgd_solves_single_edge():
    # two adjacent vertices, two colors: descent splits them apart
    inst = build_graph_coloring(2, [(0, 1)], 2)
    counts = direct_sgd_counts(inst, runs=8, steps=400, lr=0.5, seed=0)
    assert counts.mean() >= 0.8


def test_direct_sgd_rejects_maximization():
    inst = build_maxcut(2, [(0, 1, 1.0)])
    with pytest.raises(CspError, match="satisfaction"):
        direct_sgd_counts(inst)
