"""Constraint model tests: validation, checking oracles, constraint graphs,
and the four problem builders."""

import itertools

import numpy as np
import pytest

from csprefine.csp import (
    AllDifferentAtMostOnce,
    AllDifferentExact,
    Cardinality,
    CspError,
    CspInstance,
    NotEqual,
    all_different,
    build_graph_coloring,
    build_maxcut,
    build_nurse_rostering,
    build_sudoku,
    check_constraint,
    constraint_graph,
    is_feasible,
    total_violation,
    validate_assignment,
    violation_degree,
)
from conftest import full_sudoku_grid, toy_alldiff


def test_all_different_picks_variant():
    assert isinstance(all_different([0, 1, 2], 3), AllDifferentExact)
    assert isinstance(all_different([0, 1], 3), AllDifferentAtMostOnce)
    with pytest.raises(CspError):
        all_different([0, 1, 2], 2)


def test_instance_validation_rejects_bad_shapes():
    with pytest.raises(CspError):
        CspInstance(n=0, m=2, index_tuples=(), constraints=(), fixed=())
    with pytest.raises(CspError):
        CspInstance(n=2, m=2, index_tuples=((0,), (1, 0)), constraints=(),
                    fixed=(None, None))
    with pytest.raises(CspError):
        CspInstance(n=2, m=2, index_tuples=((0,), (1,)), constraints=(),
                    fixed=(None,))
    with pytest.raises(CspError):
        CspInstance(n=2, m=2, index_tuples=((0,), (1,)), constraints=(),
                    fixed=(None, 5))
    # a loaded JSON line can hold 1.0 or true where an integer belongs, any
    # string as the mode, and any list as an index tuple
    base = dict(n=2, m=2, index_tuples=((0,), (1,)), constraints=(), fixed=(None, None))
    CspInstance(**{**base, "n": np.int64(2), "m": np.int32(2)})  # numpy integers are integers
    for bad in [dict(n=2.0), dict(m=True), dict(fixed=(None, 1.0)), dict(fixed=(False, None)),
                dict(mode="maximisation"), dict(index_tuples=(("a",), ("b",))),
                dict(index_tuples=(([0],), ([1],))), dict(index_tuples=((), ())),
                dict(index_tuples=((0.5,), (1.5,))), dict(index_tuples=((True,), (False,))),
                # the positional tables read the entries as int64
                dict(index_tuples=((2**63,), (1,))), dict(index_tuples=((-2**63 - 1,), (1,))),
                dict(index_tuples=((10**20,), (1,)))]:
        with pytest.raises(CspError):
            CspInstance(**{**base, **bad})
    CspInstance(**{**base, "index_tuples": ((2**63 - 1,), (-2**63,))})


def test_instance_validation_rejects_bad_constraints():
    base = dict(n=3, m=3, index_tuples=((0,), (1,), (2,)), fixed=(None,) * 3)
    with pytest.raises(CspError):
        CspInstance(constraints=(NotEqual(0, 0),), **base)
    with pytest.raises(CspError):
        CspInstance(constraints=(NotEqual(0, 5),), **base)
    with pytest.raises(CspError):
        CspInstance(constraints=(AllDifferentExact((0, 1)),), **base)
    with pytest.raises(CspError):
        CspInstance(constraints=(AllDifferentAtMostOnce((0, 1, 2)),), **base)
    with pytest.raises(CspError):
        CspInstance(constraints=(Cardinality(3, 1, (0, 1)),), **base)
    with pytest.raises(CspError):
        CspInstance(constraints=(Cardinality(0, 5, (0, 1)),), **base)
    CspInstance(constraints=(NotEqual(np.int64(0), 1, weight=2), Cardinality(np.int8(1), 1, (0, 2))),
                **base)
    for bad in [NotEqual(0.0, 1), AllDifferentAtMostOnce((0, True)), Cardinality(1.0, 1, (0, 1)),
                Cardinality(1, 1.0, (0, 1))] + [NotEqual(0, 1, weight=w) for w in ("a", True, np.nan, np.inf)]:
        with pytest.raises(CspError):
            CspInstance(constraints=(bad,), **base)
    # the quadratic penalty squares a weight in float64
    for w in (1e200, -1e200, 10**400):
        with pytest.raises(CspError):
            CspInstance(constraints=(NotEqual(0, 1, weight=w),), **base)
    CspInstance(constraints=(NotEqual(0, 1, weight=-1e154),), **base)



def test_validate_assignment():
    inst = toy_alldiff(3)
    validate_assignment(inst, [0, 1, 2])
    with pytest.raises(CspError):
        validate_assignment(inst, [0, 1])
    with pytest.raises(CspError):
        validate_assignment(inst, [0, 1, 3])
    with pytest.raises(CspError):
        validate_assignment(inst, [0.0, 1.0, 2.0])
    validate_assignment(inst, np.array([[0, 1, 2], [2, 2, 2]]))  # a pool
    with pytest.raises(CspError, match="variable 1 outside"):
        validate_assignment(inst, np.array([[0, 1, 2], [2, -1, 2]]))


def test_validate_assignment_keeps_givens():
    inst = build_sudoku([5] + [0] * 80)
    validate_assignment(inst, [4] + [0] * 80)
    with pytest.raises(CspError, match="variable 0 differs from its given 4"):
        validate_assignment(inst, [0] * 81)


def test_compiled_arrays_are_read_only():
    inst = build_sudoku([0, 3] + [0] * 79)
    cc = inst.compiled
    for arr in (cc.fixed_mask, cc.fixed_values, cc.edge_i, cc.exact, cc.card_value):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    # the adjacency is computed per call and belongs to the caller
    adj = cc.adjacency()
    adj[0, 1] = False
    assert cc.adjacency()[0, 1]


def test_not_equal_check_and_degree():
    c = NotEqual(0, 1)
    assert check_constraint(c, [0, 1])
    assert not check_constraint(c, [2, 2])
    assert violation_degree(c, [2, 2]) == 1


def test_cardinality_degree():
    c = Cardinality(value=1, count=2, scope=(0, 1, 2))
    assert violation_degree(c, [1, 1, 0]) == 0
    assert violation_degree(c, [1, 1, 1]) == 1
    assert violation_degree(c, [0, 0, 0]) == 2


def test_alldiff_degree_counts_surplus():
    c = AllDifferentExact((0, 1, 2))
    assert violation_degree(c, [0, 1, 2]) == 0
    assert violation_degree(c, [0, 0, 2]) == 1
    assert violation_degree(c, [1, 1, 1]) == 2


def test_atmost_once_degree():
    c = AllDifferentAtMostOnce((0, 1))
    assert violation_degree(c, [0, 2]) == 0
    assert violation_degree(c, [2, 2]) == 1


def test_feasibility_and_total_violation():
    inst = toy_alldiff(3)
    assert is_feasible(inst, [2, 0, 1])
    assert not is_feasible(inst, [0, 0, 1])
    assert total_violation(inst, [0, 0, 0]) == 2


def test_degree_zero_iff_check_exhaustive():
    # every kind, every assignment with small scope and domain
    kinds = [
        (NotEqual(0, 1), 2, 3),
        (Cardinality(1, 1, (0, 1, 2)), 3, 3),
        (AllDifferentExact((0, 1, 2)), 3, 3),
        (AllDifferentAtMostOnce((0, 1)), 2, 4),
    ]
    for c, nvars, m in kinds:
        for values in itertools.product(range(m), repeat=nvars):
            deg = violation_degree(c, values)
            assert deg >= 0
            assert (deg == 0) == check_constraint(c, values)


def test_constraint_graph_edges():
    inst = toy_alldiff(3)
    g = constraint_graph(inst)
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert g.neighbors(1) == [0, 2]


def test_constraint_graph_merges_overlapping_scopes():
    inst = CspInstance(
        n=4, m=4,
        index_tuples=tuple((i,) for i in range(4)),
        constraints=(NotEqual(0, 1), NotEqual(1, 2), NotEqual(1, 2)),
        fixed=(None,) * 4,
    )
    g = constraint_graph(inst)
    assert g.edges == frozenset({(0, 1), (1, 2)})


# ---------------------------------------------------------------------------
# Builders


def test_sudoku_builder_shape():
    inst = build_sudoku([0] * 81)
    assert inst.n == 81 and inst.m == 9
    assert len(inst.constraints) == 27
    assert all(isinstance(c, AllDifferentExact) for c in inst.constraints)
    assert inst.index_tuples[10] == (1, 1)


def test_sudoku_builder_givens_shift():
    givens = [0] * 81
    givens[0] = 9
    givens[80] = 1
    inst = build_sudoku(givens)
    assert inst.fixed[0] == 8
    assert inst.fixed[80] == 0
    assert inst.fixed[1] is None


def test_sudoku_builder_rejects_bad_entries():
    with pytest.raises(CspError):
        build_sudoku([0] * 80)
    for entry in (10, True, False, 0.0, 5.0):
        bad = [0] * 81
        bad[3] = entry
        with pytest.raises(CspError):
            build_sudoku(bad)


def test_sudoku_builder_takes_a_numpy_grid():
    grid = full_sudoku_grid().reshape(-1)
    grid[::4] = 0
    inst = build_sudoku(grid)
    assert inst == build_sudoku(grid.tolist())
    assert all(v is None or type(v) is int for v in inst.fixed)


def test_sudoku_full_grid_feasible():
    grid = full_sudoku_grid()
    inst = build_sudoku([0] * 81)
    assert is_feasible(inst, (grid - 1).tolist())


def test_coloring_builder():
    inst = build_graph_coloring(4, [(0, 1), (2, 1)], 3)
    assert inst.n == 4 and inst.m == 3
    assert inst.constraints == (NotEqual(0, 1), NotEqual(1, 2))
    assert inst.mode == "satisfaction"
    with pytest.raises(CspError):
        build_graph_coloring(3, [], 0)


def test_nurse_builder_counts():
    inst = build_nurse_rostering(10, 3, 3, 10)
    assert inst.n == 90 and inst.m == 10
    atmost = [c for c in inst.constraints if isinstance(c, AllDifferentAtMostOnce)]
    pairs = [c for c in inst.constraints if isinstance(c, NotEqual)]
    assert len(atmost) == 10
    assert len(pairs) == 81
    assert inst.index_tuples[0] == (0, 0, 0)
    assert inst.index_tuples[-1] == (9, 2, 2)


def test_nurse_builder_cross_day_pairs():
    inst = build_nurse_rostering(2, 2, 1, 3)
    pairs = [c for c in inst.constraints if isinstance(c, NotEqual)]
    # last shift of day 0 is var 1, first shift of day 1 is var 2
    assert pairs == [NotEqual(1, 2)]


def test_nurse_builder_rejects_impossible_day():
    with pytest.raises(CspError):
        build_nurse_rostering(2, 3, 3, 8)


def test_maxcut_builder():
    inst = build_maxcut(3, [(0, 1, 2.0), (1, 2, 0.5)])
    assert inst.mode == "maximization"
    assert inst.m == 2
    assert inst.constraints[0].weight == 2.0


@pytest.mark.parametrize("n", [2**62, 10**20])
def test_maxcut_builder_checks_the_size_before_enumerating(n):
    # the size rule ran in CspInstance, after n index tuples were built
    with pytest.raises(CspError, match="array size limit"):
        build_maxcut(n, [(0, 1, 1.0)])


def test_instances_are_immutable():
    inst = toy_alldiff(3)
    with pytest.raises(AttributeError):
        inst.n = 5
