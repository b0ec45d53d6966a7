"""Discrete CSP data model: instances, constraints, checking, violation
degrees, the compiled array form of an instance (the one place that derives
structure from the constraints and the fixed markers), the reference
constraint graph, and the four problem builders (sudoku, graph coloring,
nurse rostering, maxcut).

Domains are normalized to ``0..m-1`` internally; the builders shift
1-based digits/colors down on the way in.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Integral, Real

import numpy as np


class CspError(Exception):
    pass


MODES = ("satisfaction", "maximization")


def _is_int(x) -> bool:
    """A Python or numpy integer; ``True`` and ``1.0`` are not."""
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def _is_real(x) -> bool:
    """A Python or numpy real number, integers included; ``True`` is not."""
    return type(x) is float or (isinstance(x, Real) and not isinstance(x, bool))


def _check_table_size(n: int, m: int) -> None:
    """CspError when the (n, m) and (m, m) float64 tables that the model
    and the penalty build are past numpy's array size limit."""
    if max(n, m) * m * 8 > np.iinfo(np.intp).max:
        raise CspError(f"sizes n={n} and m={m} give tables past numpy's array size limit")


# ---------------------------------------------------------------------------
# Constraints


@dataclass(frozen=True)
class Cardinality:
    """Exactly ``count`` variables in ``scope`` take the value ``value``."""

    value: int
    count: int
    scope: tuple[int, ...]


@dataclass(frozen=True)
class AllDifferentExact:
    """All scope variables distinct; scope size equals the domain size, so
    every value appears exactly once."""

    scope: tuple[int, ...]


@dataclass(frozen=True)
class AllDifferentAtMostOnce:
    """All scope variables distinct; domain larger than the scope, so every
    value appears at most once."""

    scope: tuple[int, ...]


@dataclass(frozen=True)
class NotEqual:
    """Two variables must differ; ``weight`` matters only for maximization."""

    i: int
    k: int
    weight: float = 1.0

    @property
    def scope(self) -> tuple[int, int]:
        return (self.i, self.k)


Constraint = Cardinality | AllDifferentExact | AllDifferentAtMostOnce | NotEqual


def all_different(scope, domain_size: int) -> Constraint:
    """Pick the AllDifferent variant from scope size vs domain size."""
    scope = tuple(scope)
    if len(scope) > domain_size:
        raise CspError(
            f"alldifferent over {len(scope)} variables with only "
            f"{domain_size} values is unsatisfiable"
        )
    if len(scope) == domain_size:
        return AllDifferentExact(scope)
    return AllDifferentAtMostOnce(scope)


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class CspInstance:
    n: int
    m: int
    index_tuples: tuple[tuple[int, ...], ...]
    constraints: tuple[Constraint, ...]
    fixed: tuple[int | None, ...]
    mode: str = "satisfaction"  # or "maximization"

    def __post_init__(self):
        if not (_is_int(self.n) and _is_int(self.m)):
            raise CspError(f"sizes must be integers, got n={self.n!r} and m={self.m!r}")
        if self.n < 1 or self.m < 1:
            raise CspError("need at least one variable and one domain value")
        _check_table_size(int(self.n), int(self.m))
        if self.mode not in MODES:
            raise CspError(f"mode {self.mode!r} is not one of {MODES}")
        dims = {len(t) for t in self.index_tuples}
        if len(self.index_tuples) != self.n or len(dims) != 1 or 0 in dims:
            raise CspError("index tuples must cover all variables with one arity of at least 1")
        # the positional tables read the entries as an int64 array
        if not all(_is_int(x) and -2**63 <= x < 2**63 for t in self.index_tuples for x in t):
            raise CspError("index tuple entries must be integers within int64")
        if len(self.fixed) != self.n:
            raise CspError("fixed markers must cover all variables")
        for v in self.fixed:
            if v is not None and not (_is_int(v) and 0 <= v < self.m):
                raise CspError(f"fixed value {v!r} is not an integer in [0,{self.m})")
        for c in self.constraints:
            _validate_constraint(c, self.n, self.m)

    @cached_property
    def compiled(self) -> "CompiledCsp":
        """The array form, built on first use and kept with the instance."""
        return compile_csp(self)


def _validate_constraint(c: Constraint, n: int, m: int) -> None:
    for i in c.scope:
        if not (_is_int(i) and 0 <= i < n):
            raise CspError(f"constraint scope index {i!r} is not an integer in [0,{n})")
    if isinstance(c, Cardinality):
        if not (_is_int(c.value) and 0 <= c.value < m):
            raise CspError(f"cardinality value {c.value!r} is not an integer in [0,{m})")
        if not (_is_int(c.count) and 0 <= c.count <= len(c.scope)):
            raise CspError(f"cardinality count {c.count!r} is not an integer in [0,{len(c.scope)}]")
    elif isinstance(c, AllDifferentExact):
        if len(c.scope) != m:
            raise CspError("exact alldifferent needs scope size == domain size")
    elif isinstance(c, AllDifferentAtMostOnce):
        if len(c.scope) >= m:
            raise CspError("at-most-once alldifferent needs scope size < domain size")
    elif isinstance(c, NotEqual):
        if c.i == c.k:
            raise CspError(f"not-equal constraint on a single variable {c.i}")
        w = c.weight
        try:  # the quadratic penalty squares the weight in float64
            finite = _is_real(w) and math.isfinite(float(w) ** 2)
        except OverflowError:  # float() of a huge integer, or the square
            finite = False
        if not finite:
            raise CspError(f"not-equal weight {w!r} is not a number whose square is finite")


def validate_assignment(inst: CspInstance, values) -> None:
    """Raise CspError unless ``values``, of shape (..., n), are integer
    assignments of ``inst``: every value in the domain, every given kept."""
    values = np.asarray(values)
    if values.ndim == 0 or values.shape[-1] != inst.n:
        raise CspError(f"assignment of shape {values.shape} does not have {inst.n} values")
    if not np.issubdtype(values.dtype, np.integer):
        raise CspError(f"assignment values must be integers, got {values.dtype}")
    outside = (values < 0) | (values >= inst.m)
    if outside.any():
        at = tuple(np.argwhere(outside)[0])
        raise CspError(f"value {values[at]} at variable {at[-1]} outside domain [0,{inst.m})")
    cc = inst.compiled
    moved = cc.fixed_mask & (values != cc.fixed_values)
    if moved.any():
        at = tuple(np.argwhere(moved)[0])
        given = cc.fixed_values[at[-1]]
        raise CspError(f"value {values[at]} at variable {at[-1]} differs from its given {given}")


# ---------------------------------------------------------------------------
# Checking and violation degrees


def check_constraint(c: Constraint, values) -> bool:
    return violation_degree(c, values) == 0


def violation_degree(c: Constraint, values) -> int:
    """Non-negative distance from satisfaction; 0 iff the constraint holds."""
    if isinstance(c, NotEqual):
        return int(values[c.i] == values[c.k])
    if isinstance(c, Cardinality):
        count = sum(1 for i in c.scope if values[i] == c.value)
        return abs(c.count - count)
    # both alldifferent variants: surplus occupancy per value
    counts = Counter(values[i] for i in c.scope)
    return sum(cnt - 1 for cnt in counts.values() if cnt > 1)


def is_feasible(inst: CspInstance, values) -> bool:
    return all(check_constraint(c, values) for c in inst.constraints)


def total_violation(inst: CspInstance, values) -> int:
    return sum(violation_degree(c, values) for c in inst.constraints)


# ---------------------------------------------------------------------------
# Compiled form


@dataclass(frozen=True)
class CompiledCsp:
    """One instance as arrays: the fixed variables, the not-equal edge list
    and, per scope kind, membership rows: ``rows[r, i]`` counts how often
    variable i occurs in the r-th scope of that kind. The penalty, the
    discrete checker, the cut objective, training batches, the attention
    graph and the samplers all read this form. Every array is read-only:
    the form is cached on the instance and shared by all of its users."""

    fixed_mask: np.ndarray  # (n,) bool
    fixed_values: np.ndarray  # (n,) int, 0 where the variable is free
    edge_i: np.ndarray  # (E,) int
    edge_k: np.ndarray  # (E,) int
    edge_w: np.ndarray  # (E,) float
    exact: np.ndarray  # (C, n) float, AllDifferentExact scopes
    atmost: np.ndarray  # (C, n) float, AllDifferentAtMostOnce scopes
    card: np.ndarray  # (C, n) float, Cardinality scopes
    card_value: np.ndarray  # (C,) int
    card_count: np.ndarray  # (C,) float

    def __post_init__(self):
        for array in vars(self).values():
            array.setflags(write=False)

    def adjacency(self) -> np.ndarray:
        """(n, n) bool: i and j share a scope or a not-equal edge; every
        variable is adjacent to itself. Built on each call, so the cached
        form stays an edge list plus scope rows."""
        rows = np.concatenate([self.exact, self.atmost, self.card])
        adj = rows.T @ rows > 0
        adj[self.edge_i, self.edge_k] = True
        adj[self.edge_k, self.edge_i] = True
        np.fill_diagonal(adj, True)
        return adj


def _scope_rows(n: int, scopes: list[tuple[int, ...]]) -> np.ndarray:
    rows = np.zeros((len(scopes), n))
    if scopes:
        sizes = np.fromiter(map(len, scopes), np.int64, len(scopes))
        members = np.fromiter(chain.from_iterable(scopes), np.int64, int(sizes.sum()))
        np.add.at(rows, (np.repeat(np.arange(len(scopes)), sizes), members), 1.0)
    return rows


def compile_csp(inst: CspInstance) -> CompiledCsp:
    edges: list[tuple[int, int, float]] = []
    exact: list[tuple[int, ...]] = []
    atmost: list[tuple[int, ...]] = []
    card: list[Cardinality] = []
    for c in inst.constraints:
        if isinstance(c, NotEqual):
            edges.append((c.i, c.k, c.weight))
        elif isinstance(c, AllDifferentExact):
            exact.append(c.scope)
        elif isinstance(c, AllDifferentAtMostOnce):
            atmost.append(c.scope)
        elif isinstance(c, Cardinality):
            card.append(c)
        else:
            raise TypeError(f"cannot compile constraint {type(c).__name__}")
    e = np.array(edges, dtype=np.float64).reshape(-1, 3)  # indices are exact in float64
    return CompiledCsp(
        fixed_mask=np.array([v is not None for v in inst.fixed], dtype=bool),
        fixed_values=np.array([0 if v is None else v for v in inst.fixed], dtype=np.int64),
        edge_i=e[:, 0].astype(np.int64),
        edge_k=e[:, 1].astype(np.int64),
        edge_w=e[:, 2].copy(),
        exact=_scope_rows(inst.n, exact),
        atmost=_scope_rows(inst.n, atmost),
        card=_scope_rows(inst.n, [c.scope for c in card]),
        card_value=np.array([c.value for c in card], dtype=np.int64),
        card_count=np.array([c.count for c in card], dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Constraint graph (reference form; CompiledCsp.adjacency is the array form)


@dataclass(frozen=True)
class ConstraintGraph:
    n: int
    edges: frozenset[tuple[int, int]]  # (i, j) with i < j

    def neighbors(self, i: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)


def constraint_graph(inst: CspInstance) -> ConstraintGraph:
    """One edge per pair of variables sharing at least one constraint scope."""
    edges = set()
    for c in inst.constraints:
        scope = c.scope
        for a in range(len(scope)):
            for b in range(a + 1, len(scope)):
                i, j = scope[a], scope[b]
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return ConstraintGraph(inst.n, frozenset(edges))


# ---------------------------------------------------------------------------
# Problem builders


def build_sudoku(givens) -> CspInstance:
    """9x9 sudoku from 81 entries: digits 1-9 are givens, 0/None are blanks.
    An entry is a Python or numpy integer; a bool or a float raises CspError.

    Consistency of the givens is not checked; an inconsistent puzzle is a
    legal (unsolvable) instance.
    """
    givens = list(givens)
    if len(givens) != 81:
        raise CspError(f"sudoku needs 81 entries, got {len(givens)}")
    fixed: list[int | None] = []
    for g in givens:
        if g is None or (_is_int(g) and g == 0):
            fixed.append(None)
        elif _is_int(g) and 1 <= g <= 9:
            fixed.append(int(g) - 1)
        else:
            raise CspError(f"sudoku entry {g!r} not a digit 1-9 or blank")
    index_tuples = tuple((r, c) for r in range(9) for c in range(9))
    constraints: list[Constraint] = []
    for r in range(9):
        constraints.append(AllDifferentExact(tuple(r * 9 + c for c in range(9))))
    for c in range(9):
        constraints.append(AllDifferentExact(tuple(r * 9 + c for r in range(9))))
    for br in range(3):
        for bc in range(3):
            scope = tuple(
                (3 * br + dr) * 9 + (3 * bc + dc) for dr in range(3) for dc in range(3)
            )
            constraints.append(AllDifferentExact(scope))
    return CspInstance(
        n=81,
        m=9,
        index_tuples=index_tuples,
        constraints=tuple(constraints),
        fixed=tuple(fixed),
    )


def build_graph_coloring(n_vertices: int, edges, k: int) -> CspInstance:
    """Color ``n_vertices`` with ``k`` colors; one not-equal per edge."""
    if k < 1:
        raise CspError("need at least one color")
    constraints = tuple(NotEqual(min(u, v), max(u, v)) for u, v in edges)
    return CspInstance(
        n=n_vertices,
        m=k,
        index_tuples=tuple((v,) for v in range(n_vertices)),
        constraints=constraints,
        fixed=(None,) * n_vertices,
    )


def build_nurse_rostering(days: int, shifts: int, per_shift: int, nurses: int) -> CspInstance:
    """Shift slots indexed (day, shift, slot), domain = nurse ids.

    Per day: one at-most-once alldifferent over all slots (no nurse works
    two shifts a day). Across days: the last shift of day d and the first
    shift of day d+1 share no nurse.
    """
    if shifts * per_shift > nurses:
        raise CspError(
            f"{shifts}*{per_shift} slots per day cannot host distinct "
            f"nurses out of {nurses}"
        )
    if days < 1 or shifts < 1 or per_shift < 1 or nurses < 1:
        raise CspError("all nurse rostering parameters must be positive")
    n = days * shifts * per_shift
    _check_table_size(n, nurses)  # before any index tuple is enumerated

    def var(d: int, s: int, slot: int) -> int:
        return (d * shifts + s) * per_shift + slot

    index_tuples = tuple(
        (d, s, slot)
        for d in range(days)
        for s in range(shifts)
        for slot in range(per_shift)
    )
    constraints: list[Constraint] = []
    for d in range(days):
        scope = tuple(
            var(d, s, slot) for s in range(shifts) for slot in range(per_shift)
        )
        constraints.append(all_different(scope, nurses))
    for d in range(days - 1):
        for a in range(per_shift):
            for b in range(per_shift):
                constraints.append(
                    NotEqual(var(d, shifts - 1, a), var(d + 1, 0, b))
                )
    return CspInstance(
        n=n,
        m=nurses,
        index_tuples=index_tuples,
        constraints=tuple(constraints),
        fixed=(None,) * n,
    )


def build_maxcut(n_vertices: int, weighted_edges) -> CspInstance:
    """2-coloring with weighted not-equals, maximization mode."""
    _check_table_size(n_vertices, 2)  # before any index tuple is enumerated
    constraints = tuple(
        NotEqual(min(u, v), max(u, v), weight=float(w)) for u, v, w in weighted_edges
    )
    return CspInstance(
        n=n_vertices,
        m=2,
        index_tuples=tuple((v,) for v in range(n_vertices)),
        constraints=constraints,
        fixed=(None,) * n_vertices,
        mode="maximization",
    )
