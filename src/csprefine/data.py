"""Instance generation and file I/O.

Graph generators (Erdos-Renyi, Barabasi-Albert, random geometric) feed the
coloring and maxcut builders; the coloring dataset poses each graph with a
color count derived from a greedy coloring. Instances round-trip through a
JSON-lines format, model weights through a small binary container, and
every generated dataset carries a plain-text manifest.
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import accumulate, repeat
from operator import truediv

import numpy as np

from .csp import (
    AllDifferentAtMostOnce,
    AllDifferentExact,
    Cardinality,
    CspInstance,
    CspError,
    NotEqual,
    build_graph_coloring,
    build_maxcut,
    build_nurse_rostering,
    build_sudoku,
)
from .model import ModelConfig, ModelWeights, param_shapes
from .solve import greedy_coloring
from .tensor import NumericError, Tensor


class DataError(Exception):
    pass


# ---------------------------------------------------------------------------
# Graphs


@dataclass(frozen=True)
class WeightedGraph:
    n: int
    edges: tuple[tuple[int, int, float], ...]  # (u, v, w) with u < v

    def __post_init__(self):
        seen = set()
        for u, v, _ in self.edges:
            if not (0 <= u < v < self.n):
                raise DataError(f"bad edge ({u},{v}) for {self.n} vertices")
            if (u, v) in seen:
                raise DataError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    def unweighted(self):
        return [(u, v) for u, v, _ in self.edges]


def gen_erdos_renyi(n: int, p: float, rng: np.random.Generator) -> WeightedGraph:
    """Each of the n(n-1)/2 pairs becomes an edge independently with
    probability p."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise DataError(f"bad erdos-renyi parameters n={n}, p={p}")
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    edges = tuple((int(u), int(v), 1.0) for u, v in zip(iu[keep], ju[keep]))
    return WeightedGraph(n, edges)


def gen_barabasi_albert(n: int, m_attach: int, rng: np.random.Generator) -> WeightedGraph:
    """Preferential attachment growing from a clique on m_attach vertices;
    each newcomer links to m_attach distinct existing vertices with
    probability proportional to degree.

    Draw contract: each pick consumes one ``rng.random()`` draw u and takes
    the first vertex whose normalized cumulative probability exceeds u. That
    is the arithmetic of ``rng.choice(v, p=w / w.sum())``, done here in
    Python floats: a dataset keeps its bytes for a seed, whatever numpy's
    ``choice`` does, and skips ``choice``'s per-call overhead. Degrees are
    whole numbers, so every total and quotient is exact or correctly
    rounded as in numpy, and ``accumulate`` adds left to right as
    ``cumsum`` does.
    """
    if not 1 <= m_attach < n:
        raise DataError(f"barabasi-albert needs 1 <= m_attach < n, got {m_attach}, {n}")
    edges = []
    degree = [0.0] * n
    for u in range(m_attach):
        for v in range(u + 1, m_attach):
            edges.append((u, v, 1.0))
            degree[u] += 1.0
            degree[v] += 1.0
    for v in range(m_attach, n):
        weights = degree[:v]
        total = sum(weights)
        if total == 0.0:  # m_attach == 1: seed vertex has degree 0
            weights = [1.0] * v
            total = float(v)
        targets = []
        for _ in range(m_attach):
            cdf = list(accumulate(map(truediv, weights, repeat(total))))
            last = cdf[-1]
            pick = bisect_right(cdf, rng.random(), key=lambda c: c / last)
            targets.append(pick)
            total -= weights[pick]
            weights[pick] = 0.0  # drawn without replacement
        for u in sorted(targets):
            edges.append((u, v, 1.0))
            degree[u] += 1.0
            degree[v] += 1.0
    return WeightedGraph(n, tuple(edges))


def gen_geometric(n: int, r: float, rng: np.random.Generator) -> WeightedGraph:
    """Uniform points in the unit square; edge iff distance <= r."""
    if n < 1 or r < 0.0:
        raise DataError(f"bad geometric parameters n={n}, r={r}")
    pts = rng.random((n, 2))
    iu, ju = np.triu_indices(n, k=1)
    d = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    keep = d <= r
    edges = tuple((int(u), int(v), 1.0) for u, v in zip(iu[keep], ju[keep]))
    return WeightedGraph(n, edges)


# ---------------------------------------------------------------------------
# Dataset generation


@dataclass
class DatasetManifest:
    problem: str
    count: int
    seed: int
    params: dict
    per_instance: list[dict]

    def to_text(self) -> str:
        lines = [
            f"problem={self.problem}",
            f"count={self.count}",
            f"seed={self.seed}",
            f"params={json.dumps(self.params, sort_keys=True)}",
        ]
        for i, rec in enumerate(self.per_instance):
            lines.append(f"instance.{i}={json.dumps(rec, sort_keys=True)}")
        return "\n".join(lines) + "\n"


COLOR_DISTRIBUTIONS = ("erdos_renyi", "barabasi_albert", "geometric")


def _sample_graph(n: int, rng: np.random.Generator) -> tuple[str, WeightedGraph]:
    kind = COLOR_DISTRIBUTIONS[int(rng.integers(len(COLOR_DISTRIBUTIONS)))]
    if kind == "erdos_renyi":
        return kind, gen_erdos_renyi(n, rng.uniform(0.1, 0.3), rng)
    if kind == "barabasi_albert":
        m_attach = min(int(rng.integers(2, 11)), n - 1)
        return kind, gen_barabasi_albert(n, m_attach, rng)
    return kind, gen_geometric(n, rng.uniform(0.15, 0.3), rng)


def posed_color_count(k_greedy: int) -> int:
    """Colors to pose a graph with, from the greedy coloring's k'."""
    return max(3, min(10, k_greedy - 1))


# A fixed_k inside the posable range can still be unreachable: posed at
# greedy, k = n needs a complete graph, which no generator draws beyond 11
# vertices. Some reachable k are rare too: at n <= 100 a few come up once in
# 600 to 750 draws, and such a k hits this cap with odds near 2e-6.
MAX_REJECTED_DRAWS = 10_000


def gen_coloring_dataset(
    count: int,
    n_vertices: int,
    seed: int,
    fixed_k: int | None = None,
    pose_at_greedy: bool = False,
) -> tuple[list[CspInstance], DatasetManifest]:
    """Graphs colored greedily to find k', posed with k = max(3, min(10, k'-1)).

    ``fixed_k`` keeps only instances posed with that exact k (the generator
    keeps drawing until ``count`` of them exist). ``pose_at_greedy`` poses
    at k = k' instead, which makes every instance satisfiable. A ``fixed_k``
    that posing cannot give, or that ``MAX_REJECTED_DRAWS`` draws in a row
    miss, raises ``DataError``.
    """
    if fixed_k is not None:
        lo, hi = (1, n_vertices) if pose_at_greedy else (3, posed_color_count(n_vertices))
        if not lo <= fixed_k <= hi:
            raise DataError(
                f"fixed_k={fixed_k} cannot be posed at n={n_vertices}: "
                f"posing gives k in {lo}..{hi}"
            )
    rng = np.random.default_rng(seed)
    instances: list[CspInstance] = []
    records: list[dict] = []
    rejected = 0
    while len(instances) < count:
        kind, graph = _sample_graph(n_vertices, rng)
        _, k_greedy = greedy_coloring(graph.n, graph.unweighted())
        k = k_greedy if pose_at_greedy else posed_color_count(k_greedy)
        if fixed_k is not None and k != fixed_k:
            rejected += 1
            if rejected == MAX_REJECTED_DRAWS:
                raise DataError(
                    f"no graph posed with k={fixed_k} at n={n_vertices} "
                    f"in {MAX_REJECTED_DRAWS} draws in a row"
                )
            continue
        rejected = 0
        instances.append(build_graph_coloring(graph.n, graph.unweighted(), k))
        records.append({"distribution": kind, "k_greedy": k_greedy, "k": k,
                        "edges": len(graph.edges)})
    manifest = DatasetManifest(
        problem="coloring",
        count=count,
        seed=seed,
        params={"n_vertices": n_vertices, "fixed_k": fixed_k,
                "pose_at_greedy": pose_at_greedy,
                "distributions": list(COLOR_DISTRIBUTIONS)},
        per_instance=records,
    )
    return instances, manifest


def gen_nurse_dataset(
    count: int, days: int, shifts: int, per_shift: int, nurses: int, seed: int
) -> tuple[list[CspInstance], DatasetManifest]:
    """``count`` copies of one nurse-rostering instance, with no fixed
    variables; the seed draws nothing and is only recorded."""
    inst = build_nurse_rostering(days, shifts, per_shift, nurses)
    manifest = DatasetManifest(
        problem="nurse",
        count=count,
        seed=seed,
        params={"days": days, "shifts": shifts, "per_shift": per_shift, "nurses": nurses},
        per_instance=[],
    )
    return [inst] * count, manifest


def gen_maxcut_dataset(count: int, n_vertices: int, seed: int) -> tuple[list[CspInstance], DatasetManifest]:
    rng = np.random.default_rng(seed)
    instances = []
    records = []
    for _ in range(count):
        kind, graph = _sample_graph(n_vertices, rng)
        instances.append(build_maxcut(graph.n, graph.edges))
        records.append({"distribution": kind, "edges": len(graph.edges)})
    manifest = DatasetManifest(
        problem="maxcut", count=count, seed=seed,
        params={"n_vertices": n_vertices}, per_instance=records,
    )
    return instances, manifest


# ---------------------------------------------------------------------------
# Instance (de)serialization


def _constraint_to_json(c) -> dict:
    if isinstance(c, NotEqual):
        return {"kind": "ne", "i": c.i, "k": c.k, "w": c.weight}
    if isinstance(c, AllDifferentExact):
        return {"kind": "alldiff_exact", "scope": list(c.scope)}
    if isinstance(c, AllDifferentAtMostOnce):
        return {"kind": "alldiff_atmost", "scope": list(c.scope)}
    if isinstance(c, Cardinality):
        return {"kind": "cardinality", "value": c.value, "count": c.count,
                "scope": list(c.scope)}
    raise DataError(f"cannot serialize constraint {type(c).__name__}")


def _constraint_from_json(d: dict):
    kind = d["kind"]
    if kind == "ne":
        return NotEqual(d["i"], d["k"], d.get("w", 1.0))
    if kind == "alldiff_exact":
        return AllDifferentExact(tuple(d["scope"]))
    if kind == "alldiff_atmost":
        return AllDifferentAtMostOnce(tuple(d["scope"]))
    if kind == "cardinality":
        return Cardinality(d["value"], d["count"], tuple(d["scope"]))
    raise DataError(f"unknown constraint kind {kind!r}")


def _json_number(x):
    """A numpy number, which ``CspInstance`` accepts, as a Python number."""
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def instance_to_json(inst: CspInstance) -> str:
    return json.dumps(
        {
            "n": inst.n,
            "m": inst.m,
            "mode": inst.mode,
            "index_tuples": [list(t) for t in inst.index_tuples],
            "fixed": list(inst.fixed),
            "constraints": [_constraint_to_json(c) for c in inst.constraints],
        },
        sort_keys=True,
        default=_json_number,
    )


def instance_from_json(line: str) -> CspInstance:
    d = json.loads(line)
    return CspInstance(
        n=d["n"],
        m=d["m"],
        mode=d.get("mode", "satisfaction"),
        index_tuples=tuple(tuple(t) for t in d["index_tuples"]),
        fixed=tuple(d["fixed"]),
        constraints=tuple(_constraint_from_json(c) for c in d["constraints"]),
    )


def save_instances(instances, path) -> None:
    with open(path, "w") as fh:
        for inst in instances:
            fh.write(instance_to_json(inst) + "\n")


def _parse_lines(path, kind: str, parse) -> list:
    """``parse`` of each non-blank line of a UTF-8 text file. A line that
    does not decode, or that ``parse`` rejects, is a DataError that names
    its number."""
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode().strip()
                if line:
                    out.append(parse(line))
            # ValueError covers bad UTF-8 and bad JSON, RecursionError JSON
            # nested too deep, TypeError and AttributeError a value of the wrong type
            except (ValueError, RecursionError, TypeError, AttributeError, KeyError, CspError,
                    DataError) as exc:
                raise DataError(f"{path}:{lineno}: bad {kind} line: {exc}") from exc
    return out


def load_instances(path) -> list[CspInstance]:
    return _parse_lines(path, "instance", instance_from_json)


# ---------------------------------------------------------------------------
# Sudoku and GSET files


def _sudoku_from_line(line: str) -> CspInstance:
    if len(line) != 81:
        raise DataError(f"expected 81 characters, got {len(line)}")
    for ch in line:
        if ch not in "0.123456789":
            raise DataError(f"bad character {ch!r}")
    return build_sudoku([0 if ch == "." else int(ch) for ch in line])


def load_sudoku(path) -> list[CspInstance]:
    """One 81-character puzzle per line; '1'-'9' are givens, '0'/'.' blanks."""
    return _parse_lines(path, "sudoku", _sudoku_from_line)


def save_sudoku(instances, path) -> None:
    with open(path, "w") as fh:
        for inst in instances:
            fh.write("".join(
                "0" if v is None else str(v + 1) for v in inst.fixed
            ) + "\n")


def _gset_fields(path, lineno: int, line: str, form: str, types) -> list:
    """A GSET line's fields by ``types``, or a DataError naming ``path:lineno``."""
    parts = line.split()
    try:
        if len(parts) != len(types):
            raise ValueError(f"{len(parts)} fields")
        return [t(p) for t, p in zip(types, parts)]
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: expected {form}: {exc}") from None


def load_gset(path) -> WeightedGraph:
    """Header 'n m', then m lines 'u v w' with 1-based vertex ids."""
    with open(path) as fh:
        n, m = _gset_fields(path, 1, fh.readline(), "'n m' header", (int, int))
        edges = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            u, v, w = _gset_fields(path, lineno, line, "'u v w'", (int, int, float))
            if u == v or not (1 <= u <= n and 1 <= v <= n):
                raise DataError(f"{path}:{lineno}: edge {u} {v} needs two distinct ids in 1..{n}")
            if not np.isfinite(w):
                raise DataError(f"{path}:{lineno}: edge {u} {v} has weight {w}, not finite")
            edges.append((min(u, v) - 1, max(u, v) - 1, w))
    if len(edges) != m:
        raise DataError(f"{path}: header declares {m} edges, found {len(edges)}")
    return WeightedGraph(n, tuple(edges))


def save_gset(graph: WeightedGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {len(graph.edges)}\n")
        for u, v, w in graph.edges:
            wtxt = str(int(w)) if float(w).is_integer() else repr(w)
            fh.write(f"{u + 1} {v + 1} {wtxt}\n")


# ---------------------------------------------------------------------------
# Weight serialization


_MAGIC = b"CSPW"
_VERSION = 2
# the dtypes a weight file may hold, and their little-endian block layout;
# version 1 files carry no dtype and hold float64 blocks
_BLOCK = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}


def save_weights(weights: ModelWeights, path) -> None:
    """Binary container: magic, version, JSON header, then one little-endian
    block per tensor in the weights' dtype, which the header names.
    Raises NumericError, and writes nothing, if any value is not finite."""
    names = sorted(weights.params)
    for name in names:
        if not np.all(np.isfinite(weights.params[name].data)):
            raise NumericError(f"parameter {name!r} holds non-finite values; nothing saved")
    dtype = weights.dtype.name
    header = json.dumps(
        {
            "config": asdict(weights.config),
            "domain_size": weights.domain_size,
            "dtype": dtype,
            "tensors": {name: list(weights.params[name].shape) for name in names},
        },
        sort_keys=True,
    ).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name in names:
            data = np.ascontiguousarray(weights.params[name].data, dtype=_BLOCK[dtype])
            fh.write(data.tobytes())


def load_weights(path) -> ModelWeights:
    """Read a weight file of version 1 (float64) or 2 (the dtype its header
    names); the tensors come back in that dtype. The header's tensor table
    must name exactly the parameters, and shapes, of its model config."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise DataError(f"{path}: not a weight file (bad magic)")
        preamble = fh.read(8)
        if len(preamble) != 8:
            raise DataError(f"{path}: truncated preamble")
        version, hlen = struct.unpack("<II", preamble)
        if version not in (1, _VERSION):
            raise DataError(f"{path}: unsupported weight format version {version}")
        try:
            header = json.loads(fh.read(hlen).decode())
            config = ModelConfig(**header["config"])
            domain_size = header["domain_size"]
            shapes = {name: tuple(dims) for name, dims in header["tensors"].items()}
            dtype = "float64" if version == 1 else header["dtype"]
            block = _BLOCK[dtype]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            # not UTF-8, not JSON, a missing or unknown key, or a rejected config
            raise DataError(f"{path}: bad header: {exc!r}") from None
        if type(domain_size) is not int or domain_size < 1:
            raise DataError(f"{path}: bad header: domain size {domain_size!r}")
        expected = param_shapes(config, domain_size)
        if shapes != expected:
            raise DataError(f"{path}: the tensor table does not match the header's model")
        params: dict[str, Tensor] = {}
        for name, shape in sorted(expected.items()):
            size = (int(np.prod(shape)) if shape else 1) * block.itemsize
            raw = fh.read(size)
            if len(raw) != size:
                raise DataError(f"{path}: truncated tensor block {name!r}")
            params[name] = Tensor(np.frombuffer(raw, dtype=block).reshape(shape).astype(dtype))
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after tensor blocks")
    return ModelWeights(config, domain_size, params)
