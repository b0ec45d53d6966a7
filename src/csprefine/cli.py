"""Command-line entry point.

Subcommands: ``generate`` (datasets), ``train`` (weights), ``solve``
(iterative refinement with optional multi-start), ``baseline`` (greedy
coloring / direct gradient descent), and ``gradcheck`` (finite-difference
verification of penalties and a toy model).

Exit codes: 0 success, 1 a ``gradcheck`` check failed, 2 usage, 3 I/O or
compatibility, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .csp import AllDifferentExact, CspError, CspInstance, is_feasible
from .data import (
    DataError,
    gen_coloring_dataset,
    gen_maxcut_dataset,
    gen_nurse_dataset,
    load_instances,
    load_sudoku,
    load_weights,
    save_instances,
    save_weights,
)
from .model import (
    APE_MODES,
    RPE_MODES,
    SAMPLERS,
    ArityMismatch,
    DomainMismatch,
    InstanceContext,
    ModelConfig,
    forward,
    init_weights,
)
from .penalty import (
    LossProgram,
    pen_alldiff_atmost,
    pen_alldiff_exact,
    pen_cardinality,
    pen_not_equal,
)
from .solve import Budget, direct_sgd_counts, greedy_coloring, multi_start
from .tensor import NumericError, Tensor, grad_check
from .train import TrainConfig, train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    """A command-line value that the library rejects."""


def _from_args(fn, **kwargs):
    """``fn(**kwargs)`` called with command-line values; a value that it
    rejects with ValueError is a usage error."""
    try:
        return fn(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _config_hash(args: argparse.Namespace) -> str:
    """Hash of the arguments and of the bytes of the ``--weights`` and
    ``--dataset`` files, so a file rewritten in place gives a new hash."""
    config = {k: str(v) for k, v in vars(args).items() if k != "func"}
    for key in ("weights", "dataset"):
        if key in config:
            config[f"{key}_sha256"] = hashlib.sha256(Path(config[key]).read_bytes()).hexdigest()
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]


def _int_at_least(low: int, what: str):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")
# the graph sampler may draw a Barabasi-Albert graph, which needs 2 vertices
_graph_size = _int_at_least(2, "a graph size (at least 2 vertices)")


# a flag whose API parameter has another name
_PARAM_NAMES = {"n": "n_vertices", "p": "select_p", "rpe": "rpe_mode", "ape": "ape_mode"}

# the model flags of ``train``, with their defaults; with --resume the model
# comes from the weights, and a given model flag is a usage error
_MODEL_FLAGS = {"layers": 2, "heads": 2, "d_model": 64, "p": 0.5, "rpe": "masked",
                "ape": "none", "tau": 0.1, "sampler": "gumbel", "dropout": 0.1}


def _read_flags(args, reads: dict, flags, reader: str) -> dict:
    """The API parameters of a run that reads the flags ``reads``: each one
    as given, or at its default there, under its parameter name. Each flag
    of ``flags`` that is given and not read is named, in the order of
    ``flags``, by a usage error that ``reader`` begins."""
    stray = [k for k in flags if hasattr(args, k) and k not in reads]
    if stray:
        names = ", ".join("--" + k.replace("_", "-") for k in stray)
        raise UsageError(f"{reader} does not read {names}")
    return {_PARAM_NAMES.get(k, k): getattr(args, k, default) for k, default in reads.items()}


# ---------------------------------------------------------------------------
# generate


# each problem's generator and the flags it reads, with their defaults
_PROBLEMS = {
    "coloring": (gen_coloring_dataset, {"n": 50, "fixed_k": None, "pose_at_greedy": False}),
    "nurse": (gen_nurse_dataset, {"days": 10, "shifts": 3, "per_shift": 3, "nurses": 10}),
    "maxcut": (gen_maxcut_dataset, {"n": 50}),
}


def cmd_generate(args) -> int:
    gen, reads = _PROBLEMS[args.problem]
    every = sorted({k for _, flags in _PROBLEMS.values() for k in flags})
    params = _read_flags(args, reads, every, f"--problem {args.problem}")
    instances, manifest = gen(args.count, seed=args.seed, **params)
    out = Path(args.out)  # made only once generation has succeeded
    out.mkdir(parents=True, exist_ok=True)
    save_instances(instances, out / "instances.jsonl")
    (out / "manifest.txt").write_text(manifest.to_text())
    print(f"wrote {len(instances)} {args.problem} instances to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _load_dataset(args) -> list:
    path = Path(args.dataset)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    if path.suffix == ".sudoku" or args.format == "sudoku":
        return load_sudoku(path)
    return load_instances(path)


def cmd_train(args) -> int:
    params = _read_flags(args, {} if args.resume else _MODEL_FLAGS, _MODEL_FLAGS,
                         "--resume takes the model from its weights; it")
    tcfg = _from_args(
        TrainConfig,
        batch_size=args.batch_size,
        epochs=args.epochs,
        lr=args.lr,
        weight_decay=args.weight_decay,
        seed=args.seed,
        grad_clip=args.grad_clip,
    )
    instances = _load_dataset(args)
    if not instances:
        raise DataError(f"dataset {args.dataset} holds no instances")
    # the same call as the API: a fresh run draws its weights from the training rng
    weights = load_weights(args.resume) if args.resume else None
    mcfg = weights.config if weights is not None else _from_args(ModelConfig, **params)
    result = train(instances, mcfg, tcfg, weights=weights, log=print)
    save_weights(result.load_best(), args.out)
    print(f"trained {tcfg.epochs} epochs; checkpoint at {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    budget = _from_args(Budget, max_iterations=args.iters, time_limit_ms=args.time_ms)
    weights = load_weights(args.weights)
    instances = _load_dataset(args)
    chash = _config_hash(args)
    solved = 0
    iters_used = []
    out_lines = []
    for idx, inst in enumerate(instances):
        report = multi_start(weights, inst, args.pool, budget, seed=args.seed + idx)
        rec = {
            "instance": idx,
            "feasible": report.feasible,
            "iterations": report.iterations_used,
            "elapsed_ms": round(report.elapsed_ms, 3),
            "seed": args.seed,
            "config": chash,
        }
        if inst.mode == "maximization":
            rec["objective"] = report.objective
        solved += int(report.feasible)
        iters_used.append(report.iterations_used)
        out_lines.append(rec)

    stream = open(args.report, "w") if args.report else sys.stdout
    try:
        if args.report_format == "csv":
            keys = sorted({k for rec in out_lines for k in rec})
            stream.write(",".join(keys) + "\n")
            for rec in out_lines:
                stream.write(",".join(str(rec.get(k, "")) for k in keys) + "\n")
        else:
            for rec in out_lines:
                stream.write(json.dumps(rec, sort_keys=True) + "\n")
        summary = {
            "summary": True,
            "total": len(instances),
            "solved": solved,
            "pct_solved": round(100.0 * solved / max(1, len(instances)), 2),
            "mean_iterations": round(float(np.mean(iters_used)), 2) if iters_used else 0,
            "seed": args.seed,
            "config": chash,
        }
        stream.write(json.dumps(summary, sort_keys=True) + "\n")
    finally:
        if stream is not sys.stdout:
            stream.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# baselines


def cmd_baseline(args) -> int:
    instances = _load_dataset(args)
    chash = _config_hash(args)
    if args.kind == "greedy":
        for idx, inst in enumerate(instances):
            cc = inst.compiled
            colors, k_greedy = greedy_coloring(inst.n, zip(cc.edge_i.tolist(), cc.edge_k.tolist()))
            # greedy sees only the not-equal edges; the givens and the other
            # constraints decide too
            solved = (k_greedy <= inst.m and not np.any(cc.fixed_mask & (colors != cc.fixed_values))
                      and is_feasible(inst, colors))
            rec = {"instance": idx, "k_greedy": k_greedy, "k_posed": inst.m,
                   "solved_by_greedy": solved,
                   "seed": args.seed, "config": chash}
            print(json.dumps(rec, sort_keys=True))
        return EXIT_OK
    for idx, inst in enumerate(instances):
        counts = _from_args(direct_sgd_counts, inst=inst, runs=args.runs, steps=args.steps,
                            lr=args.lr, seed=args.seed + idx)
        rec = {"instance": idx, "satisfied_mean": float(np.mean(counts)),
               "satisfied": [int(c) for c in counts],
               "total_constraints": len(inst.constraints),
               "seed": args.seed, "config": chash}
        print(json.dumps(rec, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    ok = True

    def report(name, res):
        nonlocal ok
        ok = ok and res.passed
        print(f"gradcheck {name}: max_rel_err={res.max_rel_err:.3e} "
              f"{'pass' if res.passed else 'FAIL'}")

    rel = Tensor(rng.uniform(0.05, 0.95, size=(4, 3)))
    report("cardinality", grad_check(lambda x: pen_cardinality(x, [0, 1, 2], 1, 2), rel))
    rel3 = Tensor(rng.uniform(0.05, 0.95, size=(3, 3)))
    report("alldiff_exact", grad_check(lambda x: pen_alldiff_exact(x, [0, 1, 2]), rel3))
    rel2 = Tensor(rng.uniform(0.05, 0.95, size=(2, 3)))
    report("alldiff_atmost", grad_check(lambda x: pen_alldiff_atmost(x, [0, 1]), rel2))
    report("not_equal", grad_check(lambda x: pen_not_equal(x, 0, 1), rel2))

    x = Tensor(rng.normal(size=(5,)))
    report("gelu", grad_check(lambda t: T.gelu(t).sum(), x))
    coeff = Tensor(rng.normal(size=5))  # fixed projection, drawn once
    report("softmax", grad_check(lambda t: (T.softmax(t) * coeff).sum(), x))
    rows = Tensor(rng.normal(size=(3, 5)))
    gain, shift = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
    report("layer_norm", grad_check(lambda t: (T.layer_norm(t, gain, shift) * coeff).sum(), rows))
    w, b = Tensor(rng.normal(size=(5, 2))), Tensor(rng.normal(size=2))
    report("linear", grad_check(lambda t: T.square(T.linear(t, w, b)).sum(), rows))
    for name, res in _attention_grad_checks(rng):
        report(f"attention.{name}", res)
    for name, res in _model_grad_checks(rng):
        report(f"model.{name}", res)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _attention_grad_checks(rng: np.random.Generator):
    """``tensor.attention`` in float64 on 2 batch elements of 4 rows and 2
    heads of width 2, with queries from 2 of the rows, in the ``masked``
    mode and in the ``learned`` mode with its offset: every input against
    finite differences. Yields (name, report)."""
    keep = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]], dtype=bool)
    rows = np.array([[3, 0], [2, 1]])
    inputs = {"x": Tensor(rng.normal(size=(2, 4, 4)))}
    for name in ("wq", "wk", "wv", "wo"):
        inputs[name] = Tensor(rng.normal(size=(4, 4)))
    coeff = Tensor(rng.normal(size=(2, 2, 4)))  # fixed projection of the output
    for mode, offset in (("masked", None), ("learned", Tensor(np.float64(-0.7)))):
        args = dict(inputs) if offset is None else {**inputs, "offset": offset}
        for name in args:
            def f(t):
                a = {**args, name: t}
                return (T.attention(a["x"], a["wq"], a["wk"], a["wv"], a["wo"], 2, rows=rows,
                                    keep=keep, offset=a.get("offset")) * coeff).sum()

            yield f"{mode}.{name}", grad_check(f, args[name])


def _model_grad_checks(rng: np.random.Generator):
    """Criterion 03's end-to-end check: the penalty loss of one refinement
    step through ``forward`` on a 2-layer float64 toy model (one exact
    alldifferent over 4 variables), against finite differences in the
    input embedding and in a weight of each layer. Yields (name, report)."""
    inst = CspInstance(4, 4, tuple((i,) for i in range(4)),
                       (AllDifferentExact((0, 1, 2, 3)),), (None,) * 4)
    cfg = ModelConfig(layers=2, heads=2, d_model=8, select_p=0.5, rpe_mode="masked",
                      ape_mode="multi", tau=0.5, sampler="softmax", dropout=0.0, ffn_mult=2)
    w = init_weights(cfg, inst.m, rng, dtype=np.float64)
    ctx = InstanceContext.build(inst, cfg)
    program = LossProgram(inst)
    values = np.array([[0, 2, 2, 1]])
    selected = np.array([[True, True, False, True]])

    for name in ("embed", "l0.wq", "l1.w2"):
        def loss(x):
            w.params[name] = x
            return program.loss(forward(w, ctx, values, selected)).sum()

        x = Tensor(w[name].data.copy())
        yield name, grad_check(loss, x)
        w.params[name] = x


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="csprefine")
    sub = ap.add_subparsers(dest="command", required=True)
    # the flags that several subcommands share
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_non_negative_int, default=0)
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--dataset", required=True)
    dataset.add_argument("--format", choices=["jsonl", "sudoku"], default="jsonl")

    # a problem or model flag that is not given stays out of the namespace,
    # and _read_flags fills in its default
    g = sub.add_parser("generate", parents=[seed], help="generate a dataset",
                       argument_default=argparse.SUPPRESS)
    g.add_argument("--problem", required=True, choices=list(_PROBLEMS))
    g.add_argument("--count", type=_positive_int, required=True)
    g.add_argument("--n", type=_graph_size, help="vertex count (coloring/maxcut)")
    g.add_argument("--days", type=_positive_int)
    g.add_argument("--shifts", type=_positive_int)
    g.add_argument("--per-shift", type=_positive_int)
    g.add_argument("--nurses", type=_positive_int)
    g.add_argument("--fixed-k", type=int)
    g.add_argument("--pose-at-greedy", action="store_true")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", parents=[dataset, seed], help="train a refiner",
                       argument_default=argparse.SUPPRESS)
    t.add_argument("--out", required=True)
    t.add_argument("--resume", default=None,
                   help="start from these weights, with fresh optimizer moments")
    t.add_argument("--batch-size", type=int, default=64)
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--lr", type=float, default=1e-4)
    t.add_argument("--weight-decay", type=float, default=0.01)
    t.add_argument("--grad-clip", type=float, default=None)
    t.add_argument("--layers", type=int)
    t.add_argument("--heads", type=int)
    t.add_argument("--d-model", type=int)
    t.add_argument("--p", type=float, help="variable selection probability, in [0.001, 1]")
    t.add_argument("--rpe", choices=RPE_MODES)
    t.add_argument("--ape", choices=APE_MODES)
    t.add_argument("--tau", type=float)
    t.add_argument("--sampler", choices=SAMPLERS)
    t.add_argument("--dropout", type=float)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("solve", parents=[dataset, seed],
                       help="solve instances with trained weights")
    s.add_argument("--weights", required=True)
    s.add_argument("--iters", type=int, default=None)
    s.add_argument("--time-ms", type=float, default=None)
    s.add_argument("--pool", type=_positive_int, default=1,
                   help="candidates per instance; candidate 0 replays --pool 1")
    s.add_argument("--report", default=None, help="write report here instead of stdout")
    s.add_argument("--report-format", choices=["jsonl", "csv"], default="jsonl")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("baseline", parents=[dataset, seed], help="non-neural baselines")
    b.add_argument("--kind", required=True, choices=["greedy", "direct-sgd"])
    b.add_argument("--runs", type=_positive_int, default=1)
    b.add_argument("--steps", type=_positive_int, default=10000)
    b.add_argument("--lr", type=float, default=0.1)
    b.set_defaults(func=cmd_baseline)

    c = sub.add_parser("gradcheck", parents=[seed], help="finite-difference gradient suite")
    c.set_defaults(func=cmd_gradcheck)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, DomainMismatch, ArityMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError,) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CspError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
