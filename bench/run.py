"""csprefine benchmark: one workload, one process, one JSON result line.

    python3 bench/run.py --workload coloring20 --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``. ``--trace 0`` measures the end-to-end metrics, ``--trace 1``
measures every phase once without and once with the span tracer and
reports the per-layer metrics and the tracing overhead. Every metric is
printed by name with its unit; the last line of standard output is the
JSON result. Per-run details, provenance and the spans go to ``--out``.
See README.md beside this file.
"""

import os

# before numpy is imported anywhere: one BLAS thread, or timings are noise
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
POOLS = (1, 10)

# Typical wall time of ``probe`` on the 2-vCPU VM that the bounds were set
# on (fast spells read about 15 ms). Every timed metric is scaled to the
# speed at which the probe takes this long: see probe.
PROBE_S = 0.020
_PROBE_A = np.random.default_rng(0).random((64, 64))
_PROBE_BIG = np.random.default_rng(0).random(1 << 19)  # 4 MiB, past the L2 cache
_PROBE_OUT = np.empty_like(_PROBE_BIG)

END_TO_END = {
    # name: unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_samples_per_s": "1/s",
    "solve_rounds_per_s.pool10": "1/s",
}

PER_LAYER = {
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "self_ms.tensor": "ms",
    "self_ms.csp": "ms",
    "self_ms.penalty": "ms",
    "self_ms.model": "ms",
    "self_ms.train": "ms",
    "self_ms.solve": "ms",
    "self_ms.data": "ms",
    "tensor.backward_ms": "ms",
    "tensor.tape_ops": "count",
    "tensor.gelu_ms": "ms",
    "tensor.matmul_ms": "ms",
    "tensor.softmax_ms": "ms",
    "model.forward_ms.train": "ms",
    "model.forward_ms.solve": "ms",
    "model.forward_calls": "count",
    "penalty.loss_ms": "ms",
    "penalty.compile_ms": "ms",
    "train.step_ms": "ms",
    "train.optimizer_ms": "ms",
    "train.forwards_per_step": "count",
    "train.prepare_s": "s",
    "solve.round_ms.pool1": "ms",
    "solve.round_ms.pool10": "ms",
    "solve.sample_ms.pool1": "ms",
    "solve.sample_ms.pool10": "ms",
    "solve.checker_ms": "ms",
    "solve.rounds_used.pool10.p50": "count",
    "csp.build_ms": "ms",
    "csp.constraint_graph_ms": "ms",
    "data.generate_s": "s",
    "data.roundtrip_ms": "ms",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the test that keeps the benchmark working")
    p.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                   help="directory for the details file, spans and scratch files")
    return p.parse_args(argv)


def import_package():
    """Import csprefine from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "csprefine" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no csprefine sources under {src}")
    sys.path.insert(0, str(src))
    import csprefine

    if Path(csprefine.__file__).resolve().parent != (src / "csprefine").resolve():
        raise SystemExit(f"benchmark: imported csprefine from {csprefine.__file__}, not {src}")


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def provenance(args):
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(), "platform": platform.platform(),
    }


def keep_freed_memory() -> bool:
    """Stop glibc malloc from handing freed memory back to the kernel.

    By default glibc unmaps large freed blocks and trims the heap top, so
    the next allocation page-faults the memory in again. How much it gives
    back varies: the minor faults of identical maxcut100 epochs ranged
    from 43k to 120k, and their kernel time from a sixth to two fifths of
    the epoch's wall time. With these limits the process reuses its freed
    memory, so a timed round does no page faults once warm, at about 2%
    more peak RSS. Returns False where there is no glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    # 32 MiB is the largest mmap threshold glibc accepts on 64-bit
    return bool(mallopt(m_trim_threshold, 1 << 30) and mallopt(m_mmap_threshold, 1 << 25))


def probe() -> float:
    """The speed of this CPU now, as PROBE_S over the time of a fixed mix of
    small matmuls, elementwise numpy, interpreter work and streaming over
    an array larger than the L2 cache.

    A shared machine runs in spells of 0.6 to 1.0 times full speed that
    last seconds to minutes, too long for medians over one run to remove.
    Each set-up and each round is timed right after a probe, and its time
    is multiplied (its rates divided) by the speed the probe read. See
    README.md for how closely the workloads follow the probe.
    """
    t0 = time.perf_counter()
    for _ in range(160):
        np.exp(-1e-3 * (_PROBE_A @ _PROBE_A)).sum()
        [dict(a=i) for i in range(100)]
        sum(i * i for i in range(300))
    for _ in range(12):
        np.multiply(_PROBE_BIG, 1.0001, out=_PROBE_OUT).sum()
    return PROBE_S / (time.perf_counter() - t0)


def main(argv=None) -> int:
    args = parse_args(argv)
    kept = keep_freed_memory()
    import_package()
    import workloads as W
    from spans import LAYERS, Tracer

    if args.workload not in W.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(W.WORKLOADS)}")
    wl = W.smoke(W.WORKLOADS[args.workload]) if args.smoke else W.WORKLOADS[args.workload]
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    seed = args.seed
    tracer = Tracer() if args.trace else None
    failed: list[str] = []  # every failed check, for the details file
    attempted = failed_ops = 0

    def record(bad: list[str]):
        """One operation and the checks on its outputs that failed."""
        nonlocal attempted, failed_ops
        attempted += 1
        failed.extend(bad)
        failed_ops += bool(bad)

    def check(ok: bool, what: str):
        """A check across operations; a failure counts as one failed op."""
        nonlocal failed_ops
        if not ok:
            failed.append(what)
            failed_ops += 1

    def traced(run: str):
        return tracer.phase(run) if tracer is not None and tracer.installed else nullcontext()

    # -- set-up; the first result is the one used, the others must equal it ------
    setup_s, setup_speed = [], []  # wall seconds, probe speed around each

    def timed_setup():
        before = probe()
        t0 = time.perf_counter()
        new = W.setup(wl, seed, out)
        setup_s.append(time.perf_counter() - t0)
        # a set-up lasts up to seconds, so read the speed on both sides
        setup_speed.append((before + probe()) / 2)
        record(new.failed)
        return new

    s = timed_setup()

    # -- the training run whose weights are deployed ---------------------------
    t_start = time.perf_counter()
    full, bad = W.train_run(wl, s, seed)
    record(bad)
    weights = full["weights"] if wl.deploy_trained else s.weights

    # -- rounds: one timed train epoch, then one group of solves per pool ---------
    # Interleaving spreads every phase over the whole run, so that the
    # machine's slow and fast spells weigh on all metrics alike. The
    # repeated set-ups are spread over the run the same way.
    groups = [list(range(i, min(i + wl.group, wl.held_count)))
              for i in range(0, wl.held_count, wl.group)]
    rates = {"train": [], **{f"solve.pool{p}": [] for p in POOLS}}
    first: dict[int, dict[int, dict]] = {p: {} for p in POOLS}  # pool -> instance -> record
    chunk_losses = []
    speed = []  # probe speed before each round

    def setup_again():
        elapsed = time.perf_counter() - t_start
        due = (wl.setup_reps if elapsed >= args.seconds
               else 1 + (wl.setup_reps - 1) * elapsed / args.seconds)
        if len(setup_s) < due:
            o = timed_setup()
            check(o.train == s.train and o.held == s.held and W.same_weights(o.weights, s.weights),
                  "set-up is not deterministic for one seed")

    def one_round(idx):
        speed.append(probe())
        with traced("train"):
            wall, loss, bad = W.train_epoch(wl, s, seed)
        record(bad)
        chunk_losses.append(loss)
        rates["train"].append(wl.chunk / wall)
        for pool in POOLS:
            with traced(f"solve.pool{pool}"):
                recs, bad = W.solve_group(wl, s, weights, pool, seed, idx)
            record(bad)
            rates[f"solve.pool{pool}"].append(
                sum(r["rounds"] for r in recs) / sum(r["wall_s"] for r in recs))
            for j, r in zip(idx, recs):
                ref = first[pool].setdefault(j, r)
                check(W.same_outcome(r, ref), f"instance {j} pool {pool}: a repeated solve differs")

    pass_s = []
    if tracer is None:
        done = False
        while not done:
            t0 = time.perf_counter()
            for idx in groups:
                setup_again()
                one_round(idx)
                if pass_s and time.perf_counter() - t_start >= args.seconds:
                    done = True
                    break
            else:
                pass_s.append(time.perf_counter() - t0)
                done = time.perf_counter() - t_start >= args.seconds
    else:
        # one pass untraced, then set-up and one pass traced
        t0 = time.perf_counter()
        for idx in groups:
            one_round(idx)
        pass_s.append(time.perf_counter() - t0 + setup_s[0])
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.phase("setup"):
                W.setup(wl, seed, out, tracer)
            for idx in groups:
                one_round(idx)
            pass_s.append(time.perf_counter() - t0)
        finally:
            tracer.remove()
    check(all(x == chunk_losses[0] for x in chunk_losses),
          "training is not deterministic for one seed")
    for j in range(wl.held_count):
        check(first[10][j]["feasible"] or not first[1][j]["feasible"],
              f"instance {j}: pool 10 failed where pool 1 (its candidate 0) succeeded")

    # -- metrics ---------------------------------------------------------------------
    def at_speed(rate):
        return statistics.median(r / v for r, v in zip(rates[rate], speed))

    detail = {
        "train_loss_history": full["history"],
        "setup_steps_s": s.seconds,
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "measured_s": time.perf_counter() - t_start,
        "rounds_run": len(rates["train"]),
        "speed": speed,
        "speed_median": statistics.median(speed),
        "wall.setup_s": statistics.median(setup_s),
        "wall.train_samples_per_s": statistics.median(rates["train"]),
        "malloc_keeps_freed_memory": kept,
    }
    detail.update({f"rates.{k}": v for k, v in rates.items()})
    for pool in POOLS:
        detail[f"wall.solve_rounds_per_s.pool{pool}"] = statistics.median(rates[f"solve.pool{pool}"])
        detail[f"solve_rounds_per_s.pool{pool}"] = at_speed(f"solve.pool{pool}")
        recs = [first[pool][j] for j in range(wl.held_count)]
        n = len(recs)
        ttf = [r["wall_s"] * 1000.0 if r["feasible"] else float("inf") for r in recs]
        detail[f"solve_rate.pool{pool}"] = sum(r["feasible"] for r in recs) / n
        for q in (50, 90):
            detail[f"ttf_ms.pool{pool}.p{q}"] = W.percentile(ttf, q / 100)
        detail[f"ttf_ms.pool{pool}.samples"] = n
        detail[f"rounds_used.pool{pool}.p50"] = statistics.median([r["rounds"] for r in recs])
        if recs[0]["objective"] is not None:
            detail[f"cut_mean.pool{pool}"] = sum(r["objective"] for r in recs) / n

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(t * v for t, v in zip(setup_s, setup_speed)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train_samples_per_s": at_speed("train"),
        }
        metrics["solve_rounds_per_s.pool10"] = detail["solve_rounds_per_s.pool10"]
        units = END_TO_END
    else:
        rounds = {p: sum(r["rounds"] for r in first[p].values()) for p in POOLS}
        metrics, units = layer_metrics(tracer, LAYERS, pass_s, rounds, first), PER_LAYER
        detail.update(cut_figures(tracer, rounds))
        tracer.write(out / f"{tag}.spans.jsonl.gz")
        detail["trace.missing_targets"] = tracer.missing

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in detail.items():
        if not isinstance(value, (list, dict)):
            print(f"  detail {name} = {value}")
    for bad in failed:
        print(f"CHECK FAILED: {bad}", file=sys.stderr)

    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": min(failed_ops, attempted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (out / f"{tag}.json").write_text(json.dumps(
        {"provenance": provenance(args), "result": result, "detail": detail,
         "failed_checks": failed}, indent=1, default=float))
    print(json.dumps(result))
    return 0


def cut_figures(tracer, rounds):
    """The cut value's cost on maximization workloads, which no gated
    workload has; as details, since they read 0 everywhere else."""
    by_name, _ = tracer.totals()
    cut = [v for (r, n), v in by_name.items() if n == "solve.cut" and r.startswith("solve.")]
    return {
        "solve.cut_ms": 1e3 * sum(v[0] for v in cut) / max(1, sum(rounds.values())),
        "solve.cut_calls": sum(v[1] for v in cut),
    }


def layer_metrics(tracer, layers, pass_s, rounds, first):
    """Per-layer metrics from the traced pass; pass_s is (untraced, traced)."""
    by_name, self_s = tracer.totals()

    def total(name, runs=None):
        return sum(v[0] for (r, n), v in by_name.items() if n == name and (runs is None or r in runs))

    def calls(name, runs=None):
        return sum(v[1] for (r, n), v in by_name.items() if n == name and (runs is None or r in runs))

    def per(x, n):
        return x / n if n else 0.0

    steps = calls("train.optimizer", {"train"})
    solves = {f"solve.pool{p}" for p in POOLS}
    m = {
        "trace.overhead_pct": 100.0 * (pass_s[1] / pass_s[0] - 1.0),
        "trace.spans": len(tracer.spans),
        "tensor.backward_ms": 1e3 * per(total("tensor.backward", {"train"}), steps),
        "tensor.tape_ops": per(tracer.counts["tape_ops"], steps),
        "tensor.gelu_ms": 1e3 * total("tensor.gelu"),
        "tensor.matmul_ms": 1e3 * total("tensor.matmul"),
        "tensor.softmax_ms": 1e3 * total("tensor.softmax"),
        "model.forward_ms.train": 1e3 * per(total("model.forward.train"), calls("model.forward.train")),
        "model.forward_ms.solve": 1e3 * per(total("model.forward.solve"), calls("model.forward.solve")),
        "model.forward_calls": calls("model.forward.train") + calls("model.forward.solve"),
        "penalty.loss_ms": 1e3 * per(total("penalty.loss", {"train"}), steps),
        "penalty.compile_ms": 1e3 * total("penalty.compile"),
        "train.step_ms": 1e3 * per(total("train.epoch", {"train"}), steps),
        "train.optimizer_ms": 1e3 * per(total("train.optimizer", {"train"}), steps),
        "train.forwards_per_step": per(calls("model.forward.train", {"train"}), steps),
        "train.prepare_s": per(total("train.prepare"), calls("train.prepare")),
        "solve.checker_ms": 1e3 * per(total("solve.checker", solves), sum(rounds.values())),
        "solve.rounds_used.pool10.p50": float(statistics.median(r["rounds"] for r in first[10].values())),
        "csp.build_ms": 1e3 * total("csp.build", {"setup"}),
        "csp.constraint_graph_ms": 1e3 * total("csp.constraint_graph"),
        "data.generate_s": total("setup.generate", {"setup"}),
        "data.roundtrip_ms": 1e3 * total("setup.roundtrip", {"setup"}),
    }
    for p in POOLS:
        run = {f"solve.pool{p}"}
        m[f"solve.round_ms.pool{p}"] = 1e3 * per(total("solve.multi_start", run), rounds[p])
        m[f"solve.sample_ms.pool{p}"] = 1e3 * per(
            total("model.select_subset", run) + total("model.gumbel_noise", run), rounds[p])
    for layer in layers:
        m[f"self_ms.{layer}"] = 1e3 * self_s.get(layer, 0.0)
    return {k: m[k] for k in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
