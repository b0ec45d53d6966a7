"""CLI tests: each subcommand end to end on tiny inputs, exit codes, and
report formats."""

import importlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csprefine
from csprefine import data
from csprefine.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from csprefine.csp import build_graph_coloring
from csprefine.data import load_instances, load_weights, save_instances, save_sudoku, save_weights
from csprefine.model import ModelConfig, init_weights
from csprefine.train import TrainConfig, train
from conftest import sudoku_puzzle, toy_alldiff


def _generate_coloring(tmp_path, count=4, n=8, seed=0):
    # fixed k keeps the domain size identical across the dataset so one
    # model can train on every instance
    out = tmp_path / "ds"
    rc = main([
        "generate", "--problem", "coloring", "--count", str(count),
        "--n", str(n), "--seed", str(seed), "--pose-at-greedy",
        "--fixed-k", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    return out / "instances.jsonl"


def test_generate_writes_dataset_and_manifest(tmp_path, capsys):
    path = _generate_coloring(tmp_path)
    assert path.exists()
    assert (path.parent / "manifest.txt").exists()
    assert len(load_instances(path)) == 4
    assert "wrote 4 coloring instances" in capsys.readouterr().out


def test_generate_nurse_and_maxcut(tmp_path):
    rc = main([
        "generate", "--problem", "nurse", "--count", "2", "--days", "2",
        "--shifts", "2", "--per-shift", "1", "--nurses", "3",
        "--out", str(tmp_path / "nurse"),
    ])
    assert rc == EXIT_OK
    rc = main([
        "generate", "--problem", "maxcut", "--count", "2", "--n", "6",
        "--out", str(tmp_path / "mc"),
    ])
    assert rc == EXIT_OK
    insts = load_instances(tmp_path / "mc" / "instances.jsonl")
    assert all(i.mode == "maximization" for i in insts)


def test_generate_rejects_a_flag_its_problem_never_reads(tmp_path, capsys):
    out = tmp_path / "gen"
    rc = main(["generate", "--problem", "nurse", "--count", "1", "--n", "5", "--fixed-k", "3",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: --problem nurse does not read --fixed-k, --n\n"
    assert not out.exists()
    # a problem's own flags keep their documented defaults
    for problem, n in (("nurse", 10 * 3 * 3), ("maxcut", 50), ("coloring", 50)):
        assert main(["generate", "--problem", problem, "--count", "1",
                     "--out", str(out / problem)]) == EXIT_OK
        assert load_instances(out / problem / "instances.jsonl")[0].n == n


def _solve_config(weights, dataset, capsys) -> str:
    capsys.readouterr()
    assert main(["solve", "--weights", str(weights), "--dataset", str(dataset),
                 "--iters", "1"]) == EXIT_OK
    return json.loads(capsys.readouterr().out.splitlines()[-1])["config"]


def test_config_hash_follows_the_input_file_bytes(tmp_path, capsys):
    dataset = _generate_coloring(tmp_path, count=2, n=5)
    cfg = ModelConfig(layers=1, heads=1, d_model=4, ape_mode="none", ffn_mult=1)
    path = tmp_path / "model.bin"
    configs = []
    for seed in (0, 1, 0):  # retrained in place, then restored
        save_weights(init_weights(cfg, 3, np.random.default_rng(seed)), path)
        configs.append(_solve_config(path, dataset, capsys))
    assert configs[0] != configs[1]
    assert configs[0] == configs[2]
    # the baselines hash their dataset's bytes
    hashes = []
    for seed in (0, 1):
        _generate_coloring(tmp_path, count=2, n=5, seed=seed)
        capsys.readouterr()
        assert main(["baseline", "--kind", "greedy", "--dataset", str(dataset)]) == EXIT_OK
        hashes.append(json.loads(capsys.readouterr().out.splitlines()[-1])["config"])
    assert hashes[0] != hashes[1]


def _train_tiny(tmp_path, dataset, out_name="model.bin", extra=()):
    out = tmp_path / out_name
    rc = main([
        "train", "--dataset", str(dataset), "--out", str(out),
        "--epochs", "2", "--batch-size", "4", "--lr", "1e-3",
        "--layers", "1", "--heads", "1", "--d-model", "16",
        "--ape", "none", "--dropout", "0.0", "--seed", "1",
        *extra,
    ])
    assert rc == EXIT_OK
    return out


def test_train_and_solve_round_trip(tmp_path, capsys):
    dataset = _generate_coloring(tmp_path, count=4, n=6, seed=3)
    model = _train_tiny(tmp_path, dataset)
    capsys.readouterr()
    rc = main([
        "solve", "--weights", str(model), "--dataset", str(dataset),
        "--iters", "30", "--seed", "7",
    ])
    assert rc == EXIT_OK
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    records, summary = lines[:-1], lines[-1]
    assert len(records) == 4
    assert summary["summary"] is True
    assert summary["total"] == 4
    assert summary["solved"] == sum(r["feasible"] for r in records)
    assert all("seed" in r and "config" in r for r in records)


def test_solve_report_file_and_csv(tmp_path):
    dataset = _generate_coloring(tmp_path, count=3, n=6, seed=4)
    model = _train_tiny(tmp_path, dataset)
    report = tmp_path / "report.csv"
    rc = main([
        "solve", "--weights", str(model), "--dataset", str(dataset),
        "--iters", "10", "--report", str(report), "--report-format", "csv",
    ])
    assert rc == EXIT_OK
    rows = report.read_text().strip().splitlines()
    assert rows[0].split(",")[0] == "config"
    assert len(rows) == 1 + 3 + 1  # header, records, summary


def test_solve_pool_flag(tmp_path):
    dataset = _generate_coloring(tmp_path, count=2, n=6, seed=5)
    model = _train_tiny(tmp_path, dataset)
    rc = main([
        "solve", "--weights", str(model), "--dataset", str(dataset),
        "--iters", "10", "--pool", "3",
    ])
    assert rc == EXIT_OK


def test_solve_bigger_pool_solves_a_superset(tmp_path, capsys):
    # --pool 1 is candidate 0 of --pool 3 with the same seed
    dataset = _generate_coloring(tmp_path, count=8, n=8, seed=5)
    model = _train_tiny(tmp_path, dataset)
    solved = {}
    for pool in (1, 3):
        capsys.readouterr()
        rc = main([
            "solve", "--weights", str(model), "--dataset", str(dataset),
            "--iters", "20", "--pool", str(pool), "--seed", "4",
        ])
        assert rc == EXIT_OK
        recs = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()[:-1]]
        solved[pool] = {r["instance"] for r in recs if r["feasible"]}
    assert solved[1]  # the comparison means something
    assert solved[1] <= solved[3]


def test_solve_pool_must_be_positive():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--weights", "w.bin", "--dataset", "d.jsonl", "--pool", "0"])
    assert exc.value.code == 2


def test_solve_rerun_reproduces_report(tmp_path):
    dataset = _generate_coloring(tmp_path, count=3, n=6, seed=6)
    model = _train_tiny(tmp_path, dataset)
    reports = []
    path = tmp_path / "report.jsonl"
    for _ in range(2):
        rc = main([
            "solve", "--weights", str(model), "--dataset", str(dataset),
            "--iters", "15", "--seed", "2", "--report", str(path),
        ])
        assert rc == EXIT_OK
        recs = [json.loads(l) for l in path.read_text().strip().splitlines()]
        for r in recs:
            r.pop("elapsed_ms", None)  # wall clock may differ
        reports.append(recs)
    assert reports[0] == reports[1]


def test_cli_train_writes_the_bytes_of_the_api(tmp_path):
    # one seed names one model: the CLI draws its weights through train()
    dataset = _generate_coloring(tmp_path, count=4, n=6, seed=8)
    model = _train_tiny(tmp_path, dataset)
    mcfg = ModelConfig(layers=1, heads=1, d_model=16, select_p=0.5, rpe_mode="masked",
                       ape_mode="none", tau=0.1, sampler="gumbel", dropout=0.0)
    tcfg = TrainConfig(batch_size=4, epochs=2, lr=1e-3, weight_decay=0.01, seed=1)
    api = tmp_path / "api.bin"
    save_weights(train(load_instances(dataset), mcfg, tcfg).load_best(), api)
    assert model.read_bytes() == api.read_bytes()


def test_train_resume_starts_from_the_loaded_weights(tmp_path):
    # --resume is train(..., weights=load_weights(path)): fresh moments, rng from --seed
    dataset = _generate_coloring(tmp_path, count=4, n=6, seed=8)
    model = _train_tiny(tmp_path, dataset)
    rc = main([
        "train", "--dataset", str(dataset), "--out", str(tmp_path / "model2.bin"),
        "--resume", str(model), "--epochs", "1", "--batch-size", "4",
        "--lr", "1e-3", "--seed", "2",
    ])
    assert rc == EXIT_OK
    start = load_weights(model)
    tcfg = TrainConfig(batch_size=4, epochs=1, lr=1e-3, seed=2)
    api = tmp_path / "api.bin"
    save_weights(train(load_instances(dataset), start.config, tcfg, weights=start).load_best(), api)
    assert (tmp_path / "model2.bin").read_bytes() == api.read_bytes()


def test_sudoku_format_flag(tmp_path, capsys):
    path = tmp_path / "puzzles.sudoku"
    save_sudoku([sudoku_puzzle(30, 0)], path)
    model = _train_tiny(tmp_path, path, extra=("--format", "sudoku"))
    capsys.readouterr()
    rc = main([
        "solve", "--weights", str(model), "--dataset", str(path),
        "--format", "sudoku", "--iters", "3",
    ])
    assert rc == EXIT_OK


def test_baseline_greedy(tmp_path, capsys):
    dataset = _generate_coloring(tmp_path, count=3, n=6, seed=9)
    capsys.readouterr()
    rc = main(["baseline", "--kind", "greedy", "--dataset", str(dataset)])
    assert rc == EXIT_OK
    recs = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(recs) == 3
    # posed at greedy k, so greedy itself solves every instance
    assert all(r["solved_by_greedy"] for r in recs)
    assert all(r["k_greedy"] <= r["k_posed"] == 3 for r in recs)


def test_baseline_greedy_checks_every_constraint(tmp_path, capsys):
    # the greedy coloring of the not-equal edges fits in the domain, but
    # it breaks the nurse alldifferent constraints
    rc = main([
        "generate", "--problem", "nurse", "--count", "2", "--days", "2",
        "--shifts", "2", "--per-shift", "1", "--nurses", "3",
        "--out", str(tmp_path / "nurse"),
    ])
    assert rc == EXIT_OK
    capsys.readouterr()
    rc = main(["baseline", "--kind", "greedy",
               "--dataset", str(tmp_path / "nurse" / "instances.jsonl")])
    assert rc == EXIT_OK
    recs = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(recs) == 2
    assert all(r["k_greedy"] <= r["k_posed"] for r in recs)
    assert not any(r["solved_by_greedy"] for r in recs)


def test_baseline_direct_sgd(tmp_path, capsys):
    path = tmp_path / "toy.jsonl"
    save_instances([toy_alldiff(4)], path)
    rc = main([
        "baseline", "--kind", "direct-sgd", "--dataset", str(path),
        "--runs", "2", "--steps", "30", "--lr", "0.5",
    ])
    assert rc == EXIT_OK
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["total_constraints"] == 1
    assert len(rec["satisfied"]) == 2


def test_baseline_direct_sgd_rejects_maxcut(tmp_path, capsys):
    rc = main(["generate", "--problem", "maxcut", "--count", "1", "--n", "6",
               "--out", str(tmp_path / "mc")])
    assert rc == EXIT_OK
    capsys.readouterr()
    rc = main(["baseline", "--kind", "direct-sgd", "--steps", "5",
               "--dataset", str(tmp_path / "mc" / "instances.jsonl")])
    assert rc == EXIT_USAGE
    assert "satisfaction" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--seed", "0"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass") == 22
    assert "gradcheck layer_norm" in out and "gradcheck linear" in out
    for mode, inputs in (("masked", "x wq wk wv wo"), ("learned", "x wq wk wv wo offset")):
        for name in inputs.split():
            assert f"gradcheck attention.{mode}.{name}:" in out
    assert "gradcheck model.embed" in out and "gradcheck model.l1.w2" in out
    assert "FAIL" not in out


def test_package_runs_without_scipy():
    # numpy is the only runtime dependency: block scipy before the first import
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import csprefine.cli\n"
        "sys.exit(csprefine.cli.main(['gradcheck']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(csprefine.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == EXIT_OK, done.stderr


def test_missing_dataset_is_io_error(tmp_path, capsys):
    rc = main([
        "baseline", "--kind", "greedy", "--dataset", str(tmp_path / "nope.jsonl"),
    ])
    assert rc == EXIT_IO
    assert "error" in capsys.readouterr().err


def test_missing_weights_is_io_error(tmp_path, capsys):
    dataset = _generate_coloring(tmp_path, count=2, n=5, seed=0)
    rc = main([
        "solve", "--weights", str(tmp_path / "no.bin"), "--dataset", str(dataset),
        "--iters", "5",
    ])
    assert rc == EXIT_IO


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--n", "20", "--fixed-k", "2"],
    ["--n", "20", "--fixed-k", "20", "--pose-at-greedy"],
])
def test_generate_with_an_unposable_fixed_k_exits_3(tmp_path, capsys, monkeypatch, flags):
    # the first is outside what posing gives; the second needs K20, which no
    # generator draws, so a small draw cap keeps the test short
    monkeypatch.setattr(data, "MAX_REJECTED_DRAWS", 50)
    rc = main(["generate", "--problem", "coloring", "--count", "1", *flags,
               "--out", str(tmp_path / "ds")])
    assert rc == EXIT_IO
    assert "k=" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_train_on_mixed_domain_sizes_is_a_compatibility_error(tmp_path, capsys):
    # without --fixed-k the generated instances have m = [6, 3, 3, 3, 3, 3]
    out = tmp_path / "mixed"
    rc = main(["generate", "--problem", "coloring", "--count", "6", "--n", "10",
               "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    assert len({inst.m for inst in load_instances(out / "instances.jsonl")}) > 1
    capsys.readouterr()
    rc = main(["train", "--dataset", str(out / "instances.jsonl"),
               "--out", str(tmp_path / "m.bin"), "--epochs", "1", "--layers", "1",
               "--heads", "1", "--d-model", "16"])
    assert rc == EXIT_IO
    assert "domain values" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_solve_with_weights_of_another_domain_size(tmp_path, capsys):
    model = _train_tiny(tmp_path, _generate_coloring(tmp_path, count=2, n=6))
    out = tmp_path / "k4"
    rc = main(["generate", "--problem", "coloring", "--count", "2", "--n", "6",
               "--fixed-k", "4", "--out", str(out)])
    assert rc == EXIT_OK
    capsys.readouterr()
    rc = main(["solve", "--weights", str(model), "--dataset", str(out / "instances.jsonl"),
               "--iters", "5"])
    assert rc == EXIT_IO
    assert "domain values" in capsys.readouterr().err


def test_train_on_mixed_sizes(tmp_path, capsys):
    dataset = tmp_path / "mixed.jsonl"
    save_instances([build_graph_coloring(n, [(0, 1), (1, 2)], 3) for n in (4, 5, 4, 6)], dataset)
    model = _train_tiny(tmp_path, dataset, extra=("--ape", "multi", "--batch-size", "3"))
    assert load_weights(model).domain_size == 3
    assert "trained 2 epochs" in capsys.readouterr().out


def test_train_on_empty_dataset_is_an_io_error(tmp_path, capsys):
    dataset = tmp_path / "empty.jsonl"
    dataset.write_text("")
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "e.bin"),
               "--epochs", "1"])
    assert rc == EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "e.bin").exists()


def test_index_arity_that_does_not_divide_d_model_is_a_compatibility_error(tmp_path, capsys):
    # nurse variables are indexed (day, shift, slot): arity 3 does not divide 16
    out = tmp_path / "nurse"
    rc = main(["generate", "--problem", "nurse", "--count", "2", "--days", "2",
               "--shifts", "2", "--per-shift", "1", "--nurses", "3", "--out", str(out)])
    assert rc == EXIT_OK
    nurse = out / "instances.jsonl"
    capsys.readouterr()
    rc = main(["train", "--dataset", str(nurse), "--out", str(tmp_path / "n.bin"),
               "--epochs", "1", "--layers", "1", "--heads", "1", "--d-model", "16",
               "--ape", "multi"])
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "index arity 3" in err
    assert not (tmp_path / "n.bin").exists()
    # 3-valued weights with the multi table, trained on arity-1 coloring
    model = _train_tiny(tmp_path, _generate_coloring(tmp_path, count=2, n=5),
                        extra=("--ape", "multi"))
    capsys.readouterr()
    rc = main(["solve", "--weights", str(model), "--dataset", str(nurse), "--iters", "5"])
    assert rc == EXIT_IO
    assert "index arity 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve"],  # neither --iters nor --time-ms
    ["solve", "--iters", "0"],
    ["solve", "--time-ms", "nan"],
    ["train", "--batch-size", "0"],
    ["train", "--heads", "3", "--d-model", "8"],
    ["train", "--tau", "nan"],
    ["train", "--dropout", "1"],
    ["train", "--lr", "nan"],
    ["train", "--weight-decay", "inf"],
    ["train", "--grad-clip", "nan"],
    ["train", "--grad-clip", "0"],
    ["train", "--weight-decay", "-5"],
    ["generate", "--problem", "coloring", "--count", "-1"],
    ["baseline", "--runs", "0"],
    ["baseline", "--steps", "0"],
    ["baseline", "--lr", "nan"],
    ["baseline", "--lr", "0"],
    ["solve", "--iters", "1", "--seed", "-1"],
    ["train", "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
    ["baseline", "--seed", "-1"],
    ["generate", "--problem", "coloring", "--count", "1", "--seed", "-1"],
    ["generate", "--problem", "coloring", "--count", "1", "--n", "0"],
    ["generate", "--problem", "coloring", "--count", "1", "--n", "-3"],
    ["generate", "--problem", "coloring", "--count", "1", "--n", "1"],
    ["generate", "--problem", "maxcut", "--count", "1", "--n", "0"],
    ["generate", "--problem", "nurse", "--count", "1", "--days", "0"],
    ["generate", "--problem", "nurse", "--count", "1", "--shifts", "0"],
    ["generate", "--problem", "nurse", "--count", "1", "--per-shift", "-1"],
    ["generate", "--problem", "nurse", "--count", "1", "--nurses", "0"],
    ["generate", "--problem", "nurse", "--count", "1", "--fixed-k=0"],
    ["generate", "--problem", "maxcut", "--count", "1", "--fixed-k=-1"],
    ["generate", "--problem", "coloring", "--count", "1", "--days", "3"],
    ["generate", "--problem", "nurse", "--count", "1", "--n", "5"],
    ["generate", "--problem", "maxcut", "--count", "1", "--pose-at-greedy"],
    ["generate", "--problem", "maxcut", "--count", "1", "--nurses", "4"],
    ["train", "--rpe", "none"],
    ["train", "--ape", "1d"],
    ["train", "--p", "1e-300"],
], ids=["solve-no-budget", "solve-zero-iters", "solve-nan-time", "train-zero-batch",
        "train-heads-d-model", "train-nan-tau", "train-dropout-one", "train-nan-lr",
        "train-inf-weight-decay", "train-nan-grad-clip", "train-zero-grad-clip",
        "train-negative-weight-decay", "generate-negative-count", "baseline-zero-runs",
        "baseline-zero-steps", "baseline-nan-lr", "baseline-zero-lr", "solve-negative-seed",
        "train-negative-seed", "gradcheck-negative-seed", "baseline-negative-seed",
        "generate-negative-seed", "generate-coloring-zero-n", "generate-coloring-negative-n",
        "generate-coloring-one-vertex", "generate-maxcut-zero-n", "generate-nurse-zero-days",
        "generate-nurse-zero-shifts", "generate-nurse-negative-per-shift",
        "generate-nurse-zero-nurses", "generate-nurse-fixed-k", "generate-maxcut-fixed-k",
        "generate-coloring-days", "generate-nurse-n", "generate-maxcut-pose-at-greedy",
        "generate-maxcut-nurses", "train-rpe-none", "train-ape-1d",
        "train-tiny-p"])
def test_rejected_configuration_is_a_usage_error(tmp_path, capsys, argv):
    dataset = _generate_coloring(tmp_path, count=2, n=5)
    out = tmp_path / "model.bin"
    # solve never reads its weights here: it rejects the budget first
    target = {"solve": ["--dataset", str(dataset), "--weights", str(out)],
              "train": ["--dataset", str(dataset), "--out", str(out)],
              "generate": ["--out", str(out)],
              "baseline": ["--kind", "direct-sgd", "--dataset", str(dataset)],
              "gradcheck": []}[argv[0]]
    capsys.readouterr()
    try:
        rc = main([*argv, *target])
    except SystemExit as exc:  # a value that the argument parser itself rejects
        rc = exc.code
    assert rc == EXIT_USAGE
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(("error: ", f"csprefine {argv[0]}: error: "))
    assert not out.exists()


def test_non_finite_gradient_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    dataset = _generate_coloring(tmp_path, count=2, n=5)
    train_module = importlib.import_module("csprefine.train")  # the package exports train()
    real_backward = train_module.backward
    monkeypatch.setattr(train_module, "backward", lambda loss: real_backward(loss * np.nan))
    capsys.readouterr()
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "model.bin"),
               "--epochs", "1", "--layers", "1", "--d-model", "8"])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric failure: non-finite gradient")
    assert not (tmp_path / "model.bin").exists()


def test_diverged_training_is_a_numeric_failure_and_saves_nothing(tmp_path, capsys):
    # the first AdamW update at lr 1e308 overflows; the optimizer reports
    # the parameter it left non-finite, and no RuntimeWarning escapes
    dataset = _generate_coloring(tmp_path, count=4, n=6)
    capsys.readouterr()
    rc = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "model.bin"),
               "--epochs", "1", "--layers", "1", "--d-model", "8", "--lr", "1e308"])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric failure: non-finite value in parameter ")
    assert not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("content", [
    b"[1, 2]\n",  # a JSON list, not an object
    b'{"n": "a", "m": 3, "index_tuples": [[0]], "fixed": [null], "constraints": []}\n',
    b'{"n": 2, "m": 3, "index_tuples": [[0], [1]], "fixed": [null, null], '
    b'"constraints": [{"kind": "alldiff_atmost", "scope": 5}]}\n',  # an int scope
    b"\x80\xff\xfe\n",  # not UTF-8
    b"[" * 100_000 + b"\n",  # nested deeper than the JSON parser recurses
    None,  # a directory
    # values that a looser check would read as something else
    b'{"n": 2, "m": 3, "index_tuples": [[0], [1]], "fixed": [null, null], '
    b'"constraints": [{"kind": "ne", "i": 0.0, "k": 1}]}\n',
    b'{"n": 2.0, "m": 3, "index_tuples": [[0], [1]], "fixed": [null, null], "constraints": []}\n',
    b'{"n": 2, "m": 3, "index_tuples": [[0], [1]], "fixed": [null, null], '
    b'"constraints": [{"kind": "ne", "i": 0, "k": 1, "w": "a"}]}\n',
    b'{"n": 2, "m": 3, "index_tuples": [[0], [1]], "fixed": [1.5, null], "constraints": []}\n',
    b'{"n": 2, "m": 3, "mode": "maximisation", "index_tuples": [[0], [1]], '
    b'"fixed": [null, null], "constraints": []}\n',
    # index tuples whose entries are not integers, or that have no entry
    *(b'{"n": 2, "m": 3, "index_tuples": %s, "fixed": [null, null], '
      b'"constraints": [{"kind": "ne", "i": 0, "k": 1}]}\n' % t
      for t in [b'[["a"], ["b"]]', b"[[[0]], [[1]]]", b"[[], []]", b"[[0.5], [1.5]]",
                b"[[true], [false]]"]),
], ids=["json-list", "string-n", "int-scope", "binary", "deep-nesting", "directory",
        "float-index", "float-n", "string-weight", "float-fixed", "unknown-mode",
        "string-tuple", "nested-tuple", "empty-tuple", "float-tuple", "bool-tuple"])
def test_malformed_dataset_is_an_io_error(tmp_path, capsys, content):
    weights = tmp_path / "w.bin"
    cfg = ModelConfig(layers=1, heads=1, d_model=2, ape_mode="none", ffn_mult=1)
    save_weights(init_weights(cfg, 3, np.random.default_rng(0)), weights)
    dataset = tmp_path / "bad.jsonl"
    if content is None:
        dataset.mkdir()
    else:
        dataset.write_bytes(content)
    capsys.readouterr()
    rc = main(["solve", "--weights", str(weights), "--dataset", str(dataset), "--iters", "1"])
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if content is not None:
        assert ":1: bad instance line" in err


def _header_variants(blob: bytes):
    """``blob`` with its JSON header replaced by malformed ones."""
    (hlen,) = struct.unpack("<I", blob[8:12])
    header, rest = json.loads(blob[12:12 + hlen]), blob[12 + hlen:]

    def repack(text: bytes) -> bytes:
        return blob[:8] + struct.pack("<I", len(text)) + text + rest

    extra_key = {**header, "config": {**header["config"], "colour": 1}}
    rejected = {**header, "config": {**header["config"], "tau": -1.0}}
    tiny_p = {**header, "config": {**header["config"], "select_p": 1e-4}}
    no_heads = {**header, "config": {**header["config"], "heads": 0}}
    no_domain = {k: v for k, v in header.items() if k != "domain_size"}
    listed_tensors = {**header, "tensors": list(header["tensors"])}
    no_dtype = {k: v for k, v in header.items() if k != "dtype"}
    other_dtype = {**header, "dtype": "float16"}
    listed_dtype = {**header, "dtype": [header["dtype"]]}
    for variant in (extra_key, rejected, tiny_p, no_heads, no_domain, listed_tensors, no_dtype,
                    other_dtype, listed_dtype):
        yield repack(json.dumps(variant).encode())
    yield repack(b"\xff" + json.dumps(header).encode())
    yield repack(b"[]")


def test_every_malformed_weights_file_is_an_io_error(tmp_path, capsys):
    dataset = _generate_coloring(tmp_path, count=1, n=5)
    cfg = ModelConfig(layers=1, heads=1, d_model=2, ape_mode="none", ffn_mult=1)
    good = tmp_path / "good.bin"
    save_weights(init_weights(cfg, 3, np.random.default_rng(0)), good)
    blob = good.read_bytes()
    bad = tmp_path / "bad.bin"
    assert blob[4:8] == struct.pack("<I", 2)  # a float32 file of version 2
    # every prefix: an empty file, a short preamble, a cut header, a cut tensor block
    for raw in [blob[:cut] for cut in range(len(blob))] + list(_header_variants(blob)):
        bad.write_bytes(raw)
        rc = main(["solve", "--weights", str(bad), "--dataset", str(dataset), "--iters", "1"])
        err = capsys.readouterr().err
        assert rc == EXIT_IO, raw[:40]
        assert err.startswith("error: "), err
    rc = main(["solve", "--weights", str(good), "--dataset", str(dataset), "--iters", "1"])
    assert rc == EXIT_OK


def _edited_weights(blob: bytes, edit) -> bytes:
    """``blob``, a float32 weight file, rebuilt after ``edit`` changed its
    header dict and its dict of arrays in place: the file that those hold."""
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    arrays, at = {}, 12 + hlen
    for name in sorted(header["tensors"]):
        shape = header["tensors"][name]
        arrays[name] = np.frombuffer(blob, "<f4", int(np.prod(shape)), at).reshape(shape)
        at += arrays[name].nbytes
    edit(header, arrays)
    text = json.dumps(header, sort_keys=True).encode()
    return (blob[:8] + struct.pack("<I", len(text)) + text
            + b"".join(arrays[k].astype("<f4").tobytes() for k in sorted(arrays)))


def _drop_tensor(header, arrays, name):
    del header["tensors"][name], arrays[name]


def _transpose_embed(header, arrays):
    arrays["embed"] = np.ascontiguousarray(arrays["embed"].T)
    header["tensors"]["embed"] = list(arrays["embed"].shape)


@pytest.mark.parametrize("edit", [
    lambda h, a: h["config"].update(layers=1.0),
    lambda h, a: h["config"].update(heads=1.0),
    lambda h, a: h.update(domain_size=3.0),
    lambda h, a: _drop_tensor(h, a, "l0.wq"),
    lambda h, a: h["config"].update(layers=2),
    _transpose_embed,
    lambda h, a: h["config"].update(rpe_mode="none"),
    lambda h, a: h["config"].update(ape_mode="1d"),
], ids=["float-layers", "float-heads", "float-domain-size", "missing-tensor",
        "layers-above-the-tensors", "transposed-embed", "rpe-none", "ape-1d"])
def test_weights_whose_header_disagrees_with_its_model_are_an_io_error(tmp_path, capsys, edit):
    # each of these loaded before, and solve then died with a traceback
    dataset = _generate_coloring(tmp_path, count=1, n=5)
    cfg = ModelConfig(layers=1, heads=1, d_model=8, ape_mode="multi", ffn_mult=1)
    good = tmp_path / "good.bin"
    save_weights(init_weights(cfg, 3, np.random.default_rng(0)), good)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_edited_weights(good.read_bytes(), edit))
    capsys.readouterr()
    rc = main(["solve", "--weights", str(bad), "--dataset", str(dataset), "--iters", "1"])
    err = capsys.readouterr().err
    assert rc == EXIT_IO and err.startswith("error: ") and "Traceback" not in err
    with pytest.raises(data.DataError):
        load_weights(bad)
    # the unedited rebuild is the file itself
    assert _edited_weights(good.read_bytes(), lambda h, a: None) == good.read_bytes()


def test_a_temperature_whose_reciprocal_overflows_is_a_numeric_failure(tmp_path, capsys):
    # 1/tau overflows float32: the head's scaled logits are not finite, so
    # solve reports a numeric failure instead of picking value 0 everywhere
    dataset = _generate_coloring(tmp_path, count=2, n=5)
    model = tmp_path / "model.bin"
    assert main(["train", "--dataset", str(dataset), "--out", str(model), "--epochs", "0",
                 "--layers", "1", "--heads", "1", "--d-model", "8", "--tau", "1e-39"]) == EXIT_OK
    capsys.readouterr()
    rc = main(["solve", "--weights", str(model), "--dataset", str(dataset), "--iters", "5"])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric failure: non-finite output logits")
