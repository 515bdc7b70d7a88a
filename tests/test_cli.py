"""End-to-end command-line workflows on synthetic data."""

import csv
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bayesvolterra import (
    Dataset,
    FitTrace,
    ModelFormatError,
    evaluate,
    load_csv,
    load_manifest,
    load_model,
    predict,
    save_csv,
    save_model,
)
from bayesvolterra import cli
from bayesvolterra.cli import _write_trace, main
from bayesvolterra.inference import FitConfig, identify

from _oracles import make_fading_data, reference_write_csv

METRIC_KEYS = {"rmse", "nll", "final_rank", "elbo", "runtime_s", "seed", "stop_reason"}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> identify on a rank-2 system, shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "sim.csv"
    model = root / "model"
    metrics = root / "metrics.json"
    assert main(["simulate", "--order", "2", "--memory", "5", "--rank", "2",
                 "--n", "1000", "--noise-std", "0.05", "--seed", "0",
                 "--out", str(data)]) == 0
    assert main(["identify", "--data", str(data), "--order", "2",
                 "--memory", "5", "--rank", "4", "--max-iter", "600",
                 "--tol", "1e-9", "--split", "800", "--seed", "0",
                 "--out", str(model), "--metrics-out", str(metrics)]) == 0
    return SimpleNamespace(root=root, data=data, model=model,
                           metrics=json.loads(metrics.read_text()))


def test_pipeline_recovers_the_true_rank(pipeline):
    assert set(pipeline.metrics) == METRIC_KEYS
    assert pipeline.metrics["final_rank"] == 2
    assert pipeline.metrics["seed"] == 0
    # validation error is close to the simulated noise level
    assert pipeline.metrics["rmse"] < 3.0 * 0.05


def test_evaluate_reproduces_identify_metrics(pipeline):
    out = pipeline.root / "eval.json"
    assert main(["evaluate", "--model", str(pipeline.model),
                 "--data", str(pipeline.data), "--split", "800",
                 "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())
    assert metrics["rmse"] == pytest.approx(pipeline.metrics["rmse"], rel=1e-12)
    assert metrics["nll"] == pytest.approx(pipeline.metrics["nll"], rel=1e-12)
    assert metrics["final_rank"] == 2
    assert metrics["elbo"] == pytest.approx(pipeline.metrics["elbo"], rel=1e-12)


def test_evaluate_reports_the_fit_of_a_model_saved_without_info_as_null(pipeline,
                                                                      tmp_path):
    # the fit's elbo, runtime, seed and stop reason come from the model's
    # info, never from evaluate itself; with a saved info they are the fit's
    model = tmp_path / "model"
    save_model(load_model(pipeline.model), model)
    assert not load_manifest(model).get("info")
    out = tmp_path / "eval.json"
    assert main(["evaluate", "--model", str(model), "--data", str(pipeline.data),
                 "--split", "800", "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())
    assert set(metrics) == METRIC_KEYS
    for key in ("elbo", "runtime_s", "seed", "stop_reason"):
        assert metrics[key] is None
    assert metrics["rmse"] == pytest.approx(pipeline.metrics["rmse"], rel=1e-12)
    assert main(["evaluate", "--model", str(pipeline.model), "--data", str(pipeline.data),
                 "--split", "800", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["runtime_s"] == pipeline.metrics["runtime_s"]


def test_identify_reports_why_the_fit_stopped(pipeline, tmp_path):
    # in the metrics, the saved model's info and evaluate's report
    for max_iter, tol, reason in (("2", "1e-300", "max_iter"), ("500", "1e-2", "tolerance")):
        model = tmp_path / reason
        metrics = tmp_path / f"{reason}.json"
        assert main(["identify", "--data", str(pipeline.data), "--order", "2",
                     "--memory", "3", "--rank", "2", "--max-iter", max_iter,
                     "--tol", tol, "--split", "800", "--out", str(model),
                     "--metrics-out", str(metrics)]) == 0
        assert json.loads(metrics.read_text())["stop_reason"] == reason
        assert load_manifest(model)["info"]["stop_reason"] == reason
        out = tmp_path / f"{reason}-eval.json"
        assert main(["evaluate", "--model", str(model), "--data", str(pipeline.data),
                     "--split", "800", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["stop_reason"] == reason


def test_predict_writes_student_t_columns(pipeline):
    out = pipeline.root / "pred.csv"
    assert main(["predict", "--model", str(pipeline.model),
                 "--data", str(pipeline.data), "--out", str(out)]) == 0
    with out.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["y_mean", "y_scale", "y_dof"]
    assert len(rows) == 1001
    body = np.array(rows[1:], dtype=float)
    assert np.isfinite(body).all()
    assert (body[:, 1] > 0).all()
    assert np.unique(body[:, 2]).size == 1  # one dof for the whole model


def test_predict_columns_equal_evaluate(pipeline):
    out = pipeline.root / "pred_exact.csv"
    assert main(["predict", "--model", str(pipeline.model),
                 "--data", str(pipeline.data), "--out", str(out)]) == 0
    with out.open(newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    dataset = load_csv(pipeline.data)
    report = evaluate(load_model(pipeline.model), dataset.u, dataset.y)
    assert_array_equal([float(row[0]) for row in rows], report.locations)
    assert_array_equal([float(row[1]) for row in rows], report.scales)


def test_predict_csv_matches_a_row_by_row_writer_bytewise(pipeline):
    # 40 003 rows: several write blocks and a ragged last one
    rng = np.random.default_rng(43)
    u = rng.uniform(0.0, 1.0, 40_003)
    u[:4] = [5e-324, -0.0, 1e-05, 1.0]
    data = pipeline.root / "long.csv"
    save_csv(data, Dataset(u, rng.standard_normal(u.size)))
    out = pipeline.root / "pred_long.csv"
    assert main(["predict", "--model", str(pipeline.model),
                 "--data", str(data), "--out", str(out)]) == 0
    locations, scales, dof = predict(load_model(pipeline.model), u)
    reference = pipeline.root / "pred_reference.csv"
    reference_write_csv(reference, ["y_mean", "y_scale", "y_dof"],
                        [(loc, scale, float(dof))
                         for loc, scale in zip(locations.tolist(), scales.tolist())])
    assert out.read_bytes() == reference.read_bytes()


def test_trace_csv_matches_a_row_by_row_writer_bytewise(tmp_path):
    rng = np.random.default_rng(44)
    trace = FitTrace()
    extremes = [5e-324, -0.0, 1e16, 1e-05]
    for k in range(40_003):
        elbo, e_tau, wall = (extremes[k] if k < 4 else v
                             for v in rng.standard_normal(3) * 1e3)
        trace.append(k + 1, elbo, int(rng.integers(1, 30)), e_tau, abs(wall))
    _write_trace(tmp_path / "trace.csv", trace)
    reference_write_csv(tmp_path / "reference.csv", ["iter", "elbo", "rank", "e_tau", "wall_s"],
                        zip(trace.iterations, trace.elbo, trace.rank, trace.noise_mean,
                            trace.wall_s))
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_report_trace_and_delta_profile(pipeline):
    # the per-sweep trace is the model directory's trace.csv; report writes
    # the per-lag profile
    with (pipeline.model / "trace.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iter", "elbo", "rank", "e_tau", "wall_s"]
    assert len(rows) > 2
    assert [int(r[0]) for r in rows[1:]] == list(range(1, len(rows)))
    assert all(len(r) == 5 for r in rows[1:])

    profile = pipeline.root / "profile.csv"
    assert main(["report", "--model", str(pipeline.model),
                 "--delta-profile", str(profile)]) == 0
    with profile.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["lag", "e_delta", "row_rms"]
    assert len(rows) == 1 + 6  # one row per window entry, memory 5
    assert [int(r[0]) for r in rows[1:]] == [-1, 0, 1, 2, 3, 4]
    assert all(float(r[1]) > 0 for r in rows[1:])


def test_report_requires_a_section_flag(pipeline, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["report", "--model", str(pipeline.model)])
    assert excinfo.value.code == 2
    assert "--delta-profile" in capsys.readouterr().err
    # the trace is the model directory's trace.csv, not a report section
    with pytest.raises(SystemExit) as excinfo:
        main(["report", "--model", str(pipeline.model),
              "--trace", str(tmp_path / "trace.csv"),
              "--delta-profile", str(tmp_path / "profile.csv")])
    assert excinfo.value.code == 2
    assert "--trace" in capsys.readouterr().err


def test_delta_ablation_on_a_fading_memory_system(tmp_path):
    u, y, _, n_est = make_fading_data(0)
    data = tmp_path / "fade.csv"
    save_csv(data, Dataset(u, y))
    nll = {}
    for mode in ("on", "off"):
        metrics = tmp_path / f"metrics_{mode}.json"
        assert main(["identify", "--data", str(data), "--order", "2",
                     "--memory", "10", "--rank", "6", "--max-iter", "300",
                     "--split", str(n_est), "--seed", "0", "--delta", mode,
                     "--metrics-out", str(metrics)]) == 0
        nll[mode] = json.loads(metrics.read_text())["nll"]
    assert nll["on"] < nll["off"]


def test_identify_metrics_are_deterministic(pipeline, tmp_path):
    outputs = []
    for name in ("a.json", "b.json"):
        metrics = tmp_path / name
        assert main(["identify", "--data", str(pipeline.data), "--order", "2",
                     "--memory", "3", "--rank", "2", "--max-iter", "40",
                     "--split", "800", "--seed", "7",
                     "--metrics-out", str(metrics)]) == 0
        outputs.append(json.loads(metrics.read_text()))
    first, second = outputs
    for key in METRIC_KEYS - {"runtime_s"}:
        assert first[key] == second[key]


def test_ordered_sums_flag_is_accepted_and_changes_nothing(pipeline, tmp_path):
    runs = {}
    for name, extra in (("plain", []), ("ordered", ["--ordered-sums"])):
        model = tmp_path / name
        metrics = tmp_path / f"{name}.json"
        assert main(["identify", "--data", str(pipeline.data), "--order", "2",
                     "--memory", "3", "--rank", "2", "--max-iter", "20",
                     "--tol", "1e-300", "--split", "800", "--seed", "7",
                     "--out", str(model), "--metrics-out", str(metrics),
                     *extra]) == 0
        with (model / "trace.csv").open(newline="") as handle:
            elbo = [row["elbo"] for row in csv.DictReader(handle)]
        runs[name] = (elbo, json.loads(metrics.read_text()))
    plain_elbo, plain_metrics = runs["plain"]
    ordered_elbo, ordered_metrics = runs["ordered"]
    assert len(plain_elbo) == 20
    assert ordered_elbo == plain_elbo
    for key in METRIC_KEYS - {"runtime_s"}:
        assert ordered_metrics[key] == plain_metrics[key]


def test_seed_sweep_aggregates_metrics(pipeline, tmp_path):
    metrics = tmp_path / "sweep.json"
    assert main(["identify", "--data", str(pipeline.data), "--order", "2",
                 "--memory", "3", "--rank", "2", "--max-iter", "30",
                 "--split", "800", "--seed", "3", "--seeds", "3",
                 "--metrics-out", str(metrics)]) == 0
    sweep = json.loads(metrics.read_text())
    for key in ("rmse", "nll", "elbo", "runtime_s"):
        assert set(sweep[key]) == {"mean", "std"}
        assert np.isfinite(sweep[key]["mean"])
    assert sweep["seed"] == [3, 4, 5]
    assert len(sweep["final_rank"]) == 3
    assert sweep["stop_reason"] == ["max_iter"] * 3


def test_seed_sweep_saves_the_best_run(pipeline, tmp_path):
    metrics = tmp_path / "sweep.json"
    model = tmp_path / "model"
    assert main(["identify", "--data", str(pipeline.data), "--order", "2",
                 "--memory", "3", "--rank", "2", "--max-iter", "30",
                 "--split", "800", "--seed", "3", "--seeds", "2",
                 "--out", str(model), "--metrics-out", str(metrics)]) == 0
    out = tmp_path / "eval.json"
    assert main(["evaluate", "--model", str(model),
                 "--data", str(pipeline.data), "--split", "800",
                 "--out", str(out)]) == 0
    saved = json.loads(out.read_text())
    assert saved["seed"] in (3, 4)
    assert np.isfinite(saved["elbo"])


def test_seed_sweep_keeps_only_the_best_fit(pipeline, tmp_path, monkeypatch):
    # a fit that is not the best so far is dropped before the next starts
    fitted, live = [], []

    def counting(*args, **kwargs):
        gc.collect()
        live.append(sum(ref() is not None for ref in fitted))
        state, trace = identify(*args, **kwargs)
        fitted.append(weakref.ref(state))
        return state, trace

    monkeypatch.setattr(cli, "identify", counting)
    assert main(["identify", "--data", str(pipeline.data), "--order", "2",
                 "--memory", "3", "--rank", "2", "--max-iter", "10",
                 "--split", "800", "--seed", "3", "--seeds", "3",
                 "--out", str(tmp_path / "model"),
                 "--metrics-out", str(tmp_path / "sweep.json")]) == 0
    assert live == [0, 1, 1]


@pytest.mark.parametrize("damage", ["[1, 2]", "null", "3", '"model"', "info"])
@pytest.mark.parametrize("command", ["library", "evaluate", "predict", "report"])
def test_manifest_that_is_not_an_object_is_an_error(pipeline, tmp_path, capsys,
                                                    command, damage):
    model = tmp_path / "model"
    shutil.copytree(pipeline.model, model)
    path = model / "manifest.json"
    if damage == "info":
        manifest = json.loads(path.read_text())
        manifest["info"] = [1, 2]
        damage = json.dumps(manifest)
    path.write_text(damage)
    if command == "library":
        for reader in (load_manifest, load_model):
            with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: "):
                reader(model)
        return
    out = tmp_path / "out"
    if command == "report":
        argv = ["report", "--model", str(model), "--delta-profile", str(out)]
    else:
        argv = [command, "--model", str(model), "--data", str(pipeline.data),
                "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not out.exists()


def test_evaluate_requires_a_model():
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--data", "whatever.csv"])
    assert excinfo.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_identify_defaults_are_fit_config_defaults():
    args = cli.build_parser().parse_args(
        ["identify", "--data", "u_y.csv", "--order", "2", "--memory", "3"])
    config = FitConfig(order=2)
    assert (args.rank, args.max_iter, args.tol, args.truncate_tol, args.seed) == (
        config.rank, config.max_iter, config.elbo_rel_tol,
        config.truncation_threshold, config.seed)
    assert (args.delta == "on") is config.lag_sparsity


def test_malformed_priors_are_a_usage_error(pipeline):
    with pytest.raises(SystemExit) as excinfo:
        main(["identify", "--data", str(pipeline.data), "--order", "2",
              "--memory", "3", "--priors", "1,2,3"])
    assert excinfo.value.code == 2


NUMBER_ERRORS = [
    ("identify", "--order", "0", "order must be at least 1"),
    ("identify", "--memory", "nan", "memory must be an integer"),
    ("identify", "--rank", "1.5", "rank must be an integer"),
    ("identify", "--max-iter", "0", "max-iter must be at least 1"),
    ("identify", "--tol", "0", "tol must be positive"),
    ("identify", "--tol", "nan", "tol must be positive"),
    ("identify", "--truncate-tol", "nan", "truncate-tol must be positive"),
    ("identify", "--tol", "inf", "tol must be finite"),
    ("identify", "--truncate-tol", "inf", "truncate-tol must be finite"),
    ("identify", "--seeds", "zero", "seeds must be an integer"),
    ("identify", "--seed", "-1", "seed must be nonnegative"),
    ("identify", "--skip-warmup", "-1", "skip-warmup must be nonnegative"),
    ("evaluate", "--skip-warmup", "-2", "skip-warmup must be nonnegative"),
    ("simulate", "--noise-std", "nan", "noise-std must be nonnegative"),
    ("simulate", "--noise-std", "inf", "noise-std must be finite"),
    ("simulate", "--noise-std", "-0.1", "noise-std must be nonnegative"),
    ("simulate", "--noise-std", "low", "noise-std must be a number"),
    ("simulate", "--n", "0", "n must be at least 1"),
    ("simulate", "--seed", "-2", "seed must be nonnegative"),
]


@pytest.mark.parametrize(
    "command, flag, value, message", NUMBER_ERRORS,
    ids=[f"{command}{flag}={value}" for command, flag, value, _ in NUMBER_ERRORS])
def test_malformed_number_is_a_usage_error(pipeline, tmp_path, capsys,
                                           command, flag, value, message):
    base = {
        "identify": ["--data", str(pipeline.data), "--order", "2", "--memory", "3"],
        "evaluate": ["--model", str(pipeline.model), "--data", str(pipeline.data)],
        "simulate": ["--order", "1", "--memory", "2",
                     "--out", str(tmp_path / "sim.csv")],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        main([command, *base, flag, value])
    assert excinfo.value.code == 2
    assert f"{message}\n" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


@pytest.mark.parametrize("split", ["1.5", "0.0", "half"])
def test_malformed_split_is_a_usage_error(pipeline, split):
    with pytest.raises(SystemExit) as excinfo:
        main(["identify", "--data", str(pipeline.data), "--order", "2",
              "--memory", "3", "--split", split])
    assert excinfo.value.code == 2


def test_integer_valued_float_split_is_a_count(pipeline, tmp_path):
    outputs = {}
    for split in ("800", "800.0", "8e2"):
        metrics = tmp_path / f"{split}.json"
        assert main(["identify", "--data", str(pipeline.data), "--order", "2",
                     "--memory", "3", "--rank", "2", "--max-iter", "10",
                     "--split", split, "--seed", "7",
                     "--metrics-out", str(metrics)]) == 0
        outputs[split] = json.loads(metrics.read_text())
    for split in ("800.0", "8e2"):
        for key in METRIC_KEYS - {"runtime_s"}:
            assert outputs[split][key] == outputs["800"][key]


def test_fractional_split_is_a_share_of_the_record(pipeline, tmp_path):
    outputs = {}
    for split in ("0.4", "400"):
        metrics = tmp_path / f"{split}.json"
        assert main(["identify", "--data", str(pipeline.data), "--order", "2",
                     "--memory", "3", "--rank", "2", "--max-iter", "10",
                     "--split", split, "--seed", "7",
                     "--metrics-out", str(metrics)]) == 0
        outputs[split] = json.loads(metrics.read_text())
    for key in METRIC_KEYS - {"runtime_s"}:
        assert outputs["0.4"][key] == outputs["400"][key]


def test_priors_flag_reaches_the_saved_model(pipeline, tmp_path):
    model = tmp_path / "model"
    assert main(["identify", "--data", str(pipeline.data), "--order", "2",
                 "--memory", "3", "--rank", "2", "--max-iter", "5",
                 "--priors", "1,2,3,4,5,6e-3", "--out", str(model),
                 "--metrics-out", str(tmp_path / "metrics.json")]) == 0
    assert load_manifest(model)["priors"] == {
        "noise_shape": 1.0, "noise_rate": 2.0, "col_shape": 3.0,
        "col_rate": 4.0, "row_shape": 5.0, "row_rate": 6e-3,
    }


def test_identify_without_split_scores_the_whole_record(pipeline, tmp_path):
    # without --split the metrics cover the estimation record itself, from
    # the first sample after the skipped warm-up
    model = tmp_path / "model"
    metrics = tmp_path / "metrics.json"
    assert main(["identify", "--data", str(pipeline.data), "--order", "2",
                 "--memory", "3", "--rank", "2", "--max-iter", "10",
                 "--skip-warmup", "5", "--out", str(model),
                 "--metrics-out", str(metrics)]) == 0
    dataset = load_csv(pipeline.data)
    report = evaluate(load_model(model), dataset.u, dataset.y, start=5)
    scored = json.loads(metrics.read_text())
    assert scored["rmse"] == report.rmse
    assert scored["nll"] == report.nll


def test_evaluate_skip_warmup_starts_after_the_split(pipeline, tmp_path):
    out = tmp_path / "eval.json"
    assert main(["evaluate", "--model", str(pipeline.model),
                 "--data", str(pipeline.data), "--split", "800",
                 "--skip-warmup", "5", "--out", str(out)]) == 0
    dataset = load_csv(pipeline.data)
    report = evaluate(load_model(pipeline.model), dataset.u, dataset.y, start=805)
    scored = json.loads(out.read_text())
    assert scored["rmse"] == report.rmse
    assert scored["nll"] == report.nll


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_model_with_a_bad_covariance_is_an_error(pipeline, tmp_path, capsys, command):
    model = tmp_path / "model"
    shutil.copytree(pipeline.model, model)
    blob = model / "factor0_cov.f64"
    size = int(np.sqrt(blob.stat().st_size // 8))
    blob.write_bytes((-np.eye(size)).astype("<f8").tobytes())
    out = tmp_path / "out"
    rc = main([command, "--model", str(model), "--data", str(pipeline.data),
               "--out", str(out)])
    assert rc == 1
    assert f"{blob}: covariance is not positive definite" in capsys.readouterr().err
    assert not out.exists()


def test_missing_data_file_reports_an_error(tmp_path, capsys):
    rc = main(["identify", "--data", str(tmp_path / "absent.csv"),
               "--order", "2", "--memory", "3"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_announces_the_output(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--order", "1", "--memory", "2", "--rank", "1",
                 "--n", "50", "--seed", "1", "--out", str(out)]) == 0
    assert f"wrote 50 samples to {out}" in capsys.readouterr().out
    assert out.is_file()


IMPORT_PROBE = """
import json, sys
import bayesvolterra, bayesvolterra.cli
code = bayesvolterra.cli.main(["simulate", "--order", "2", "--memory", "3",
                               "--n", "200", "--out", sys.argv[1]])
print(json.dumps({"code": code,
                  "stats": sorted(m for m in sys.modules if m.startswith("scipy.stats"))}))
"""


def test_import_path_has_no_scipy_stats(tmp_path):
    # scipy.stats costs most of a cold CLI call; the package needs only
    # scipy.linalg and scipy.special
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "sim.csv"
    result = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(out)],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, check=True)
    report = json.loads(result.stdout.splitlines()[-1])
    assert report == {"code": 0, "stats": []}
    assert out.is_file()
