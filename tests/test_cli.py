"""End-to-end command-line workflows on synthetic data."""

import csv
import json
import shutil
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bayesvolterra import (
    Dataset,
    evaluate,
    load_csv,
    load_model,
    save_csv,
)
from bayesvolterra.cli import main

from _oracles import make_fading_data

METRIC_KEYS = {"rmse", "nll", "final_rank", "elbo", "runtime_s", "seed"}


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


def test_evaluate_requires_a_model():
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--data", "whatever.csv"])
    assert excinfo.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


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
