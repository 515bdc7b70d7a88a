"""Release gate: one test per acceptance criterion, with stated tolerances.

Each test prints a single PASS/FAIL line (visible with -s or on failure) and
covers exactly one criterion, so a verbose run reads as a checklist.  The
benchmark-reproduction criterion is conditional on a user-supplied data file
and is skipped when the file is absent.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bayesvolterra import (
    FitConfig,
    build_lagged_matrix,
    compute_normalization,
    evaluate,
    expected_output,
    identify,
    load_csv,
    load_model,
    nll,
    normalize_input,
    predictive_arrays,
    save_model,
    standardize_output,
)

from _oracles import (
    cpd_expand,
    fit_rank2,
    kron_chain,
    make_fading_data,
    make_rank2_data,
    random_state,
    student_t_oracle,
    vb_linear_oracle,
)

TANKS_ENV = "BAYESVOLTERRA_TANKS_CSV"
TANKS_DEFAULT = Path(__file__).parent / "data" / "cascaded_tanks.csv"


def _line(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def rank2_fits():
    """Ten seeded fits of the rank-recovery setup, shared by two criteria."""
    return [fit_rank2(seed) for seed in range(10)]


def test_criterion_1_contraction_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for window, order, rank in itertools.product(range(1, 5), repeat=3):
        for _ in range(50):
            factors = [rng.standard_normal((window, rank))
                       for _ in range(order)]
            h = rng.standard_normal(window)
            value = float(expected_output(h.reshape(-1, 1), factors)[0])
            oracle = float(cpd_expand(factors) @ kron_chain([h] * order))
            worst = max(worst, abs(value - oracle) / (1.0 + abs(oracle)))
    elapsed = time.perf_counter() - started
    _line("criterion 1, contraction identity",
          worst < 1e-12 and elapsed < 10.0,
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_single_factor_conjugacy():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    u = rng.uniform(0.0, 1.0, 200)
    U = build_lagged_matrix(u, 5)  # window I=6
    w = rng.standard_normal(6)
    y = w @ U + 0.1 * rng.standard_normal(200)

    sweeps = 30
    config = FitConfig(order=1, rank=1, max_iter=sweeps, elbo_rel_tol=1e-300,
                       seed=2)
    state, _ = identify(U, y, config)
    oracle = vb_linear_oracle(U, y, sweeps)

    mean_err = float(np.max(np.abs(state.factors[0].mean[:, 0] - oracle["mean"])
                            / (1.0 + np.abs(oracle["mean"]))))
    tau_err = abs(float(state.noise.mean) - oracle["tau"]) / oracle["tau"]
    priors = state.priors
    increments_exact = (
        state.noise.shape == priors.noise_shape + 0.5 * 200
        and np.all(np.asarray(state.col_prec.shape)
                   == priors.col_shape + 0.5 * 1 * 6)
        and np.all(np.asarray(state.row_prec.shape)
                   == priors.row_shape + 0.5 * 1 * 1)
    )
    elapsed = time.perf_counter() - started
    _line("criterion 2, D=1 conjugacy oracle",
          mean_err < 1e-8 and tau_err < 1e-8 and increments_exact
          and elapsed < 5.0,
          f"mean rel err {mean_err:.2e}, increments exact: {increments_exact}, "
          f"{elapsed:.1f}s")


def test_criterion_3_elbo_monotonicity():
    started = time.perf_counter()
    worst = np.inf
    for seed in range(10):
        u, y, _ = make_rank2_data(seed, n=500)
        U = build_lagged_matrix(u, 10)
        config = FitConfig(order=2, rank=6, max_iter=80, elbo_rel_tol=1e-12,
                           seed=seed)
        _, trace = identify(U, y, config)
        for t in range(1, len(trace)):
            if trace.rank[t] != trace.rank[t - 1]:
                continue
            slack = (trace.elbo[t] - trace.elbo[t - 1]
                     + 1e-8 * (1.0 + abs(trace.elbo[t - 1])))
            worst = min(worst, slack)
    elapsed = time.perf_counter() - started
    _line("criterion 3, ELBO monotonicity",
          worst >= 0.0 and elapsed < 120.0,
          f"worst within-rank slack {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_rank_recovery(rank2_fits):
    hits = sum(1 for state, _, _ in rank2_fits if state.rank == 2)
    _line("criterion 4, rank recovery", hits >= 8,
          f"final rank exactly 2 in {hits}/10 seeds")


def test_criterion_5_noise_recovery(rank2_fits):
    hits = 0
    ratios = []
    for state, _, sigma in rank2_fits:
        ratio = (1.0 / float(state.noise.mean)) / sigma**2
        ratios.append(ratio)
        if 0.5 <= ratio <= 2.0:
            hits += 1
    _line("criterion 5, noise recovery", hits >= 8,
          f"1/E[tau] within [0.5, 2]x sigma^2 in {hits}/10 seeds, "
          f"ratios {min(ratios):.2f}..{max(ratios):.2f}")


def test_criterion_6_fading_memory():
    band_hits = 0
    nll_hits = 0
    for seed in range(10):
        u, y, _, n_est = make_fading_data(seed)
        U = build_lagged_matrix(u[:n_est], 10)
        reports = {}
        for sparsity in (True, False):
            config = FitConfig(order=2, rank=6, max_iter=300,
                               lag_sparsity=sparsity, seed=seed)
            state, _ = identify(U, y[:n_est], config)
            reports[sparsity] = evaluate(state, u, y, start=n_est)
            if sparsity:
                e_delta = np.asarray(state.row_prec.mean)
                # window entry 0 is the constant; entries 1.. are lags 0..
                if (np.median(e_delta[6:11]) > np.median(e_delta[1:5])):
                    band_hits += 1
        if reports[True].nll < reports[False].nll:
            nll_hits += 1
    _line("criterion 6, fading-memory learning",
          band_hits >= 8 and nll_hits >= 8,
          f"precision band {band_hits}/10, sparse NLL lower {nll_hits}/10")


def test_criterion_7_predictive_distribution():
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 1.0, 150)
    U = build_lagged_matrix(u, 4)
    w = rng.standard_normal(5)
    y = w @ U + 0.15 * rng.standard_normal(150)
    sweeps = 25
    config = FitConfig(order=1, rank=1, max_iter=sweeps, elbo_rel_tol=1e-300,
                       seed=7)
    state, _ = identify(U, y, config)
    oracle = vb_linear_oracle(U, y, sweeps)

    worst = 0.0
    for window in U[:, [3, 40, 99, 149]].T:
        locations, scale_sq, pred_dof = predictive_arrays(state, window[:, None])
        loc, scale, dof = student_t_oracle(window, oracle)
        worst = max(worst,
                    abs(locations[0] - loc) / (1.0 + abs(loc)),
                    abs(np.sqrt(scale_sq[0]) - scale) / scale,
                    abs(pred_dof - dof) / dof)

    dof = 1e6
    unit_scale = np.sqrt((dof - 2.0) / dof)  # unit predictive variance
    gaussian_gap = abs(
        nll(np.zeros(1), np.zeros(1), np.array([unit_scale]), dof)
        - 0.5 * np.log(2.0 * np.pi)
    )
    _line("criterion 7, predictive distribution",
          worst < 1e-10 and gaussian_gap < 1e-3,
          f"worst rel err {worst:.2e}, Gaussian-limit gap {gaussian_gap:.2e}")


def test_criterion_8_benchmark_reproduction():
    path = Path(os.environ.get(TANKS_ENV, TANKS_DEFAULT))
    if not path.is_file():
        pytest.skip(
            f"benchmark data not supplied (set {TANKS_ENV} or place the "
            f"converted CSV at {TANKS_DEFAULT})"
        )
    dataset = load_csv(path)
    n_est = 1024
    record = compute_normalization(dataset.u[:n_est], dataset.y[:n_est])
    U = build_lagged_matrix(normalize_input(dataset.u[:n_est], record), 100)
    y_model = standardize_output(dataset.y[:n_est], record)

    rmses, nlls, runtimes = [], [], []
    for seed in range(10):
        config = FitConfig(order=3, rank=20, max_iter=200, seed=seed)
        started = time.perf_counter()
        state, _ = identify(U, y_model, config, normalization=record)
        runtimes.append(time.perf_counter() - started)
        report = evaluate(state, dataset.u, dataset.y, start=n_est)
        rmses.append(report.rmse)
        nlls.append(report.nll)
    rmse = float(np.mean(rmses))
    mean_nll = float(np.mean(nlls))
    slowest = max(runtimes)
    _line("criterion 8, benchmark reproduction",
          0.45 <= rmse <= 0.60 and 0.65 <= mean_nll <= 0.95 and slowest < 60.0,
          f"RMSE {rmse:.3f}, NLL {mean_nll:.3f}, slowest run {slowest:.1f}s")


def test_criterion_9_persistence_roundtrip(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    identical = True
    for k in range(5):
        state = random_state(900 + k)
        U = build_lagged_matrix(rng.uniform(0.0, 1.0, 60), state.memory)
        directory = tmp_path / f"model{k}"
        save_model(state, directory)
        loaded = load_model(directory)
        for before, after in zip(predictive_arrays(state, U),
                                 predictive_arrays(loaded, U)):
            identical = identical and np.array_equal(np.asarray(before),
                                                     np.asarray(after))
    elapsed = time.perf_counter() - started
    _line("criterion 9, persistence round trip",
          identical and elapsed < 5.0,
          f"bitwise identical: {identical}, {elapsed:.1f}s")
