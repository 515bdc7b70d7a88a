"""Student-t predictive distribution and evaluation metrics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.special import gammaln

from bayesvolterra import (
    FitConfig,
    GammaPosterior,
    NormalizationRecord,
    build_lagged_matrix,
    evaluate,
    expected_output,
    identify,
    init_state,
    nll,
    predict,
    predictive_arrays,
    rmse,
)
from bayesvolterra.features import SCORE_BLOCK

from _oracles import (
    full_window_predict,
    student_t_oracle,
    traced_peak,
    vb_linear_oracle,
)

GAUSS_CONST = 0.5 * np.log(2.0 * np.pi)


def student_t_logpdf(y, loc, scale, dof):
    """Hand-written Student-t log density."""
    z = (y - loc) / scale
    return (gammaln(0.5 * (dof + 1.0)) - gammaln(0.5 * dof)
            - 0.5 * np.log(dof * np.pi) - np.log(scale)
            - 0.5 * (dof + 1.0) * np.log1p(z * z / dof))


def fitted_state(seed=0, n=150, memory=4, order=2, rank=2, sweeps=25):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    U = build_lagged_matrix(u, memory)
    y = rng.standard_normal(n)
    config = FitConfig(order=order, rank=rank, max_iter=sweeps,
                       elbo_rel_tol=1e-12, seed=seed)
    state, _ = identify(U, y, config)
    return state, U


def test_prediction_validation():
    state, _ = fitted_state(seed=8, n=30, memory=4)
    u = np.random.default_rng(8).uniform(0.0, 1.0, 300)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            predict(state, np.where(np.arange(300) == 250, bad, u))
    with pytest.raises(ValueError, match="nothing to predict"):
        predict(state, u, start=300)


def test_evaluate_variances_need_more_than_two_dof():
    state = init_state(1, 2, 1, seed=0)
    u = np.random.default_rng(0).uniform(0.0, 1.0, 10)
    y = np.zeros(10)
    state.noise = GammaPosterior(4.0, 6.0)
    report = evaluate(state, u, y)
    assert report.dof == 8.0
    assert_allclose(report.variances, 8.0 / 6.0 * report.scales**2, rtol=1e-14)
    state.noise = GammaPosterior(1.0, 6.0)
    assert np.isnan(evaluate(state, u, y).variances).all()


def test_zero_model_predicts_the_noise_floor():
    state = init_state(2, 3, 2, seed=0)
    for f in state.factors:
        f.mean[...] = 0.0
        f.cov[...] = 0.0
    state.noise = GammaPosterior(4.0, 6.0)
    window = np.array([1.0, 0.3, 0.2, 0.1])
    locations, scale_sq, dof = predictive_arrays(state, window[:, None])
    assert locations[0] == 0.0
    assert dof == 8.0
    # no parameter-uncertainty terms: the squared scale is b_N/a_N
    assert_allclose(scale_sq[0], 6.0 / 4.0, rtol=1e-14)


def test_location_equals_model_output():
    state, U = fitted_state()
    outputs = expected_output(U, state.factor_means)
    for n in range(0, U.shape[1], 17):
        locations, _, _ = predictive_arrays(state, U[:, [n]])
        target = outputs[n]
        assert abs(locations[0] - target) <= 1e-14 * (1.0 + abs(target))


def test_variance_exceeds_the_noise_floor():
    state, U = fitted_state(seed=1)
    locations, scale_sq, dof = predictive_arrays(state, U)
    floor = float(state.noise.rate / state.noise.shape)
    assert np.all(scale_sq >= floor - 1e-15)
    assert dof == 2.0 * float(state.noise.shape)


def test_predictive_arrays_match_conjugate_regression_oracle():
    rng = np.random.default_rng(2)
    n, memory = 120, 3
    u = rng.uniform(0.0, 1.0, n)
    U = build_lagged_matrix(u, memory)
    w = rng.standard_normal(memory + 1)
    y = w @ U + 0.05 * rng.standard_normal(n)
    sweeps = 40
    config = FitConfig(order=1, rank=1, max_iter=sweeps, elbo_rel_tol=1e-300, seed=0)
    state, _ = identify(U, y, config)
    oracle = vb_linear_oracle(U, y, sweeps)
    for trial in range(5):
        window = np.concatenate([[1.0], rng.uniform(0.0, 1.0, memory)])
        locations, scale_sq, pred_dof = predictive_arrays(state, window[:, None])
        loc, scale, dof = student_t_oracle(window, oracle)
        assert abs(locations[0] - loc) <= 1e-10 * (1.0 + abs(loc))
        assert abs(np.sqrt(scale_sq[0]) - scale) <= 1e-10 * scale
        assert abs(pred_dof - dof) <= 1e-10 * dof


def test_nll_gaussian_limit():
    dof = 1e6
    scale = float(np.sqrt((dof - 2.0) / dof))  # unit predictive variance
    value = nll(np.zeros(1), np.zeros(1), np.array([scale]), dof)
    assert abs(value - GAUSS_CONST) < 1e-3


@pytest.mark.parametrize("dof", [2.5, 10.0, 1e3, 1e6, 1e8])
def test_nll_equals_scipy_student_t(dof):
    rng = np.random.default_rng(17)
    y = 3.0 * rng.standard_normal(4000)
    locations = rng.standard_normal(4000)
    scales = rng.uniform(0.05, 4.0, 4000)
    expected = -np.mean(stats.t.logpdf(y, df=dof, loc=locations, scale=scales))
    assert_allclose(nll(y, locations, scales, dof), expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("dof", [float("nan"), float("inf"), -float("inf"), 0.0, -3.0])
def test_nll_rejects_dof_that_is_not_positive_and_finite(dof):
    # scipy.stats returned NaN for these, and scored dof = inf as a Gaussian
    with pytest.raises(ValueError, match="dof"):
        nll(np.zeros(2), np.zeros(2), np.ones(2), dof)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_nll_rejects_scales_that_are_not_positive_and_finite(bad):
    with pytest.raises(ValueError, match="scales"):
        nll(np.zeros(2), np.zeros(2), np.array([1.0, bad]), 5.0)


def test_nll_grows_with_scale_at_the_mode():
    y = np.zeros(1)
    small = nll(y, y, np.array([1.0]), 10.0)
    large = nll(y, y, np.array([1e3]), 10.0)
    assert large > small
    assert large > np.log(1e3)  # dominated by the log-scale term


def test_rmse_examples():
    y = np.array([1.0, -2.0, 0.5])
    assert rmse(y, y) == 0.0
    assert_allclose(rmse(y, y + 0.3), 0.3, rtol=1e-12)
    with pytest.raises(ValueError):
        rmse(np.zeros(2), y)


def test_nll_rejects_length_mismatch():
    with pytest.raises(ValueError):
        nll(np.zeros(2), np.zeros(3), np.ones(3), 5.0)


def test_predictive_arrays_batched_match_single_windows():
    # batched and one-column BLAS paths may differ in the last ulp
    state, U = fitted_state(seed=3, n=40)
    locations, scale_sq, dof = predictive_arrays(state, U[:, :10])
    for n in range(10):
        location, single_sq, single_dof = predictive_arrays(state, U[:, [n]])
        assert locations[n] == pytest.approx(location[0], rel=1e-12, abs=1e-15)
        assert scale_sq[n] == pytest.approx(single_sq[0], rel=1e-12)
        assert dof == single_dof


def test_predictive_arrays_across_block_edges():
    # two full scoring blocks and a ragged one, against the explicit
    # Kronecker design column g = kron(h, u) and g' Sigma g per window
    rng = np.random.default_rng(9)
    order, rank, memory, n = 3, 4, 6, 1100
    assert 2 * SCORE_BLOCK < n < 3 * SCORE_BLOCK
    state = init_state(order, memory, rank, seed=9)
    size = rank * (memory + 1)
    for f in state.factors:
        f.mean[...] = rng.standard_normal(f.mean.shape)
        root = rng.standard_normal((size, size))
        f.cov[...] = root @ root.T / size + 0.1 * np.eye(size)
    state.noise = GammaPosterior(3.0, 2.0)
    U = build_lagged_matrix(rng.uniform(-1.0, 1.0, n), memory)
    _, scale_sq, dof = predictive_arrays(state, U)
    expected = np.full(n, 2.0 / 3.0)
    for col in range(n):
        u = U[:, col]
        for d, f in enumerate(state.factors):
            h = np.ones(rank)
            for k, other in enumerate(state.factors):
                if k != d:
                    h = h * (other.mean.T @ u)
            g = np.kron(h, u)
            expected[col] += g @ f.cov @ g
    assert_allclose(scale_sq, expected, rtol=1e-12)
    assert dof == 6.0


def test_predictive_arrays_hold_one_block_square_at_a_time():
    # beyond the state: one coefficient array per factor and the window
    # square of one block, plus O(R(R+1)/2 I(I+1)/2 + R N) scratch
    order, rank, memory, n = 2, 4, 60, 3 * SCORE_BLOCK + 50
    window = memory + 1
    rng = np.random.default_rng(24)
    U = build_lagged_matrix(rng.uniform(0.0, 1.0, n), memory)
    state = init_state(order, memory, rank, seed=24)
    pairs, squares = rank * (rank + 1) // 2, window * (window + 1) // 2
    small = pairs * squares + (pairs + rank) * SCORE_BLOCK + rank * n
    peak = traced_peak(lambda: predictive_arrays(state, U))
    assert peak <= 8 * (order * pairs * squares + SCORE_BLOCK * squares
                        + 2 * small)


def scoring_state(seed, order=3, memory=8, rank=3):
    """A state with random means and covariances and a non-trivial
    normalization, so every term of the predictive variance counts."""
    rng = np.random.default_rng(seed)
    state = init_state(order, memory, rank, seed=seed,
                       normalization=NormalizationRecord(
                           input_min=-1.0, input_max=3.0,
                           output_mean=0.5, output_std=2.5))
    size = rank * (memory + 1)
    for f in state.factors:
        f.mean[...] = rng.standard_normal(f.mean.shape)
        root = rng.standard_normal((size, size))
        f.cov[...] = root @ root.T / size + 0.1 * np.eye(size)
    state.noise = GammaPosterior(3.0, 2.0)
    return state


@pytest.mark.parametrize("start", [0, 5, SCORE_BLOCK + 190])
def test_predict_and_evaluate_equal_the_full_window_formulas(start):
    # at least three lag blocks after `start`, bit for bit
    state = scoring_state(10)
    rng = np.random.default_rng(10)
    n = start + 3 * SCORE_BLOCK + 77
    u = rng.uniform(-1.0, 3.0, n)
    y = rng.standard_normal(n)
    locations, scales, dof = predict(state, u, start=start)
    ref_locations, ref_scales, ref_dof = full_window_predict(state, u, start=start)
    assert_array_equal(locations, ref_locations)
    assert_array_equal(scales, ref_scales)
    assert dof == ref_dof
    report = evaluate(state, u, y, start=start)
    assert_array_equal(report.locations, ref_locations)
    assert_array_equal(report.scales, ref_scales)
    assert report.rmse == rmse(y[start:], ref_locations)
    assert report.nll == nll(y[start:], ref_locations, ref_scales, ref_dof)


def test_predict_refuses_a_start_that_is_not_an_integer():
    state = scoring_state(11, memory=3)
    u = np.random.default_rng(11).uniform(0.0, 1.0, 40)
    y = np.zeros(40)
    for bad in (2.5, 2.0, "2", None, True, np.True_):
        with pytest.raises(ValueError, match="start"):
            predict(state, u, start=bad)
        with pytest.raises(ValueError, match="start"):
            evaluate(state, u, y, start=bad)
    expected = predict(state, u, start=2)
    for got, want in zip(predict(state, u, start=np.int64(2)), expected):
        assert_array_equal(got, want)


def test_predict_holds_no_window_matrix():
    # a few N-vectors, one block's windows and window square, the D
    # coefficient arrays and O((R(R+1)/2 + D R) SCORE_BLOCK) scratch; the
    # I x N window matrix alone would exceed it
    order, rank, memory, n = 2, 2, 50, 40_000
    window = memory + 1
    pairs, squares = rank * (rank + 1) // 2, window * (window + 1) // 2
    state = scoring_state(12, order=order, memory=memory, rank=rank)
    u = np.random.default_rng(12).uniform(-1.0, 3.0, n)
    bound = 8 * (4 * n + window * (SCORE_BLOCK + memory) + squares * SCORE_BLOCK
                 + order * pairs * squares + 4 * (pairs + order * rank) * SCORE_BLOCK)
    assert 8 * window * n > bound
    assert traced_peak(lambda: predict(state, u)) <= bound


def test_predict_maps_to_original_units():
    state, _ = fitted_state(seed=6, n=60)
    state.normalization = NormalizationRecord(input_min=-1.0, input_max=3.0,
                                              output_mean=2.0, output_std=3.0)
    u = np.random.default_rng(6).uniform(-1.0, 3.0, 60)
    locations, scales, dof = predict(state, u, start=5)
    assert locations.shape == scales.shape == (55,)
    U = build_lagged_matrix((u + 1.0) / 4.0, state.memory)
    model_loc, scale_sq, model_dof = predictive_arrays(state, U[:, 5:])
    assert_allclose(locations, 2.0 + 3.0 * model_loc, rtol=1e-12)
    assert_allclose(scales, 3.0 * np.sqrt(scale_sq), rtol=1e-12)
    assert dof == model_dof
    # the windows after `start` see the record before it
    full_loc, full_scales, _ = predict(state, u)
    assert_allclose(locations, full_loc[5:], rtol=1e-12)
    assert_allclose(scales, full_scales[5:], rtol=1e-12)
    with pytest.raises(ValueError):
        predict(state, u, start=60)


def test_evaluate_reports_original_units():
    rng = np.random.default_rng(4)
    n, memory = 200, 3
    u = rng.uniform(0.0, 1.0, n)
    U = build_lagged_matrix(u, memory)
    w = rng.standard_normal(memory + 1)
    y_model = w @ U + 0.05 * rng.standard_normal(n)
    record = NormalizationRecord(input_min=0.0, input_max=1.0,
                                 output_mean=-1.0, output_std=2.0)
    y_raw = record.output_mean + record.output_std * y_model

    config = FitConfig(order=1, rank=1, max_iter=30, seed=0)
    state, _ = identify(U, y_model, config, normalization=record)

    report = evaluate(state, u, y_raw, start=150)
    assert report.locations.shape == (50,)
    locations, scale_sq, dof = predictive_arrays(state, U[:, 150:])
    assert_allclose(report.locations,
                    record.output_mean + record.output_std * locations, rtol=1e-12)
    assert_allclose(report.scales,
                    record.output_std * np.sqrt(scale_sq), rtol=1e-12)
    assert report.dof == dof
    # metrics agree with the textbook formulas in raw units
    y_val = y_raw[150:]
    assert_allclose(report.rmse,
                    np.sqrt(np.mean((report.locations - y_val) ** 2)), rtol=1e-12)
    logpdf = student_t_logpdf(y_val, report.locations, report.scales, dof)
    assert_allclose(report.nll, -np.mean(logpdf), rtol=1e-10)
    assert_allclose(report.variances, dof / (dof - 2.0) * report.scales**2,
                    rtol=1e-14)


def test_evaluate_skip_drops_leading_samples():
    # skipping warm-up samples is a later start; the scored windows still
    # see the skipped input as their past
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 1.0, 50)
    y = rng.standard_normal(50)
    state, _ = fitted_state(seed=5, n=50, memory=4)
    full = evaluate(state, u, y)
    skipped = evaluate(state, u, y, start=10)
    assert skipped.locations.shape == (40,)
    assert_allclose(skipped.locations, full.locations[10:], rtol=1e-14)
    with pytest.raises(ValueError):
        evaluate(state, u, y, start=50)
    with pytest.raises(ValueError):
        evaluate(state, u, np.append(y, 0.0))


def test_evaluate_rejects_non_finite_records():
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 1.0, 30)
    y = rng.standard_normal(30)
    state, _ = fitted_state(seed=7, n=30, memory=4)
    for bad_u, bad_y in ((u, np.where(np.arange(30) == 20, np.nan, y)),
                         (np.where(np.arange(30) == 3, np.inf, u), y)):
        with pytest.raises(ValueError, match="finite"):
            evaluate(state, bad_u, bad_y)
