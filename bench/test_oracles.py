"""Tests of the benchmark's reference computations.

    python3 -m pytest bench/test_oracles.py

Hand-computed cases for each helper, plus perturbed values that the
checks must reject. The package is used only as the thing the checks
compare against.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bayesvolterra as bv  # noqa: E402
import oracles  # noqa: E402


def test_lag_window_pads_before_the_record():
    x = [0.1, 0.2, 0.3]
    assert oracles.lag_window(x, 0, 2).tolist() == [1.0, 0.1, 0.0]
    assert oracles.lag_window(x, 2, 2).tolist() == [1.0, 0.3, 0.2]


def test_kron_chain_first_vector_fastest():
    assert oracles.kron_chain([[1, 2], [1, 10]]).tolist() == [1, 2, 10, 20]


def test_full_coefficients_and_location_by_hand():
    means = [np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])]
    coefficients = oracles.full_coefficients(means)
    assert coefficients.tolist() == [3.0, 6.0, 4.0, 8.0]
    x = 0.5
    window = np.array([1.0, x])
    # (1 + 2x)(3 + 4x) expanded over the monomials (1, x, x, x^2)
    assert coefficients @ oracles.kron_chain([window, window]) == (1 + 2 * x) * (3 + 4 * x)


def test_predictive_point_single_factor_by_hand():
    means = [np.array([[2.0], [3.0]])]
    covs = [np.diag([0.1, 0.2])]
    window = np.array([1.0, 2.0])
    location, scale = oracles.predictive_point(
        means, covs, 2.0, 1.0, window, oracles.full_coefficients(means))
    assert location == 8.0
    # b/a + g' Sigma g with g = window: 0.5 + 0.1 + 0.8
    assert scale == pytest.approx(math.sqrt(1.4), rel=1e-15)


def test_predictive_point_two_factors_by_hand():
    means = [np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])]
    covs = [np.eye(2), np.eye(2)]
    window = np.array([1.0, 1.0])
    location, scale = oracles.predictive_point(
        means, covs, 1.0, 1.0, window, oracles.full_coefficients(means))
    assert location == 21.0
    # g_0 = 7 * window and g_1 = 3 * window: 1 + 98 + 18
    assert scale == pytest.approx(math.sqrt(117.0), rel=1e-15)


def test_student_t_logpdf_cauchy_by_hand_and_against_scipy():
    assert oracles.student_t_logpdf(0.0, 0.0, 2.0, 1.0) == pytest.approx(-math.log(2 * math.pi))
    assert oracles.student_t_logpdf(3.0, 1.0, 2.0, 1.0) == pytest.approx(
        -math.log(4 * math.pi))
    for x, loc, scale, dof in [(0.3, -0.2, 0.7, 4.5), (5.0, 0.0, 0.1, 2048.0)]:
        assert oracles.student_t_logpdf(x, loc, scale, dof) == pytest.approx(
            float(stats.t.logpdf(x, df=dof, loc=loc, scale=scale)), rel=1e-12)


def test_rmse_and_nll_by_hand():
    assert oracles.rmse([0.0, 0.0], [3.0, 4.0]) == math.sqrt(12.5)
    assert oracles.mean_nll([0.0, 0.0], [0.0, 0.0], [2.0, 2.0], 1.0) == pytest.approx(
        math.log(2 * math.pi))


def test_elbo_check_accepts_rise_and_rank_change_rejects_fall_and_nan():
    assert oracles.check_elbo_trace([-10.0, -5.0, -4.0], [3, 3, 3]) == []
    assert oracles.check_elbo_trace([-10.0, -12.0], [3, 2]) == []
    assert oracles.check_elbo_trace([-10.0, -10.5], [3, 3])
    assert oracles.check_elbo_trace([-10.0, float("nan")], [3, 3])


def test_gamma_shape_check_is_exact():
    priors = {"noise_shape": 1e-6, "col_shape": 1e-6}
    assert oracles.check_gamma_shapes(1e-6 + 500, [1e-6 + 11.0] * 3, priors, 1000, 2, 11) == []
    assert oracles.check_gamma_shapes(1e-6 + 500 + 1e-9, [1e-6 + 11.0], priors, 1000, 2, 11)
    assert oracles.check_gamma_shapes(1e-6 + 500, [1e-6 + 11.5], priors, 1000, 2, 11)


@pytest.fixture(scope="module")
def scored():
    """A random rank-2, order-2 posterior scored by the package."""
    rng = np.random.default_rng(3)
    memory, n = 4, 60
    u = rng.uniform(0.0, 1.0, n)
    y = rng.standard_normal(n)
    record = bv.NormalizationRecord(input_min=0.0, input_max=1.0, output_mean=0.3,
                                    output_std=2.0)
    state = bv.init_state(2, memory, 2, seed=1, normalization=record)
    size = (memory + 1) * 2
    for f in state.factors:
        a = rng.standard_normal((size, size))
        f.cov = a @ a.T / size + 0.1 * np.eye(size)
    state.noise = bv.GammaPosterior(7.0, 3.0)
    report = bv.evaluate(state, u, y, start=20)
    model = {
        "means": [f.mean for f in state.factors],
        "covs": [f.cov for f in state.factors],
        "noise_shape": 7.0,
        "noise_rate": 3.0,
        "memory": memory,
        "output_mean": 0.3,
        "output_std": 2.0,
    }
    rows = list(range(20, n, 7))
    offset = [r - 20 for r in rows]
    return model, u, y, rows, report, offset


def test_prediction_check_accepts_package_values(scored):
    model, u, y, rows, report, offset = scored
    assert oracles.check_predictions(model, u, y, rows, report.locations[offset],
                                     report.scales[offset], report.dof) == []
    assert oracles.check_metrics(y[20:], report.locations, report.scales, report.dof,
                                 report.rmse, report.nll) == []


def test_prediction_check_rejects_perturbed_values(scored):
    model, u, y, rows, report, offset = scored
    loc = report.locations[offset].copy()
    scale = report.scales[offset].copy()
    bumped = loc.copy()
    bumped[2] *= 1 + 1e-6
    assert oracles.check_predictions(model, u, y, rows, bumped, scale, report.dof)
    bumped = scale.copy()
    bumped[0] *= 1 + 1e-6
    assert oracles.check_predictions(model, u, y, rows, loc, bumped, report.dof)
    assert oracles.check_predictions(model, u, y, rows, loc, scale, report.dof + 1.0)
    assert oracles.check_metrics(y[20:], report.locations, report.scales, report.dof,
                                 report.rmse * (1 + 1e-6), report.nll)


def test_series_and_bound_checks():
    assert oracles.check_close_series("s", [1.0, 2.0], [1.0, 2.0 + 1e-12], 1e-8) == []
    assert oracles.check_close_series("s", [1.0, 2.0], [1.0, 2.001], 1e-8)
    assert oracles.check_close_series("s", [1.0], [1.0, 2.0], 1e-8)
    assert oracles.check_at_most("r", 1.05, 1.1) == []
    assert oracles.check_at_most("r", 1.2, 1.1)
