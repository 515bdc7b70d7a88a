"""Coordinate updates, ELBO, truncation, and the identification loop.

The conjugate updates are checked against independently coded references:
a plain variational linear regression for the single-factor case, a
brute-force assembly of the Gaussian update for a tiny two-factor case,
and numerical quadrature for the bound itself on a one-parameter model.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats
from scipy.integrate import quad
from scipy.special import gammaln

from bayesvolterra import (
    FactorPosterior,
    FitConfig,
    GammaPosterior,
    ModelState,
    NormalizationRecord,
    NumericFailure,
    PriorConfig,
    build_lagged_matrix,
    compute_elbo,
    evaluate,
    expected_output,
    expected_residual,
    identify,
    init_state,
    kept_pairs,
    khatri_rao,
    second_moments,
    truncate_rank,
    update_col_precisions,
    update_factor,
    update_noise_precision,
    update_row_precisions,
    window_pairs,
)
from bayesvolterra import inference

from _oracles import (
    full_second_moments,
    make_rank2_data,
    stack_product,
    traced_peak,
    unpack,
    vb_linear_oracle,
)


def regression_problem(seed, n=200, memory=5, noise=0.1):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    U = build_lagged_matrix(u, memory)
    w = rng.standard_normal(memory + 1)
    y = w @ U + noise * rng.standard_normal(n)
    return U, y


def scalar_state(mean, var, col_mean, row_mean, noise_mean, priors=None):
    """A one-entry, one-column state with prescribed posterior moments."""
    return ModelState(
        order=1,
        memory=0,
        factors=[FactorPosterior(np.array([[mean]]), np.array([[var]]),
                                 cov_logdet=float(np.log(var)))],
        col_prec=GammaPosterior(np.array([2.0 * col_mean]), np.array([2.0])),
        row_prec=GammaPosterior(np.array([2.0 * row_mean]), np.array([2.0])),
        noise=GammaPosterior(2.0 * noise_mean, 2.0),
        priors=priors if priors is not None else PriorConfig(),
    )


# The steps take the sweep's statistics as arguments; these helpers
# recompute them from the state, as a test that moves one coordinate needs.
def stacks(state, U):
    uu = window_pairs(U)
    return [second_moments(U, f.mean, f.cov, uu) for f in state.factors]


def residual(state, U, y):
    product = stack_product(stacks(state, U), state.rank, y.size)
    return expected_residual(U, y, state.factor_means, product)


def update(state, U, y, mode):
    moments = stacks(state, U)
    weights = stack_product(moments[:mode] + moments[mode + 1:], state.rank, y.size)
    return update_factor(state, U, y, mode, weights, window_pairs(U))


def noise_update(state, U, y):
    return update_noise_precision(state, y.size, residual(state, U, y))


def elbo(state, U, y):
    return compute_elbo(state, y.size, residual(state, U, y))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(order=0)
    with pytest.raises(ValueError):
        FitConfig(order=1, rank=0)
    with pytest.raises(ValueError):
        FitConfig(order=1, max_iter=0)
    with pytest.raises(ValueError):
        FitConfig(order=1, elbo_rel_tol=0.0)
    with pytest.raises(ValueError):
        FitConfig(order=1, truncation_threshold=-1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="elbo_rel_tol"):
            FitConfig(order=1, elbo_rel_tol=bad)
        with pytest.raises(ValueError, match="truncation_threshold"):
            FitConfig(order=1, truncation_threshold=bad)
    with pytest.raises(ValueError, match="seed"):
        FitConfig(order=1, seed=-1)
    # booleans and strings are not read as numbers or flags
    for bad in ("off", "on", 0, 1, None):
        with pytest.raises(ValueError, match="lag_sparsity"):
            FitConfig(order=1, lag_sparsity=bad)
    for name in ("elbo_rel_tol", "truncation_threshold"):
        for bad in (True, np.True_, "1e-3", None):
            with pytest.raises(ValueError, match=name):
                FitConfig(order=1, **{name: bad})
    for bad in (True, np.True_, "0.5"):
        with pytest.raises(ValueError, match="noise_shape"):
            PriorConfig(noise_shape=bad)
    assert FitConfig(order=1, lag_sparsity=np.False_).lag_sparsity is False


@pytest.mark.parametrize("field, value", [
    ("order", 2.0), ("order", True), ("order", "2"), ("rank", 2.5),
    ("rank", np.float64(2.0)), ("rank", np.True_), ("max_iter", 3.5),
    ("max_iter", False), ("seed", 1.5), ("seed", True), ("seed", None),
])
def test_fit_config_refuses_fields_that_are_not_integers(field, value):
    settings = {"order": 2, "rank": 2, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        FitConfig(**settings)


def test_fit_config_stores_numpy_integers_as_ints():
    config = FitConfig(order=np.int64(2), rank=np.int32(3), max_iter=np.uint8(4),
                       seed=np.int16(5))
    values = (config.order, config.rank, config.max_iter, config.seed)
    assert values == (2, 3, 4, 5)
    assert all(type(value) is int for value in values)


def test_factor_update_zero_targets_give_zero_means():
    U, _ = regression_problem(0, n=50, memory=3)
    state = init_state(2, 3, 2, seed=0)
    update(state, U, np.zeros(50), 0)
    assert_array_equal(state.factors[0].mean, np.zeros((4, 2)))


def test_factor_covariance_ignores_targets():
    U, y = regression_problem(1, n=50, memory=3)
    state_a = init_state(2, 3, 2, seed=1)
    state_b = init_state(2, 3, 2, seed=1)
    update(state_a, U, y, 0)
    update(state_b, U, 2.0 * y - 1.0, 0)
    assert_array_equal(state_a.factors[0].cov, state_b.factors[0].cov)


def test_factor_update_matches_ridge_regression():
    # single factor, single column: the update is exactly a Gaussian
    # linear-regression posterior with precision tau*U U' + lam*diag(delta)
    U, y = regression_problem(2, n=80, memory=4)
    window = 5
    rng = np.random.default_rng(3)
    state = init_state(1, 4, 1, seed=2)
    lam = float(rng.uniform(0.5, 2.0))
    dlt = rng.uniform(0.5, 2.0, window)
    tau = float(rng.uniform(0.5, 2.0))
    state.col_prec = GammaPosterior(np.array([lam]), np.array([1.0]))
    state.row_prec = GammaPosterior(dlt, np.ones(window))
    state.noise = GammaPosterior(tau, 1.0)

    posterior = update(state, U, y, 0)
    cov = np.linalg.inv(tau * (U @ U.T) + lam * np.diag(dlt))
    mean = tau * (cov @ (U @ y))
    assert_allclose(posterior.cov, cov, rtol=1e-10, atol=1e-12)
    assert_allclose(posterior.mean[:, 0], mean, rtol=1e-10)


def test_factor_update_matches_brute_force_assembly():
    # two factors, window 2, rank 1: build the expected Gram by hand from
    # the other factor's exact second moments and invert directly
    rng = np.random.default_rng(4)
    n = 3
    U = np.vstack([np.ones(n), rng.uniform(0.0, 1.0, n)])
    y = rng.standard_normal(n)
    state = init_state(2, 1, 1, seed=4)
    m1 = rng.standard_normal((2, 1))
    c1 = rng.standard_normal((2, 2))
    c1 = c1 @ c1.T + np.eye(2)
    state.factors[1] = FactorPosterior(m1, c1)
    lam = 1.3
    dlt = np.array([0.7, 1.9])
    tau = 2.4
    state.col_prec = GammaPosterior(np.array([lam]), np.array([1.0]))
    state.row_prec = GammaPosterior(dlt, np.ones(2))
    state.noise = GammaPosterior(tau, 1.0)

    gram = np.zeros((2, 2))
    rhs = np.zeros(2)
    for t in range(n):
        u_t = U[:, t]
        moment = float(m1[:, 0] @ u_t) ** 2 + float(u_t @ c1 @ u_t)
        gram += moment * np.outer(u_t, u_t)
        rhs += float(m1[:, 0] @ u_t) * y[t] * u_t
    cov = np.linalg.inv(tau * gram + lam * np.diag(dlt))
    mean = tau * (cov @ rhs)

    posterior = update(state, U, y, 0)
    assert_allclose(posterior.cov, cov, rtol=1e-10)
    assert_allclose(posterior.mean[:, 0], mean, rtol=1e-10)


def spd_problem(seed, size=40):
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((size, size + 5))
    return root @ root.T / size + 0.1 * np.eye(size), rng.standard_normal(size)


@pytest.mark.parametrize("size", [1, 7, 40, 600])
def test_solve_spd_matches_dense_linear_algebra(size):
    # 600 spans more than one band of the lower-to-upper copy; the solver
    # consumes its argument, so it gets a copy
    matrix, rhs = spd_problem(size, size)
    inverse, solution, logdet = inference._solve_spd(matrix.copy(), rhs, "test")
    assert np.array_equal(inverse, inverse.T)
    assert_allclose(inverse, np.linalg.inv(matrix), rtol=1e-10,
                    atol=1e-12 * np.abs(inverse).max())
    assert_allclose(solution, np.linalg.solve(matrix, rhs), rtol=1e-10)
    sign, expected = np.linalg.slogdet(matrix)
    assert sign == 1.0
    assert_allclose(logdet, expected, rtol=1e-12)


def test_solve_spd_retries_a_singular_psd_matrix_with_jitter():
    rng = np.random.default_rng(31)
    root = rng.standard_normal((6, 3))
    matrix = root @ root.T  # rank 3, so the first Cholesky fails
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(matrix)
    jitter = 1e-10 * float(np.trace(matrix)) / 6
    with pytest.warns(RuntimeWarning, match=f"test: .* jitter {jitter:.3e}"):
        inverse, solution, logdet = inference._solve_spd(matrix.copy(),
                                                         np.ones(6), "test")
    shifted = matrix + jitter * np.eye(6)
    assert np.array_equal(inverse, inverse.T)
    assert_allclose(inverse @ shifted, np.eye(6), atol=1e-4)
    assert_allclose(logdet, np.linalg.slogdet(shifted)[1], rtol=1e-6)
    assert np.isfinite(solution).all()


def test_solve_spd_returns_the_inverse_in_the_argument():
    matrix, rhs = spd_problem(33, 50)
    expected = np.linalg.inv(matrix)
    buffer = matrix.copy()
    inverse, _, _ = inference._solve_spd(buffer, rhs, "test")
    assert np.shares_memory(inverse, buffer)
    assert inverse.flags.c_contiguous
    assert np.array_equal(buffer, inverse)
    assert_allclose(inverse, expected, rtol=1e-10, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("size", [6, 300])
def test_solve_spd_retry_restores_a_matrix_that_failed_at_its_last_pivot(size):
    # L L' with a unit-diagonal integer L whose last pivot is 0: every step
    # of the factor is exact, so potrf overwrites all of the triangle but
    # the last pivot before it fails there
    rng = np.random.default_rng(size)
    root = np.tril(rng.integers(-1, 2, (size, size)), -1).astype(float)
    root[np.diag_indices(size - 1)] = 1.0
    matrix = root @ root.T
    assert matrix[-1, -1] > 0
    rhs = rng.standard_normal(size)
    jitter = 1e-10 * float(np.trace(matrix)) / size
    with pytest.warns(RuntimeWarning, match=f"test: .* jitter {jitter:.3e}"):
        retried = inference._solve_spd(matrix.copy(), rhs, "test")
    fresh = inference._solve_spd(matrix + jitter * np.eye(size), rhs, "test")
    for got, want in zip(retried, fresh, strict=True):
        assert np.array_equal(got, want)


def test_solve_spd_refuses_an_indefinite_matrix():
    matrix = np.diag([1.0, 2.0, -3.0])
    with pytest.raises(NumericFailure, match="factor 2: Cholesky failed twice"):
        inference._solve_spd(matrix, np.ones(3), "factor 2")


@pytest.mark.parametrize("size", [5, 300])
def test_solve_spd_refuses_a_nan_off_diagonal_entry(size):
    # cho_factor does not scan for NaN, which reaches the factor silently
    matrix, rhs = spd_problem(size + 1, size)
    matrix[size - 1, size // 3] = matrix[size // 3, size - 1] = np.nan
    with pytest.raises(NumericFailure, match="factor 2: Cholesky factor is not finite"):
        inference._solve_spd(matrix, rhs, "factor 2")


def test_solve_spd_reports_a_failed_inverse(monkeypatch):
    monkeypatch.setattr(inference, "dpotri", lambda c, **kwargs: (c, 2))
    matrix, rhs = spd_problem(32, 5)
    with pytest.raises(NumericFailure, match="factor 1: dpotri failed"):
        inference._solve_spd(matrix, rhs, "factor 1")


def test_row_precision_update_oracle():
    w, s, lam = 0.8, 0.3, 1.7
    state = scalar_state(w, s, col_mean=lam, row_mean=1.0, noise_mean=1.0)
    posterior = update_row_precisions(state)
    priors = state.priors
    assert_allclose(np.asarray(posterior.shape), priors.row_shape + 0.5)
    assert_allclose(
        np.asarray(posterior.rate),
        priors.row_rate + 0.5 * lam * (w**2 + s),
        rtol=1e-12,
    )


def test_row_precision_shape_increment_is_data_independent():
    for order, memory, rank in [(1, 3, 2), (2, 4, 3), (3, 2, 1)]:
        state = init_state(order, memory, rank, seed=0)
        posterior = update_row_precisions(state)
        expected = state.priors.row_shape + 0.5 * order * rank
        assert_array_equal(np.asarray(posterior.shape),
                           np.full(memory + 1, expected))


def test_row_precision_update_on_zero_factors():
    state = init_state(2, 3, 2, seed=0)
    for f in state.factors:
        f.mean[...] = 0.0
        f.cov[...] = 0.0
    posterior = update_row_precisions(state)
    priors = state.priors
    assert_array_equal(np.asarray(posterior.rate), np.full(4, priors.row_rate))
    expected_mean = (priors.row_shape + 2.0) / priors.row_rate
    assert_allclose(np.asarray(posterior.mean), np.full(4, expected_mean))


def test_row_precision_update_refused_when_fixed():
    state = init_state(2, 3, 2, seed=0, row_prec_fixed=True)
    with pytest.raises(ValueError):
        update_row_precisions(state)


def test_col_precision_update_oracle():
    w, s, dlt = -0.6, 0.2, 2.2
    state = scalar_state(w, s, col_mean=1.0, row_mean=dlt, noise_mean=1.0)
    posterior = update_col_precisions(state)
    priors = state.priors
    assert_allclose(np.asarray(posterior.shape), priors.col_shape + 0.5)
    assert_allclose(
        np.asarray(posterior.rate),
        priors.col_rate + 0.5 * dlt * (w**2 + s),
        rtol=1e-12,
    )


def test_col_precision_update_on_zero_factors():
    state = init_state(2, 3, 2, seed=0)
    for f in state.factors:
        f.mean[...] = 0.0
        f.cov[...] = 0.0
    posterior = update_col_precisions(state)
    priors = state.priors
    assert_array_equal(np.asarray(posterior.rate), np.full(2, priors.col_rate))
    assert_array_equal(np.asarray(posterior.shape),
                       np.full(2, priors.col_shape + 0.5 * 2 * 4))


def test_noise_update_shape_increment():
    U, y = regression_problem(5, n=10, memory=2)
    state = init_state(1, 2, 1, seed=5)
    posterior = noise_update(state, U, y)
    assert posterior.shape == state.priors.noise_shape + 5.0


def test_noise_update_clamps_a_negative_residual_with_a_warning():
    state = init_state(1, 2, 1, seed=5)
    with pytest.warns(RuntimeWarning, match=r"-1\.000e-12 is negative; clamped"):
        posterior = update_noise_precision(state, 10, -1e-12)
    assert posterior.rate == state.priors.noise_rate
    assert posterior.shape == state.priors.noise_shape + 5.0


def test_update_factor_allocates_one_covariance_sized_array():
    # beyond the state, the precision is the only (R*I)^2 array; the rest
    # is O(R(R+1)/2 I(I+1)/2 + R N) scratch
    rank, memory, n = 8, 60, 400
    window = memory + 1
    U, y = regression_problem(41, n=n, memory=memory)
    state = init_state(2, memory, rank, seed=41)
    uu = window_pairs(U)
    weights = second_moments(U, state.factors[1].mean, state.factors[1].cov, uu)
    small = (rank * (rank + 1) // 2) * (window * (window + 1) // 2) + rank * n
    peak = traced_peak(lambda: update_factor(state, U, y, 0, weights, uu))
    assert peak <= 8 * ((rank * window) ** 2 + 2 * small)


def test_noise_update_on_a_perfect_fit():
    rng = np.random.default_rng(6)
    U = build_lagged_matrix(rng.uniform(0.0, 1.0, 50), 3)
    state = init_state(1, 3, 1, seed=6)
    state.factors[0].cov[...] = 0.0
    y = expected_output(U, state.factor_means)
    posterior = noise_update(state, U, y)
    assert posterior.rate == pytest.approx(state.priors.noise_rate, abs=1e-10)
    assert posterior.mean > 1e6


def test_elbo_is_invariant_on_an_unchanged_state():
    U, y = regression_problem(7, n=60, memory=3)
    state = init_state(2, 3, 2, seed=7)
    update(state, U, y, 0)
    first = elbo(state, U, y)
    second = elbo(state, U, y)
    assert first == second


def test_elbo_rises_with_every_coordinate_update():
    U, y = regression_problem(8, n=80, memory=4, noise=0.2)
    state = init_state(2, 4, 3, seed=8)
    bound = elbo(state, U, y)
    for _ in range(3):
        for d in range(state.order):
            update(state, U, y, d)
            bound = _assert_no_decrease(state, U, y, bound)
        update_row_precisions(state)
        bound = _assert_no_decrease(state, U, y, bound)
        update_col_precisions(state)
        bound = _assert_no_decrease(state, U, y, bound)
        noise_update(state, U, y)
        bound = _assert_no_decrease(state, U, y, bound)


def _assert_no_decrease(state, U, y, previous):
    bound = elbo(state, U, y)
    assert bound >= previous - 1e-8 * (1.0 + abs(previous))
    return bound


def test_elbo_matches_quadrature_on_a_scalar_model():
    # one factor entry, one column, two samples: every posterior factor is
    # one-dimensional, so E_q[ln p] + H(q) splits into 1-d integrals
    U = np.array([[0.8, 1.3]])
    y = np.array([0.5, -0.3])
    priors = PriorConfig(noise_shape=0.5, noise_rate=0.5, col_shape=0.5,
                         col_rate=0.5, row_shape=0.5, row_rate=0.5)
    state = scalar_state(0.1, 1.0, col_mean=1.0, row_mean=1.0, noise_mean=1.0,
                         priors=priors)
    for _ in range(3):
        update(state, U, y, 0)
        update_row_precisions(state)
        update_col_precisions(state)
        noise_update(state, U, y)
    bound = elbo(state, U, y)

    def gamma_moments(posterior, index=None):
        a = float(np.asarray(posterior.shape).reshape(-1)[index or 0])
        b = float(np.asarray(posterior.rate).reshape(-1)[index or 0])
        dist = stats.gamma(a, scale=1.0 / b)
        mean = quad(lambda x: x * dist.pdf(x), 0.0, np.inf)[0]
        mean_log = quad(lambda x: np.log(x) * dist.pdf(x), 0.0, np.inf)[0]

        def neg_plogp(x):
            p = dist.pdf(x)
            return -p * np.log(p) if p > 0 else 0.0

        entropy = quad(neg_plogp, 0.0, np.inf)[0]
        return mean, mean_log, entropy

    m = float(state.factors[0].mean[0, 0])
    s2 = float(state.factors[0].cov[0, 0])
    w_pdf = stats.norm(m, np.sqrt(s2)).pdf
    w_sq = quad(lambda w: w**2 * w_pdf(w), -np.inf, np.inf)[0]
    fit = quad(lambda w: ((y - w * U[0]) ** 2).sum() * w_pdf(w), -np.inf, np.inf)[0]
    w_entropy = quad(
        lambda w: -w_pdf(w) * np.log(w_pdf(w)) if w_pdf(w) > 0 else 0.0,
        -np.inf, np.inf,
    )[0]

    tau_mean, tau_log, tau_entropy = gamma_moments(state.noise)
    lam_mean, lam_log, lam_entropy = gamma_moments(state.col_prec)
    dlt_mean, dlt_log, dlt_entropy = gamma_moments(state.row_prec)

    # expected log joint, term by term
    log2pi = np.log(2.0 * np.pi)

    def expected_gamma_logprior(mean, mean_log, a0, b0):
        return a0 * np.log(b0) - gammaln(a0) + (a0 - 1.0) * mean_log - b0 * mean

    oracle = 0.5 * 2 * (tau_log - log2pi) - 0.5 * tau_mean * fit
    oracle += 0.5 * (lam_log + dlt_log - log2pi) - 0.5 * lam_mean * dlt_mean * w_sq
    oracle += expected_gamma_logprior(tau_mean, tau_log,
                                      priors.noise_shape, priors.noise_rate)
    oracle += expected_gamma_logprior(lam_mean, lam_log,
                                      priors.col_shape, priors.col_rate)
    oracle += expected_gamma_logprior(dlt_mean, dlt_log,
                                      priors.row_shape, priors.row_rate)
    oracle += w_entropy + tau_entropy + lam_entropy + dlt_entropy

    assert abs(bound - oracle) <= 1e-3 * (1.0 + abs(oracle))


def test_identify_matches_linear_regression_oracle():
    U, y = regression_problem(9)
    sweeps = 30
    config = FitConfig(order=1, rank=1, max_iter=sweeps, elbo_rel_tol=1e-300,
                       seed=9)
    state, trace = identify(U, y, config)
    oracle = vb_linear_oracle(U, y, sweeps)
    assert len(trace) == sweeps
    assert_allclose(state.factors[0].mean[:, 0], oracle["mean"], rtol=1e-8)
    assert_allclose(state.factors[0].cov, oracle["cov"], rtol=1e-8)
    assert_allclose(np.asarray(state.row_prec.mean), oracle["delta"], rtol=1e-8)
    assert_allclose(float(state.col_prec.mean[0]), oracle["lam"], rtol=1e-8)
    assert_allclose(float(state.noise.mean), oracle["tau"], rtol=1e-8)


def test_identify_shape_increments_are_exact():
    U, y = regression_problem(10, n=120, memory=3)
    config = FitConfig(order=2, rank=3, max_iter=10,
                       truncation_threshold=1e-12, seed=10)
    state, _ = identify(U, y, config)
    priors = state.priors
    assert state.noise.shape == priors.noise_shape + 0.5 * 120
    assert_array_equal(np.asarray(state.col_prec.shape),
                       np.full(3, priors.col_shape + 0.5 * 2 * 4))
    assert_array_equal(np.asarray(state.row_prec.shape),
                       np.full(4, priors.row_shape + 0.5 * 2 * 3))


def test_identify_zero_targets():
    U, _ = regression_problem(11, n=40, memory=2)
    config = FitConfig(order=2, rank=2, max_iter=5, seed=11)
    state, trace = identify(U, np.zeros(40), config)
    for f in state.factors:
        assert_array_equal(f.mean, np.zeros_like(f.mean))
    assert np.isfinite(trace.elbo).all()


def test_identify_validates_inputs():
    config = FitConfig(order=1, rank=1, max_iter=2)
    with pytest.raises(ValueError):
        identify(np.ones(4), np.ones(4), config)
    with pytest.raises(ValueError):
        identify(np.ones((2, 4)), np.ones(3), config)
    bad = np.ones((2, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        identify(bad, np.ones(4), config)


def test_numeric_failure_carries_the_sweep_index():
    U, _ = regression_problem(12, n=30, memory=2)
    y = np.full(30, 1e200)  # the squared residual overflows
    config = FitConfig(order=1, rank=1, max_iter=5, seed=12)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericFailure) as excinfo:
            identify(U, y, config)
    assert excinfo.value.iteration == 1
    assert "sweep 1" in str(excinfo.value)


def test_identify_is_deterministic():
    U, y = regression_problem(13, n=60, memory=3)
    config = FitConfig(order=2, rank=2, max_iter=8, elbo_rel_tol=1e-300, seed=13)
    state_a, trace_a = identify(U, y, config)
    state_b, trace_b = identify(U, y, config)
    assert trace_a.elbo == trace_b.elbo
    assert trace_a.rank == trace_b.rank
    assert trace_a.noise_mean == trace_b.noise_mean
    for f_a, f_b in zip(state_a.factors, state_b.factors, strict=True):
        assert_array_equal(f_a.mean, f_b.mean)
        assert_array_equal(f_a.cov, f_b.cov)


def test_truncation_drops_exact_zero_columns_without_moving_predictions():
    state = init_state(2, 3, 3, seed=15)
    for f in state.factors:
        f.mean[:, 1] = 0.0
    U = build_lagged_matrix(np.random.default_rng(15).uniform(0.0, 1.0, 20), 3)
    before = expected_output(U, state.factor_means)
    assert_array_equal(truncate_rank(state, 1e-3), [0, 2])
    assert state.rank == 2
    after = expected_output(U, state.factor_means)
    assert_array_equal(before, after)
    assert np.asarray(state.col_prec.shape).shape == (2,)


def test_truncation_keeps_columns_above_threshold():
    state = init_state(2, 3, 3, seed=16)
    means = [f.mean.copy() for f in state.factors]
    assert truncate_rank(state, 1e-3) is None
    assert state.rank == 3
    for f, m in zip(state.factors, means):
        assert_array_equal(f.mean, m)


def test_truncation_uses_the_best_factor_for_each_column():
    state = init_state(2, 2, 2, seed=17)
    # column 1 is negligible in factor 0 but dominant in factor 1: kept
    state.factors[0].mean[:, 0] = 1.0
    state.factors[0].mean[:, 1] = 1e-9
    state.factors[1].mean[:, 0] = 1e-9
    state.factors[1].mean[:, 1] = 1.0
    assert truncate_rank(state, 1e-3) is None

    # negligible everywhere: dropped
    state = init_state(2, 2, 2, seed=17)
    state.factors[0].mean[:, 0] = 1.0
    state.factors[0].mean[:, 1] = 1e-9
    state.factors[1].mean[:, 0] = 2.0
    state.factors[1].mean[:, 1] = 1e-9
    assert truncate_rank(state, 1e-3) is not None
    assert state.rank == 1


def test_truncation_slices_covariances_consistently():
    U, y = regression_problem(18, n=40, memory=2)
    state = init_state(2, 2, 3, seed=18)
    update(state, U, y, 0)
    cov_full = state.factors[0].cov.copy()
    window = state.window
    for f in state.factors:
        f.mean[:, 0] = 0.0  # drop the first column
        f.mean[:, 1:] += 1.0
    keep = truncate_rank(state, 1e-3)
    assert_array_equal(keep, [1, 2])
    idx = (keep[:, None] * window + np.arange(window)[None, :]).ravel()
    assert_array_equal(state.factors[0].cov, cov_full[np.ix_(idx, idx)])


def test_elbo_computes_log_determinants_that_truncation_dropped():
    # truncate_rank builds posteriors without cov_logdet, so the bound
    # falls back to computing it from the sliced covariance
    U, y = regression_problem(24, n=40, memory=2)
    state = init_state(2, 2, 3, seed=24)
    update(state, U, y, 0)
    update(state, U, y, 1)
    for f in state.factors:
        f.mean[:, 0] = 0.0
    assert truncate_rank(state, 1e-3) is not None
    assert all(f.cov_logdet is None for f in state.factors)
    fallback = elbo(state, U, y)
    for f in state.factors:
        f.cov_logdet = 2.0 * float(np.log(np.diag(np.linalg.cholesky(f.cov))).sum())
    assert_allclose(fallback, elbo(state, U, y), rtol=1e-12)


def test_truncation_slices_moment_stacks():
    U, y = regression_problem(23, n=40, memory=2)
    state = init_state(2, 2, 4, seed=23)
    update(state, U, y, 0)
    update(state, U, y, 1)
    for f in state.factors:
        f.mean[:, [0, 2]] *= 1e-6
    before = stacks(state, U)
    full = [full_second_moments(U, f.mean, f.cov, khatri_rao(U, U))
            for f in state.factors]
    keep = truncate_rank(state, 1e-3)
    assert_array_equal(keep, [1, 3])
    for sliced, fresh, old in zip([m[kept_pairs(keep, 4)] for m in before],
                                  stacks(state, U), full, strict=True):
        assert_allclose(unpack(sliced), unpack(fresh), rtol=1e-12)
        assert_allclose(unpack(sliced), old[np.ix_(keep, keep)], rtol=1e-12)


@pytest.mark.parametrize("order, threshold, rank_path", [
    (1, 0.05, [4, 4, 4, 4, 4, 4]),
    (2, 0.5, [4, 4, 3, 2, 2, 2]),
    (3, 0.05, [4, 4, 3, 3, 2, 2]),
    (4, 0.05, [4, 3, 2, 2, 2, 2]),
    (2, 0.5, [4, 4, 3]),
], ids=["D=1", "D=2", "D=3", "D=4", "D=2-last-sweep-truncates"])
def test_identify_matches_stepwise_updates(order, threshold, rank_path):
    # the public steps composed by hand reproduce identify bit for bit: at
    # D=1 the cross weights are all ones, at D=2 a single stack, above that
    # longer folds; from D=2 on the rank drops, so sliced stacks are used,
    # and the noise is refreshed after the loop only if the last sweep
    # truncated, as in the last case
    u, y, _ = make_rank2_data(0, n=200)
    U = build_lagged_matrix(u, 4)
    config = FitConfig(order=order, rank=4, max_iter=len(rank_path),
                       elbo_rel_tol=1e-300, truncation_threshold=threshold,
                       seed=0)
    fitted, trace = identify(U, y, config, start=init_state(order, 4, 4, seed=0))

    state = init_state(order, 4, 4, seed=0)
    uu = window_pairs(U)
    moments = [second_moments(U, f.mean, f.cov, uu) for f in state.factors]
    bounds, ranks = [], []
    for _ in range(config.max_iter):
        for d in range(order):
            others = moments[:d] + moments[d + 1:]
            weights = stack_product(others, state.rank, y.size)
            posterior = update_factor(state, U, y, d, weights, uu)
            moments[d] = second_moments(U, posterior.mean, posterior.cov, uu)
        update_row_precisions(state)
        update_col_precisions(state)
        resid = expected_residual(U, y, state.factor_means,
                                  weights * moments[-1])
        update_noise_precision(state, y.size, resid)
        bounds.append(compute_elbo(state, y.size, resid))
        ranks.append(state.rank)
        keep = truncate_rank(state, config.truncation_threshold)
        if keep is not None:
            moments = [m[kept_pairs(keep, ranks[-1])] for m in moments]
    if keep is not None:
        update_noise_precision(state, y.size, expected_residual(
            U, y, state.factor_means, stack_product(moments, state.rank, y.size)))

    assert ranks == rank_path
    assert trace.rank == ranks
    assert trace.elbo == bounds
    for f_fit, f_step in zip(fitted.factors, state.factors, strict=True):
        assert_array_equal(f_fit.mean, f_step.mean)
        assert_array_equal(f_fit.cov, f_step.cov)
    assert fitted.noise == state.noise


def counting(monkeypatch, name):
    """Record every result of the inference module's `name` during a fit."""
    original = getattr(inference, name)
    results = []

    def wrapper(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(inference, name, wrapper)
    return results


def test_identify_keeps_the_last_sweeps_noise_posterior(monkeypatch):
    # no truncation in the last sweep: one residual per sweep and no refresh
    residuals = counting(monkeypatch, "expected_residual")
    noise = counting(monkeypatch, "update_noise_precision")
    u, y, _ = make_rank2_data(0, n=200)
    config = FitConfig(order=2, rank=4, max_iter=6, elbo_rel_tol=1e-300,
                       truncation_threshold=1e-12, seed=0)
    state, trace = identify(build_lagged_matrix(u, 4), y, config)
    assert trace.rank == [4] * 6 and state.rank == 4
    assert len(residuals) == len(noise) == 6
    assert state.noise is noise[-1]


def test_identify_refreshes_the_noise_after_a_last_sweep_truncation():
    u, y, _ = make_rank2_data(0, n=200)
    U = build_lagged_matrix(u, 4)
    config = FitConfig(order=2, rank=4, max_iter=3, elbo_rel_tol=1e-300,
                       truncation_threshold=0.5, seed=0)
    state, trace = identify(U, y, config, start=init_state(2, 4, 4, seed=0))
    assert state.rank < trace.rank[-1]
    moments = [second_moments(U, f.mean, f.cov, window_pairs(U))
               for f in state.factors]
    resid = expected_residual(U, y, state.factor_means,
                              stack_product(moments, state.rank, y.size))
    fitted = state.noise
    assert fitted.mean != trace.noise_mean[-1]
    expected = update_noise_precision(state, y.size, resid)
    assert fitted.shape == expected.shape
    assert_allclose(fitted.rate, expected.rate, rtol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_identify_from_init_state_equals_the_default_start(order):
    # the same fit, bit for bit, and the start state is left as it was
    u, y, _ = make_rank2_data(1, n=200)
    U = build_lagged_matrix(u, 4)
    config = FitConfig(order=order, rank=4, max_iter=6, elbo_rel_tol=1e-300,
                       truncation_threshold=0.05, seed=3)
    default, default_trace = identify(U, y, config)
    start = init_state(order, 4, 4, seed=3)
    means = [f.mean.copy() for f in start.factors]
    fitted, trace = identify(U, y, config, start=start)
    for name in ("iterations", "elbo", "rank", "noise_mean", "stop_reason"):
        assert getattr(trace, name) == getattr(default_trace, name)
    assert trace.stop_reason == "max_iter"
    for f_fit, f_default in zip(fitted.factors, default.factors, strict=True):
        assert_array_equal(f_fit.mean, f_default.mean)
        assert_array_equal(f_fit.cov, f_default.cov)
        assert f_fit.cov_logdet == f_default.cov_logdet
    for name in ("col_prec", "row_prec", "noise"):
        got, want = getattr(fitted, name), getattr(default, name)
        assert_array_equal(got.shape, want.shape)
        assert_array_equal(got.rate, want.rate)
    for f, mean in zip(start.factors, means, strict=True):
        assert_array_equal(f.mean, mean)
        assert_array_equal(f.cov, np.eye(4 * 5))
    assert start.noise == init_state(order, 4, 4, seed=3).noise


def test_identify_takes_the_rank_from_the_start():
    u, y, _ = make_rank2_data(2, n=200)
    U = build_lagged_matrix(u, 4)
    config = FitConfig(order=2, rank=6, max_iter=3, elbo_rel_tol=1e-300,
                       truncation_threshold=1e-12)
    _, trace = identify(U, y, config, start=init_state(2, 4, 3, seed=5))
    assert trace.rank == [3, 3, 3]


def test_identify_refuses_a_start_that_does_not_fit():
    u, y, _ = make_rank2_data(2, n=100)
    U = build_lagged_matrix(u, 4)
    config = FitConfig(order=2, rank=3, max_iter=2)
    no_cov = init_state(2, 4, 3)
    no_cov.factors[1].cov = None
    for start, match in [(init_state(3, 4, 3), "order"),
                         (init_state(2, 5, 3), "window"),
                         (init_state(2, 4, 3, row_prec_fixed=True), "row_prec_fixed"),
                         (no_cov, "factor 1 has no covariance")]:
        with pytest.raises(ValueError, match=match):
            identify(U, y, config, start=start)
    with pytest.raises(ValueError, match="priors and normalization"):
        identify(U, y, config, priors=PriorConfig(), start=init_state(2, 4, 3))
    with pytest.raises(ValueError, match="priors and normalization"):
        identify(U, y, config, normalization=NormalizationRecord(),
                 start=init_state(2, 4, 3))


def test_identify_records_why_it_stopped():
    u, y, _ = make_rank2_data(0, n=200)
    U = build_lagged_matrix(u, 4)
    loose = FitConfig(order=2, rank=2, max_iter=500, elbo_rel_tol=1e-3)
    _, trace = identify(U, y, loose)
    assert trace.stop_reason == "tolerance"
    assert len(trace) < loose.max_iter
    capped = FitConfig(order=2, rank=2, max_iter=4, elbo_rel_tol=1e-300)
    _, trace = identify(U, y, capped)
    assert trace.stop_reason == "max_iter"
    assert len(trace) == capped.max_iter


def test_truncation_always_retains_one_column():
    state = init_state(2, 2, 3, seed=19)
    state.factors[0].mean[:, :] = 1e-12
    state.factors[0].mean[:, 2] = 5.0
    state.factors[1].mean[:, :] = 1e-12
    state.factors[1].mean[:, 2] = 5.0
    # threshold above every relative score
    assert_array_equal(truncate_rank(state, 10.0), [2])
    assert state.rank == 1
    assert_array_equal(state.factors[0].mean[:, 0], np.full(3, 5.0))


def test_truncation_rejects_nonpositive_threshold():
    state = init_state(1, 2, 2, seed=20)
    with pytest.raises(ValueError):
        truncate_rank(state, 0.0)


def test_identify_recovers_a_rank1_system_within_noise():
    rng = np.random.default_rng(21)
    n, n_est, memory = 500, 400, 5
    u = rng.uniform(0.0, 1.0, n)
    from bayesvolterra import SyntheticSystem, calibrate_components, synthesize

    system = SyntheticSystem(
        [rng.standard_normal((memory + 1, 1)) for _ in range(2)])
    system = calibrate_components(system, u, component_std=1.0)
    clean = synthesize(system, u).y
    sigma = float(clean.std()) * 0.1
    y = clean + sigma * rng.standard_normal(n)

    U = build_lagged_matrix(u[:n_est], memory)
    config = FitConfig(order=2, rank=4, max_iter=150, seed=21)
    state, _ = identify(U, y[:n_est], config)
    report = evaluate(state, u, y, start=n_est)
    assert report.rmse < 3.0 * sigma


def test_trace_has_fixed_rank_per_entry():
    u, y, _ = make_rank2_data(22, n=500)
    U = build_lagged_matrix(u, 10)
    config = FitConfig(order=2, rank=6, max_iter=40, elbo_rel_tol=1e-300, seed=22)
    state, trace = identify(U, y, config)
    assert len(trace) == 40
    assert trace.rank[0] == 6
    # truncation runs after each entry is recorded, so the rank never rises
    # and the final state may have shed columns after the last entry
    assert all(a >= b for a, b in zip(trace.rank, trace.rank[1:]))
    assert trace.rank[-1] >= state.rank
    # within-rank bound increments are nonnegative up to round-off
    for t in range(1, len(trace)):
        if trace.rank[t] == trace.rank[t - 1]:
            assert trace.elbo[t] >= trace.elbo[t - 1] - 1e-8 * (
                1.0 + abs(trace.elbo[t - 1])
            )
