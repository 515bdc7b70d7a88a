"""Window construction and posterior-expectation tests.

The expectation routines are checked two ways: exactly against plug-in
formulas when covariances vanish, and against Monte-Carlo averages over
posterior draws when they do not.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bayesvolterra import (
    build_lagged_matrix,
    column_products,
    design_matrix,
    expected_gram,
    expected_output,
    expected_residual,
    khatri_rao,
    second_moments,
)

from _oracles import cpd_expand, monomial_vector

MC_DRAWS = 100_000


def expanded_output(factors, u):
    """Model output at one window from the explicit Kronecker expansion."""
    return float(monomial_vector(u, len(factors)) @ cpd_expand(factors))


def random_psd(rng, size, scale=1.0):
    root = rng.standard_normal((size, size + 2))
    return scale * (root @ root.T) / (size + 2)


def sample_factor(rng, mean, cov, draws):
    """Draw factor matrices from N(vec(mean), cov) with the row index fast."""
    window, rank = mean.shape
    vec = mean.T.ravel()
    samples = rng.multivariate_normal(vec, cov, size=draws)
    return samples.reshape(draws, rank, window).transpose(0, 2, 1)


def test_lagged_matrix_examples():
    assert_array_equal(build_lagged_matrix([5.0], 2), [[1.0], [5.0], [0.0]])
    assert_array_equal(build_lagged_matrix([1.0, 2.0], 1), [[1.0, 1.0], [1.0, 2.0]])
    out = build_lagged_matrix([1.0, 2.0, 3.0], 2)
    assert_array_equal(out[:, 2], [1.0, 3.0, 2.0])


def test_lagged_matrix_layout():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(30)
    out = build_lagged_matrix(u, 7)
    assert out.shape == (8, 30)
    assert_array_equal(out[0], np.ones(30))
    for lag in range(7):
        for n in range(30):
            expected = u[n - lag] if n - lag >= 0 else 0.0
            assert out[1 + lag, n] == expected


def test_lagged_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        build_lagged_matrix([], 3)
    with pytest.raises(ValueError):
        build_lagged_matrix([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        build_lagged_matrix(np.ones((2, 2)), 1)


def test_design_matrix_single_factor_is_the_window_matrix():
    rng = np.random.default_rng(1)
    U = build_lagged_matrix(rng.standard_normal(10), 3)
    G = design_matrix(U, [rng.standard_normal((4, 1))], 0)
    assert_array_equal(G, U)


def test_design_matrix_two_factor_rank_one():
    rng = np.random.default_rng(2)
    U = build_lagged_matrix(rng.standard_normal(6), 2)
    w2 = rng.standard_normal((3, 1))
    G = design_matrix(U, [rng.standard_normal((3, 1)), w2], 0)
    for n in range(6):
        assert_allclose(G[:, n], float(w2[:, 0] @ U[:, n]) * U[:, n], rtol=1e-14)


def test_design_matrix_reproduces_model_output():
    rng = np.random.default_rng(3)
    U = build_lagged_matrix(rng.standard_normal(12), 4)
    means = [rng.standard_normal((5, 3)) for _ in range(3)]
    for mode in range(3):
        G = design_matrix(U, means, mode)
        vec = means[mode].T.ravel()
        for n in range(12):
            target = expanded_output(means, U[:, n])
            assert abs(float(vec @ G[:, n]) - target) < 1e-12 * (1.0 + abs(target))


def test_design_matrix_rejects_bad_mode():
    U = np.ones((3, 4))
    means = [np.ones((3, 2))] * 2
    with pytest.raises(ValueError):
        design_matrix(U, means, 2)
    with pytest.raises(ValueError):
        design_matrix(np.ones((2, 4)), means, 0)


def test_second_moments_zero_covariance_is_plug_in():
    rng = np.random.default_rng(4)
    U = build_lagged_matrix(rng.standard_normal(9), 3)
    mean = rng.standard_normal((4, 2))
    out = second_moments(U, mean, np.zeros((8, 8)), khatri_rao(U, U))
    proj = mean.T @ U
    for n in range(9):
        assert_allclose(out[:, :, n], np.outer(proj[:, n], proj[:, n]), atol=1e-14)


def test_second_moments_identity_covariance_adds_window_norm():
    rng = np.random.default_rng(5)
    U = build_lagged_matrix(rng.standard_normal(7), 2)
    rank = 3
    out = second_moments(U, np.zeros((3, rank)), np.eye(3 * rank), khatri_rao(U, U))
    for n in range(7):
        norm = float(U[:, n] @ U[:, n])
        assert_allclose(out[:, :, n], norm * np.eye(rank), atol=1e-14)


def test_second_moments_against_monte_carlo():
    rng = np.random.default_rng(6)
    U = build_lagged_matrix(rng.standard_normal(4), 2)
    mean = rng.standard_normal((3, 2))
    cov = random_psd(rng, 6, scale=0.5)
    exact = second_moments(U, mean, cov, khatri_rao(U, U))
    draws = sample_factor(rng, mean, cov, MC_DRAWS)
    proj = np.einsum("kir,in->krn", draws, U)
    mc = np.einsum("krn,ksn->rsn", proj, proj) / MC_DRAWS
    assert_allclose(exact, mc, rtol=0.02, atol=0.02 * np.abs(exact).max())


def test_second_moments_shape_checks():
    U = np.ones((3, 5))
    uu = khatri_rao(U, U)
    with pytest.raises(ValueError):
        second_moments(U, np.ones((4, 2)), np.eye(8), uu)
    with pytest.raises(ValueError):
        second_moments(U, np.ones((3, 2)), np.eye(5), uu)


def test_expected_gram_single_factor_is_the_gram():
    rng = np.random.default_rng(7)
    U = build_lagged_matrix(rng.standard_normal(11), 3)
    out = expected_gram(U, np.ones((1, 1, 11)), khatri_rao(U, U))
    assert_allclose(out, U @ U.T, rtol=1e-12)


def test_expected_gram_zero_covariance_is_plug_in():
    rng = np.random.default_rng(8)
    U = build_lagged_matrix(rng.standard_normal(8), 2)
    means = [rng.standard_normal((3, 2)) for _ in range(2)]
    uu = khatri_rao(U, U)
    # the cross weights of mode 0 are the other mode's stack
    gram = expected_gram(U, second_moments(U, means[1], np.zeros((6, 6)), uu), uu)
    G = design_matrix(U, means, 0)
    assert_allclose(gram, G @ G.T, rtol=1e-12, atol=1e-12)


def test_expected_gram_matches_per_sample_sum():
    rng = np.random.default_rng(9)
    U = build_lagged_matrix(rng.standard_normal(6), 2)
    weights = np.stack([random_psd(rng, 2) for _ in range(6)], axis=2)
    slow = np.zeros((6, 6))
    for n in range(6):
        slow += np.kron(weights[:, :, n], np.outer(U[:, n], U[:, n]))
    assert_allclose(expected_gram(U, weights, khatri_rao(U, U)), slow, rtol=1e-12)


def test_expected_gram_is_symmetric_psd():
    rng = np.random.default_rng(10)
    U = build_lagged_matrix(rng.standard_normal(15), 3)
    mean = rng.standard_normal((4, 2))
    cov = random_psd(rng, 8)
    uu = khatri_rao(U, U)
    gram = expected_gram(U, second_moments(U, mean, cov, uu), uu)
    assert_allclose(gram, gram.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    assert eigs.min() >= -1e-10 * np.abs(eigs).max()


def test_expected_gram_against_monte_carlo():
    rng = np.random.default_rng(11)
    U = build_lagged_matrix(rng.standard_normal(5), 1)
    mean2 = rng.standard_normal((2, 2))
    cov2 = random_psd(rng, 4, scale=0.5)
    uu = khatri_rao(U, U)
    exact = expected_gram(U, second_moments(U, mean2, cov2, uu), uu)
    acc = np.zeros_like(exact)
    draws = sample_factor(rng, mean2, cov2, MC_DRAWS // 10)
    for w2 in draws:
        G = design_matrix(U, [np.zeros((2, 2)), w2], 0)
        acc += G @ G.T
    mc = acc / (MC_DRAWS // 10)
    assert_allclose(exact, mc, rtol=0.02, atol=0.02 * np.abs(exact).max())


def test_expected_output_matches_expansion_per_column():
    rng = np.random.default_rng(12)
    U = build_lagged_matrix(rng.standard_normal(9), 3)
    means = [rng.standard_normal((4, 2)) for _ in range(2)]
    out = expected_output(U, means)
    for n in range(9):
        assert_allclose(out[n], expanded_output(means, U[:, n]), rtol=1e-12)


def test_column_products_skip_leaves_out_one_factor():
    rng = np.random.default_rng(15)
    U = build_lagged_matrix(rng.standard_normal(7), 3)
    means = [rng.standard_normal((4, 2)) for _ in range(3)]
    full = column_products(U, means)
    assert full.shape == (2, 7)
    assert_array_equal(full.sum(axis=0), expected_output(U, means))
    for mode in range(3):
        cofactor = column_products(U, means, skip=mode)
        assert_allclose(cofactor * (means[mode].T @ U), full, rtol=1e-12)
    assert_array_equal(column_products(U, means[:1], skip=0), np.ones((2, 7)))
    with pytest.raises(ValueError):
        column_products(U, means, skip=3)
    with pytest.raises(ValueError):
        column_products(U[1:], means)


def test_expected_residual_trivial_cases():
    rng = np.random.default_rng(13)
    U = build_lagged_matrix(rng.standard_normal(10), 2)
    y = rng.standard_normal(10)
    zero_means = [np.zeros((3, 2)) for _ in range(2)]
    uu = khatri_rao(U, U)
    zero_moments = [second_moments(U, m, np.zeros((6, 6)), uu) for m in zero_means]
    assert_allclose(
        expected_residual(U, y, zero_means, zero_moments[0] * zero_moments[1]),
        float(y @ y), rtol=1e-12
    )

    means = [rng.standard_normal((3, 2)) for _ in range(2)]
    moments = [second_moments(U, m, np.zeros((6, 6)), uu) for m in means]
    resid = expected_residual(U, y, means, moments[0] * moments[1])
    direct = float(((y - expected_output(U, means)) ** 2).sum())
    assert_allclose(resid, direct, rtol=1e-10, atol=1e-10)


def test_expected_residual_matches_per_sample_sum():
    rng = np.random.default_rng(14)
    U = build_lagged_matrix(rng.standard_normal(8), 2)
    y = rng.standard_normal(8)
    means = [rng.standard_normal((3, 2)) for _ in range(2)]
    uu = khatri_rao(U, U)
    moments = [second_moments(U, m, random_psd(rng, 6), uu) for m in means]
    prod = moments[0] * moments[1]
    yhat = np.array([expanded_output(means, U[:, n]) for n in range(8)])
    slow = float(y @ y) - 2.0 * float(y @ yhat)
    for n in range(8):
        slow += float(prod[:, :, n].sum())
    assert_allclose(expected_residual(U, y, means, prod), slow, rtol=1e-12)


def test_expected_residual_against_monte_carlo():
    rng = np.random.default_rng(15)
    U = build_lagged_matrix(rng.standard_normal(5), 1)
    y = rng.standard_normal(5)
    means = [rng.standard_normal((2, 2)) for _ in range(2)]
    covs = [random_psd(rng, 4, scale=0.3) for _ in range(2)]
    uu = khatri_rao(U, U)
    moments = [second_moments(U, m, c, uu) for m, c in zip(means, covs)]
    exact = expected_residual(U, y, means, moments[0] * moments[1])

    total = 0.0
    draws = [sample_factor(rng, m, c, MC_DRAWS // 10) for m, c in zip(means, covs)]
    for w1, w2 in zip(*draws):
        yhat = ((w1.T @ U) * (w2.T @ U)).sum(axis=0)
        total += float(((y - yhat) ** 2).sum())
    mc = total / (MC_DRAWS // 10)
    assert abs(exact - mc) / abs(exact) < 0.02


def test_precomputed_khatri_rao_square_matches():
    # with the khatri_rao(U, U) square, each stack entry is the explicit
    # (m_r'u)(m_s'u) + u'C_rs u of one window
    rng = np.random.default_rng(16)
    U = build_lagged_matrix(rng.standard_normal(7), 2)
    mean = rng.standard_normal((3, 2))
    cov = random_psd(rng, 6)
    out = second_moments(U, mean, cov, khatri_rao(U, U))
    for n in range(7):
        u = U[:, n]
        for r in range(2):
            for s in range(2):
                block = cov[3 * r:3 * r + 3, 3 * s:3 * s + 3]
                direct = (mean[:, r] @ u) * (mean[:, s] @ u) + u @ block @ u
                assert_allclose(out[r, s, n], direct, rtol=1e-12)
