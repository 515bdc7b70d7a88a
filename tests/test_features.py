"""Window construction and posterior-expectation tests.

The expectation routines are checked two ways: exactly against plug-in
formulas when covariances vanish, and against Monte-Carlo averages over
posterior draws when they do not. The packed moment stacks are unpacked
to their full R x R form for both, and compared with the full-stack
kernels kept in the test oracles.
"""

import ast

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bayesvolterra import (
    FitConfig,
    block_quadratics,
    build_lagged_matrix,
    column_products,
    design_matrix,
    expected_gram,
    expected_output,
    expected_residual,
    identify,
    kept_pairs,
    khatri_rao,
    lag_blocks,
    moment_pairs,
    random_cpd_system,
    second_moments,
    synthesize,
    window_pairs,
)
from bayesvolterra import inference, prediction
from bayesvolterra.features import (
    _band_runs,
    _bands,
    _block_sums,
    _pair_layout,
    base_channels,
    block_windows,
    channel_taps,
    column_blocks,
    hadamard,
)

from _oracles import (
    cpd_expand,
    full_expected_gram,
    full_second_moments,
    monomial_vector,
    pair_taps,
    traced_peak,
    unpack,
)

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


@pytest.mark.parametrize("n, memory, start", [
    (3 * block_windows(6) + 37, 6, 0),  # from the first window, a partial last block
    (3 * block_windows(6) + 37, 6, 4),  # 0 < start < memory: history cut by the record start
    (3 * block_windows(40) + 37, 40, block_windows(40)),  # start on a block edge
    (3 * block_windows(40), 40, block_windows(40) - 1),  # blocks straddle the edges from 0
    (2 * block_windows(9) + 5, 9, 5),  # whole blocks only
    (3 * block_windows(20) + 11, 20, 3),  # blocks of 2048 windows
    (3 * block_windows(25) + 11, 25, 0),  # blocks of 1024 windows
    (5, 12, 0),  # a record shorter than the memory
    (5, 12, 3),
])
def test_lag_blocks_are_the_columns_of_the_window_matrix(n, memory, start):
    u = np.random.default_rng(n + memory + start).standard_normal(n)
    full = build_lagged_matrix(u, memory)
    blocks = list(lag_blocks(u, memory, start))
    size = block_windows(memory)
    assert [offset for offset, _ in blocks] == list(range(0, n - start, size))
    for offset, block in blocks:
        width = min(size, n - start - offset)
        assert block.shape == (memory + 1, width)
        assert_array_equal(block, full[:, start + offset:start + offset + width])
    # column_blocks slices a built window matrix into the same blocks
    sliced = list(column_blocks(full[:, start:]))
    assert [offset for offset, _ in sliced] == [offset for offset, _ in blocks]
    for (_, column_block), (_, block) in zip(sliced, blocks, strict=True):
        assert_array_equal(column_block, block)


def test_lag_blocks_reject_bad_input():
    for signal, memory, start in (([], 3, 0), ([1.0, 2.0], 0, 0),
                                  (np.ones((2, 2)), 1, 0), ([1.0, 2.0], 1, 2),
                                  ([1.0, 2.0], 1, -1)):
        with pytest.raises(ValueError):
            next(lag_blocks(signal, memory, start))


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
    out = unpack(second_moments(U, mean, np.zeros((8, 8)), window_pairs(U)))
    proj = mean.T @ U
    for n in range(9):
        assert_allclose(out[:, :, n], np.outer(proj[:, n], proj[:, n]), atol=1e-14)


def test_second_moments_identity_covariance_adds_window_norm():
    rng = np.random.default_rng(5)
    U = build_lagged_matrix(rng.standard_normal(7), 2)
    rank = 3
    out = unpack(second_moments(U, np.zeros((3, rank)), np.eye(3 * rank),
                                window_pairs(U)))
    for n in range(7):
        norm = float(U[:, n] @ U[:, n])
        assert_allclose(out[:, :, n], norm * np.eye(rank), atol=1e-14)


def test_second_moments_against_monte_carlo():
    rng = np.random.default_rng(6)
    U = build_lagged_matrix(rng.standard_normal(4), 2)
    mean = rng.standard_normal((3, 2))
    cov = random_psd(rng, 6, scale=0.5)
    exact = unpack(second_moments(U, mean, cov, window_pairs(U)))
    draws = sample_factor(rng, mean, cov, MC_DRAWS)
    proj = np.einsum("kir,in->krn", draws, U)
    mc = np.einsum("krn,ksn->rsn", proj, proj) / MC_DRAWS
    assert_allclose(exact, mc, rtol=0.02, atol=0.02 * np.abs(exact).max())


def test_second_moments_shape_checks():
    U = np.ones((3, 5))
    uu = window_pairs(U)
    with pytest.raises(ValueError):
        second_moments(U, np.ones((4, 2)), np.eye(8), uu)
    with pytest.raises(ValueError):
        second_moments(U, np.ones((3, 2)), np.eye(5), uu)


def test_expected_gram_single_factor_is_the_gram():
    rng = np.random.default_rng(7)
    U = build_lagged_matrix(rng.standard_normal(11), 3)
    out = expected_gram(U, np.ones((1, 11)), window_pairs(U))
    assert_allclose(out, U @ U.T, rtol=1e-12)


def test_expected_gram_zero_covariance_is_plug_in():
    rng = np.random.default_rng(8)
    U = build_lagged_matrix(rng.standard_normal(8), 2)
    means = [rng.standard_normal((3, 2)) for _ in range(2)]
    uu = window_pairs(U)
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
    packed = weights[np.triu_indices(2)]
    assert_array_equal(unpack(packed), weights)
    assert_allclose(expected_gram(U, packed, window_pairs(U)), slow, rtol=1e-12)


def test_expected_gram_is_symmetric_psd():
    rng = np.random.default_rng(10)
    U = build_lagged_matrix(rng.standard_normal(15), 3)
    mean = rng.standard_normal((4, 2))
    cov = random_psd(rng, 8)
    uu = window_pairs(U)
    gram = expected_gram(U, second_moments(U, mean, cov, uu), uu)
    assert_allclose(gram, gram.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    assert eigs.min() >= -1e-10 * np.abs(eigs).max()


def test_expected_gram_against_monte_carlo():
    rng = np.random.default_rng(11)
    U = build_lagged_matrix(rng.standard_normal(5), 1)
    mean2 = rng.standard_normal((2, 2))
    cov2 = random_psd(rng, 4, scale=0.5)
    uu = window_pairs(U)
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


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_hadamard_folds_left_into_a_new_array(count):
    # bitwise the products the fold replaced: the packed-stack fold, which
    # started from the first stack, and the column products, which started
    # from ones
    rng = np.random.default_rng(16)
    arrays = [rng.standard_normal((6, 5)) for _ in range(count)]
    copies = [a.copy() for a in arrays]
    out = hadamard(arrays, (6, 5))
    from_first = arrays[0].copy() if arrays else np.ones((6, 5))
    from_ones = np.ones((6, 5))
    for k, array in enumerate(arrays):
        if k:
            from_first = from_first * array
        from_ones *= array
    assert out.dtype == np.float64 and out.shape == (6, 5)
    assert_array_equal(out, from_first)
    assert_array_equal(out, from_ones)
    assert not any(np.shares_memory(out, a) for a in arrays)
    for array, copy in zip(arrays, copies, strict=True):
        assert_array_equal(array, copy)


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
    uu = window_pairs(U)
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
    uu = window_pairs(U)
    moments = [second_moments(U, m, random_psd(rng, 6), uu) for m in means]
    prod = moments[0] * moments[1]
    full = unpack(prod)
    yhat = np.array([expanded_output(means, U[:, n]) for n in range(8)])
    slow = float(y @ y) - 2.0 * float(y @ yhat)
    for n in range(8):
        slow += float(full[:, :, n].sum())
    assert_allclose(expected_residual(U, y, means, prod), slow, rtol=1e-12)


def test_expected_residual_against_monte_carlo():
    rng = np.random.default_rng(15)
    U = build_lagged_matrix(rng.standard_normal(5), 1)
    y = rng.standard_normal(5)
    means = [rng.standard_normal((2, 2)) for _ in range(2)]
    covs = [random_psd(rng, 4, scale=0.3) for _ in range(2)]
    uu = window_pairs(U)
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
    # with the packed window square, each stack entry is the explicit
    # (m_r'u)(m_s'u) + u'C_rs u of one window
    rng = np.random.default_rng(16)
    U = build_lagged_matrix(rng.standard_normal(7), 2)
    mean = rng.standard_normal((3, 2))
    cov = random_psd(rng, 6)
    out = unpack(second_moments(U, mean, cov, window_pairs(U)))
    for n in range(7):
        u = U[:, n]
        for r in range(2):
            for s in range(2):
                block = cov[3 * r:3 * r + 3, 3 * s:3 * s + 3]
                direct = (mean[:, r] @ u) * (mean[:, s] @ u) + u @ block @ u
                assert_allclose(out[r, s, n], direct, rtol=1e-12)


def test_moment_pairs_are_the_upper_triangle():
    r, s = moment_pairs(4)
    assert list(zip(r.tolist(), s.tolist())) == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
        (2, 2), (2, 3), (3, 3)]


def test_pair_layouts_are_built_once_per_size_and_read_only(monkeypatch):
    # a fit at the command line's shape (D=2, M=10, R=4, N=1000, 15
    # sweeps) reads every packed-pair layout from the cache: a second fit
    # of the same shape builds none
    rng = np.random.default_rng(30)
    u = rng.uniform(0.0, 1.0, 1000)
    record = synthesize(random_cpd_system(2, 10, 2, rng, noise_std=0.05), u, rng=rng)
    U = build_lagged_matrix(u, 10)
    config = FitConfig(order=2, rank=4, max_iter=15, elbo_rel_tol=1e-300)
    calls = []
    triu_indices = np.triu_indices

    def counted(*args, **kwargs):
        calls.append(args)
        return triu_indices(*args, **kwargs)

    monkeypatch.setattr(np, "triu_indices", counted)
    identify(U, record.y, config)
    calls.clear()
    _, trace = identify(U, record.y, config)
    assert len(trace) == 15
    assert calls == []
    monkeypatch.undo()
    for n in (1, 4, 11, 44):
        layout = _pair_layout(n)
        i, j = np.triu_indices(n)
        assert_array_equal(layout.i, i)
        assert_array_equal(layout.j, j)
        assert_array_equal(layout.flat, i * n + j)
        assert_array_equal(layout.diagonal, np.flatnonzero(i == j))
        assert_array_equal(layout.symmetric[i, j], np.arange(i.size))
        assert_array_equal(layout.symmetric, layout.symmetric.T)
        assert moment_pairs(n)[0] is layout.i
        for array in layout:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


@pytest.mark.parametrize("rank", [1, 2, 5, 11])
def test_band_runs_start_and_end_at_the_bands_of_the_range(rank):
    # the runs of every range equal those of a walk over all bands
    pairs = rank * (rank + 1) // 2
    for first in range(pairs + 1):
        for stop in range(first, pairs + 1):
            walk = []
            for r, rows in _bands(rank):
                begin, end = max(rows.start, first), min(rows.stop, stop)
                if begin < end:
                    walk.append((begin - first, r, r + begin - rows.start,
                                 r + end - rows.start))
            assert list(_band_runs(rank, first, stop)) == walk


def test_packed_kernels_match_the_full_stack_kernels():
    # the packed stack is the upper triangle of the full one, and the Gram
    # and residual from packed stacks equal those from the full stacks
    rng = np.random.default_rng(17)
    U = build_lagged_matrix(rng.standard_normal(20), 3)
    y = rng.standard_normal(20)
    uu = window_pairs(U)
    square = khatri_rao(U, U)
    means = [rng.standard_normal((4, 3)) for _ in range(3)]
    covs = [random_psd(rng, 12, scale=0.3) for _ in range(3)]
    packed = [second_moments(U, m, c, uu) for m, c in zip(means, covs)]
    full = [full_second_moments(U, m, c, square) for m, c in zip(means, covs)]
    for p, f in zip(packed, full):
        assert p.shape == (6, 20)
        assert_allclose(unpack(p), f, rtol=1e-12, atol=1e-12 * np.abs(f).max())
    weights = packed[1] * packed[2]
    assert_allclose(expected_gram(U, weights, uu),
                    full_expected_gram(U, full[1] * full[2], square), rtol=1e-12)
    product = weights * packed[0]
    full_product = full[0] * full[1] * full[2]
    yhat = expected_output(U, means)
    slow = float(y @ y) - 2.0 * float(y @ yhat) + float(full_product.sum())
    assert_allclose(expected_residual(U, y, means, product), slow, rtol=1e-12)


def test_kept_pairs_slice_the_packed_stack():
    rng = np.random.default_rng(18)
    U = build_lagged_matrix(rng.standard_normal(9), 2)
    mean = rng.standard_normal((3, 5))
    packed = second_moments(U, mean, random_psd(rng, 15), window_pairs(U))
    for keep in ([0, 2, 3], [4], [1, 2], [0, 1, 2, 3, 4]):
        sliced = packed[kept_pairs(np.array(keep), 5)]
        assert_array_equal(unpack(sliced), unpack(packed)[np.ix_(keep, keep)])


def test_packed_shape_checks():
    U = np.ones((3, 5))
    uu = window_pairs(U)
    with pytest.raises(ValueError, match="packed"):
        expected_gram(U, np.ones((2, 2, 5)), uu)
    with pytest.raises(ValueError, match="packed"):
        expected_gram(U, np.ones((4, 5)), uu)
    with pytest.raises(ValueError, match="packed"):
        expected_gram(U, np.ones((3, 4)), uu)
    means = [np.ones((3, 2))] * 2
    with pytest.raises(ValueError, match="packed"):
        expected_residual(U, np.ones(5), means, np.ones((2, 2, 5)))
    # the full window square is not the packed one
    square = khatri_rao(U, U)
    with pytest.raises(ValueError, match="window_pairs"):
        second_moments(U, means[0], np.eye(6), square)
    with pytest.raises(ValueError, match="window_pairs"):
        expected_gram(U, np.ones((3, 5)), square)


def test_window_pairs_are_the_upper_rows_of_the_khatri_rao_square():
    rng = np.random.default_rng(19)
    for window, n in ((1, 4), (2, 3), (5, 17), (12, 40)):
        U = rng.standard_normal((window, n))
        i, j = np.triu_indices(window)
        packed = window_pairs(U)
        assert packed.shape == (window * (window + 1) // 2, n)
        assert_array_equal(packed, khatri_rao(U, U)[i * window + j])


def test_window_pairs_of_a_row_range_are_those_rows_of_the_square():
    # bit for bit, every range of packed rows, into a fresh output and into
    # a strided view of a wider buffer, as the filter bank writes its pair
    # weights
    rng = np.random.default_rng(21)
    n = 9
    for window in range(1, 8):
        U = rng.standard_normal((window, n))
        square = window_pairs(U)
        pairs = window * (window + 1) // 2
        for first in range(pairs):
            for stop in range(first + 1, pairs + 1):
                assert_array_equal(window_pairs(U, first=first, stop=stop),
                                   square[first:stop])
                wide = np.full((pairs + 2, n + 5), np.nan)
                view = wide[1:1 + stop - first, :n]
                assert window_pairs(U, view, first, stop) is view
                assert_array_equal(view, square[first:stop])
                assert np.isnan(wide[:, n:]).all()
    with pytest.raises(ValueError, match="packed rows"):
        window_pairs(U, first=3, stop=pairs + 1)


def test_only_features_reads_the_packed_layouts():
    # prediction and inference import no private name of features: the
    # pair and tap layouts are read and written there alone
    for module in (prediction, inference):
        with open(module.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[-1] == "features"
                   for alias in node.names if alias.name.startswith("_")]
        assert private == [], module.__name__


def test_block_quadratics_match_the_full_blocks():
    # a random SPD covariance: its off-diagonal blocks C_rs are not
    # symmetric, so both C_rs[i, j] and C_rs[j, i] must enter
    rng = np.random.default_rng(20)
    rank, window, n = 3, 5, 30
    U = build_lagged_matrix(rng.standard_normal(n), window - 1)
    cov = random_psd(rng, rank * window)
    blocks = cov.reshape(rank, window, rank, window)
    assert not np.allclose(blocks[0, :, 1, :], blocks[0, :, 1, :].T)
    full = blocks.transpose(0, 2, 1, 3).reshape(rank * rank, window * window)
    r, s = moment_pairs(rank)
    coefs = block_quadratics(cov, rank, window)
    assert coefs.shape == (r.size, window * (window + 1) // 2)
    assert_allclose(coefs @ window_pairs(U),
                    full[r * rank + s] @ khatri_rao(U, U), rtol=1e-12)
    # and entry by entry, exactly
    for p in range(r.size):
        block = blocks[r[p], :, s[p], :]
        for q, (i, j) in enumerate(zip(*np.triu_indices(window))):
            assert coefs[p, q] == (block[i, i] if i == j
                                   else block[i, j] + block[j, i])
    with pytest.raises(ValueError, match="covariance shape"):
        block_quadratics(cov, rank, window + 1)


@pytest.mark.parametrize("rank, window", [(1, 1), (1, 4), (3, 2), (5, 6)])
def test_block_sums_on_any_pair_run_equal_the_rows_of_block_quadratics(rank, window):
    # bit for bit on every run of packed pairs first <= p < stop: the
    # window pairs i < j of the summed blocks, and half their diagonal
    rng = np.random.default_rng(rank * window)
    cov = random_psd(rng, rank * window)
    assert_array_equal(cov, cov.T)
    blocks = cov.reshape(rank, window, rank, window)
    coefs = block_quadratics(cov, rank, window)
    i, j = np.triu_indices(window)
    pairs = rank * (rank + 1) // 2
    for first in range(pairs):
        for stop in range(first + 1, pairs + 1):
            sums = _block_sums(blocks, first, stop, np.empty((stop - first, window, window)))
            assert_array_equal(sums, sums.transpose(0, 2, 1))
            upper = sums[:, i, j]
            upper[:, i == j] *= 0.5
            assert_array_equal(upper, coefs[first:stop])


@pytest.mark.parametrize("memory", [1, 2, 5])
def test_channel_taps_gather_the_window_pairs_as_pair_taps(memory):
    # each window pair but (0, 0) of an I x I block is the tap pair_taps
    # gives it, once, and every other tap is zero
    rng = np.random.default_rng(memory)
    window = memory + 1
    i, j = np.triu_indices(window)
    coefs = rng.standard_normal((3, i.size))
    block = np.zeros((3, window, window))
    block[:, i, j] = coefs
    index, valid = channel_taps(memory)
    assert index.shape == valid.shape == (window, memory)
    assert_array_equal(np.sort(index[valid]), (i * window + j)[1:])
    taps = np.where(valid, np.take(block.reshape(3, -1), index, axis=1), 0.0)
    constants, want = pair_taps(coefs, window)
    assert_array_equal(block[:, 0, 0], constants)
    assert_array_equal(taps, want)


def test_second_moments_allocate_only_their_output_beyond_small_scratch():
    # beyond the (R(R+1)/2, N) output, O(R N + R(R+1)/2 I(I+1)/2) scratch:
    # no gathered covariance blocks and no second stack-sized array
    rng = np.random.default_rng(23)
    rank, window, n = 8, 61, 400
    U = build_lagged_matrix(rng.uniform(0.0, 1.0, n), window - 1)
    uu = window_pairs(U)
    mean = rng.standard_normal((window, rank))
    cov = random_psd(rng, rank * window)
    pairs = rank * (rank + 1) // 2
    small = pairs * (window * (window + 1) // 2) + rank * n
    peak = traced_peak(lambda: second_moments(U, mean, cov, uu))
    assert peak <= 8 * (pairs * n + 2 * small)


def test_expected_gram_is_exactly_symmetric():
    rng = np.random.default_rng(21)
    rank, window, n = 7, 31, 700
    U = rng.standard_normal((window, n))
    weights = rng.standard_normal((rank * (rank + 1) // 2, n))
    gram = expected_gram(U, weights, window_pairs(U))
    assert gram.shape == (rank * window, rank * window)
    assert np.array_equal(gram, gram.T)


@pytest.mark.parametrize("memory", [1, 2, 5])
def test_pair_taps_filter_the_base_channels_into_the_window_square(memory):
    # direct convolution, stretch by stretch of a record, including ones
    # that start inside the first M - 1 samples and end past the record,
    # whose windows there are not compared
    rng = np.random.default_rng(memory)
    window, n = memory + 1, 20
    coefs = rng.standard_normal((3, window * (window + 1) // 2))
    x = rng.standard_normal(n)
    expected = coefs @ window_pairs(build_lagged_matrix(x, memory))
    constants, taps = pair_taps(coefs, window)
    assert taps.shape == (3, window, memory)
    for begin, stop in [(0, n), (1, 7), (3, 11), (n - 1, n), (n - 4, n + 3)]:
        channels = base_channels(x, memory, begin, stop)
        assert channels.shape == (window, stop - begin + memory - 1)
        got = constants[:, None] + np.array([
            sum(np.convolve(channels[c], taps[p, c])[memory - 1:memory - 1 + stop - begin]
                for c in range(window))
            for p in range(3)])
        assert_allclose(got[:, :n - begin], expected[:, begin:stop], rtol=1e-12, atol=1e-12)
