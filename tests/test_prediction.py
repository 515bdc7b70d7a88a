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
    block_quadratics,
    build_lagged_matrix,
    evaluate,
    expected_output,
    identify,
    init_state,
    nll,
    normalize_input,
    predict,
    predictive_arrays,
    rmse,
)
from bayesvolterra import prediction
from bayesvolterra.features import (
    BLOCK_BYTES,
    SCORE_BLOCK,
    _block_sums,
    block_windows,
    channel_taps,
)

from _oracles import (
    full_window_predict,
    pair_taps,
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
    order, rank, memory = 3, 4, 6
    n = 2 * block_windows(memory) + 76
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
    order, rank, memory = 2, 4, 60
    block = block_windows(memory)
    n = 3 * block + 50
    window = memory + 1
    rng = np.random.default_rng(24)
    U = build_lagged_matrix(rng.uniform(0.0, 1.0, n), memory)
    state = init_state(order, memory, rank, seed=24)
    pairs, squares = rank * (rank + 1) // 2, window * (window + 1) // 2
    small = pairs * squares + (pairs + rank) * block + rank * n
    peak = traced_peak(lambda: predictive_arrays(state, U))
    assert peak <= 8 * (order * pairs * squares + block * squares + 2 * small)


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


@pytest.mark.parametrize("start, order, memory, rank, tail", [
    pytest.param(0, 3, 8, 3, 77, id="0"),
    pytest.param(5, 3, 8, 3, 77, id="5"),
    pytest.param(block_windows(8) + 190, 3, 8, 3, 77, id=str(block_windows(8) + 190)),
    pytest.param(0, 2, 10, 1, 77, id="rank-1-order-2"),
    pytest.param(0, 3, 20, 1, 77, id="rank-1-order-3"),
    pytest.param(5, 3, 8, 3, 3, id="last-block-of-3"),
    pytest.param(0, 2, 5, 1, 1, id="last-block-of-1"),
])
def test_predict_and_evaluate_equal_the_full_window_formulas(start, order, memory, rank,
                                                             tail):
    # three lag blocks after `start` and `tail` windows more, bit for bit;
    # at R = 1 a product per factor would be a matrix-vector product, and
    # a last block of one window takes its projections as dot products
    state = scoring_state(10, order=order, memory=memory, rank=rank)
    rng = np.random.default_rng(10)
    n = start + 3 * block_windows(memory) + tail
    assert not prediction._fft_scoring(memory, rank, n - start)
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
    # coefficient arrays and O((R(R+1)/2 + D R) B) scratch for blocks of B
    # windows; the I x N window matrix alone would exceed it
    order, rank, memory, n = 2, 2, 50, 40_000
    window = memory + 1
    block = block_windows(memory)
    pairs, squares = rank * (rank + 1) // 2, window * (window + 1) // 2
    state = scoring_state(12, order=order, memory=memory, rank=rank)
    u = np.random.default_rng(12).uniform(-1.0, 3.0, n)
    bound = 8 * (4 * n + window * (block + memory) + squares * block
                 + order * pairs * squares + 4 * (pairs + order * rank) * block)
    assert 8 * window * n > bound
    assert traced_peak(lambda: predict(state, u)) <= bound


def test_packed_predict_holds_one_block_square_and_the_stacked_product():
    # at small memory the blocks grow to 2048 windows: one block's window
    # square, the D factors' stacked coefficients and their product with
    # it, a few N-vectors and O((I + D R + R) B) scratch for the block's
    # windows, projections, cofactors and one band of pair weights
    order, rank, memory, n = 3, 11, 20, 40_000
    window = memory + 1
    block = block_windows(memory)
    assert block == 4 * SCORE_BLOCK
    assert not prediction._fft_scoring(memory, rank, n)
    pairs, squares = rank * (rank + 1) // 2, window * (window + 1) // 2
    state = scoring_state(44, order=order, memory=memory, rank=rank)
    u = np.random.default_rng(44).uniform(-1.0, 3.0, n)
    bound = 8 * (squares * block + order * pairs * squares + order * pairs * block
                 + 6 * n + (window + order * rank + 4 * rank) * block)
    assert traced_peak(lambda: predict(state, u)) <= bound


def test_blocks_are_sized_by_their_window_square():
    # a power-of-two multiple of SCORE_BLOCK, the largest up to 8 whose
    # window square fits BLOCK_BYTES, or SCORE_BLOCK when none does; a
    # divisor of FFT_BLOCK wherever the FFT form can be taken, so that
    # form's record chunks are whole blocks
    for memory in range(1, 201):
        size = block_windows(memory)
        ratio = size // SCORE_BLOCK
        assert size == ratio * SCORE_BLOCK and ratio in (1, 2, 4, 8)
        square = 8 * (memory + 1) * (memory + 2) // 2 * size
        assert square <= BLOCK_BYTES or size == SCORE_BLOCK
        assert ratio == 8 or 2 * square > BLOCK_BYTES
        if any(prediction._fft_scoring(memory, rank, 10**9) for rank in range(1, 41)):
            assert prediction.FFT_BLOCK % size == 0
    assert [block_windows(m) for m in (10, 20, 31, 100)] == [4096, 2048, 512, 512]


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


def packed_reference(state, u, start):
    """predictive_arrays on the columns from `start` of the whole window
    matrix of the normalized record: the packed form."""
    x = normalize_input(u, state.normalization)
    return predictive_arrays(state, build_lagged_matrix(x, state.memory)[:, start:])


def record_cases(memory):
    """(n, start) pairs: a record shorter than one segment, lengths that
    are and are not a multiple of the hop, and starts at 0, inside the
    first M - 1 samples, on a segment edge and at the last window."""
    hop = prediction._fft_length(memory) - memory + 1
    return [(hop // 2, 0), (hop // 2, hop // 2 - 1), (3 * hop, 0),
            (3 * hop + 7, max(1, memory // 2)), (3 * hop + 7, hop),
            (3 * hop + 7, 3 * hop + 6), (2 * hop + memory, 2 * hop - 1)]


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("rank", [1, 2, 5])
@pytest.mark.parametrize("memory", [9, 30, 100])
def test_fft_scores_equal_the_packed_form(order, rank, memory):
    # locations bit for bit, squared scales within 1e-12, a repeat bit for bit
    state = scoring_state(30 + memory, order=order, memory=memory, rank=rank)
    rng = np.random.default_rng(memory + 10 * rank + order)
    for n, start in record_cases(memory):
        u = rng.uniform(-1.0, 3.0, n)
        x = normalize_input(u, state.normalization)
        locations, scale_sq, _ = packed_reference(state, u, start)
        got = prediction._fft_scores(state, x, start)
        assert_array_equal(got[0], locations)
        assert_allclose(got[1], scale_sq, rtol=1e-12, atol=0)
        assert_array_equal(prediction._fft_scores(state, x, start), got)


def test_fft_scores_across_pair_and_record_chunks(monkeypatch):
    # several chunks of pairs per factor, several record chunks and a
    # partial transform batch, against the packed form
    order, rank, memory = 3, 5, 40
    state = scoring_state(31, order=order, memory=memory, rank=rank)
    length = prediction._fft_length(memory)
    monkeypatch.setattr(prediction, "TAP_BYTES", 4 * 16 * (memory + 1) * (length // 2 + 1))
    monkeypatch.setattr(prediction, "TAP_ROWS", 3)
    monkeypatch.setattr(prediction, "FFT_BLOCK", SCORE_BLOCK)
    u = np.random.default_rng(31).uniform(-1.0, 3.0, 3 * SCORE_BLOCK + 5)
    x = normalize_input(u, state.normalization)
    for start in (0, 3, SCORE_BLOCK + 1):
        locations, scale_sq, _ = packed_reference(state, u, start)
        got = prediction._fft_scores(state, x, start)
        assert_array_equal(got[0], locations)
        assert_allclose(got[1], scale_sq, rtol=1e-12, atol=0)


@pytest.mark.parametrize("rank, per", [(2, 4), (5, 7)])
def test_fft_scores_with_walks_across_factors(rank, per, monkeypatch):
    # walks of `per` pairs: one holds pairs of two factors, another ends
    # inside a factor; records of 1 to 3 chunks, the shortest held
    order, memory = 3, 40
    state = scoring_state(34 + rank, order=order, memory=memory, rank=rank)
    length = prediction._fft_length(memory)
    monkeypatch.setattr(prediction, "TAP_BYTES",
                        per * 16 * (memory + 1) * (length // 2 + 1))
    monkeypatch.setattr(prediction, "TAP_ROWS", 3)
    monkeypatch.setattr(prediction, "FFT_BLOCK", SCORE_BLOCK)
    walks = prediction._walks(state)
    assert max(sum(stop - first for _, first, stop in walk) for walk in walks) == per
    assert any(len({d for d, _, _ in walk}) > 1 for walk in walks)
    assert any(walk[-1][2] < rank * (rank + 1) // 2 for walk in walks)
    rng = np.random.default_rng(34 + rank)
    for windows in (150, SCORE_BLOCK + 188, 2 * SCORE_BLOCK + 276):
        for start in (0, memory // 2, SCORE_BLOCK):
            u = rng.uniform(-1.0, 3.0, start + windows)
            x = normalize_input(u, state.normalization)
            locations, scale_sq, _ = packed_reference(state, u, start)
            got = prediction._fft_scores(state, x, start)
            assert_array_equal(got[0], locations)
            assert_allclose(got[1], scale_sq, rtol=1e-12, atol=0)
            assert_array_equal(prediction._fft_scores(state, x, start), got)


@pytest.mark.parametrize("rank, windows, calls", [
    # one walk of 9 pairs over 3 record chunks
    (2, 2 * 2048 + 100, 3),
    # 198 pairs make 4 walks of at most 60 at M=100; 2 chunks, held
    (11, 4096, 2),
    # 5 chunks of inputs exceed TAP_BYTES: each of the 4 walks rebuilds them
    (11, 5 * 2048, 20),
])
def test_fft_scores_build_each_record_chunk_once_per_walk(rank, windows, calls,
                                                          monkeypatch):
    # the base channels of a record chunk are built once per call when its
    # walks can hold them, and once per walk when they cannot
    order, memory = 3, 100
    state = scoring_state(35, order=order, memory=memory, rank=rank)
    x = normalize_input(np.random.default_rng(35).uniform(-1.0, 3.0, windows),
                        state.normalization)
    counted = []
    channels = prediction.base_channels

    def counting(*args):
        counted.append(args[2:])
        return channels(*args)

    monkeypatch.setattr(prediction, "base_channels", counting)
    prediction._fft_scores(state, x, 0)
    assert len(counted) == calls


def test_fft_predict_holds_one_walk_of_taps_and_the_record_inputs():
    # several walks over a short record: beyond a few N-vectors, one walk's
    # transformed taps, one factor's coefficients, the held projections and
    # channel spectra, and O((I + pairs in a walk) FFT_BLOCK) scratch; less
    # than holding the taps of every walk
    order, rank, memory, n = 3, 11, 100, 4096
    window = memory + 1
    assert prediction._fft_scoring(memory, rank, n)
    length = prediction._fft_length(memory)
    freqs, hop = length // 2 + 1, length - memory + 1
    pairs, squares = rank * (rank + 1) // 2, window * (window + 1) // 2
    state = scoring_state(36, order=order, memory=memory, rank=rank)
    walks = prediction._walks(state)
    assert len(walks) > 1
    per = max(sum(stop - first for _, first, stop in walk) for walk in walks)
    chunk_segments = -(-prediction.FFT_BLOCK // hop)
    held = (16 * window * freqs * chunk_segments * -(-n // prediction.FFT_BLOCK)
            + 8 * order * rank * n)
    assert held <= prediction.TAP_BYTES
    taps = 16 * per * window * freqs
    u = np.random.default_rng(36).uniform(-1.0, 3.0, n)
    bound = (taps + held + 8 * pairs * squares
             + 8 * (4 * n + 4 * (window + per) * (prediction.FFT_BLOCK + 2 * length)))
    assert bound < len(walks) * taps
    assert traced_peak(lambda: predict(state, u)) <= bound


def test_scoring_path_depends_on_memory_rank_and_windows():
    # the paper shape takes the FFT form; long_record (M=20) and the CLI
    # workload (M=10) stay on the packed form at every rank, and so does a
    # record of fewer than FFT_WINDOWS windows
    many, few = prediction.FFT_WINDOWS, prediction.FFT_WINDOWS - 1
    assert prediction._fft_scoring(100, 20, 4096)
    assert prediction._fft_scoring(100, 20, many)
    assert not prediction._fft_scoring(100, 20, few)
    assert not prediction._fft_scoring(100, 2, 1)
    assert prediction._fft_scoring(40, 20, many)
    assert prediction._fft_scoring(30, 4, many)
    assert not prediction._fft_scoring(30, 5, many)
    for rank in (1, 2, 4, 11, 20):
        assert not prediction._fft_scoring(25, rank, 200_000)
        assert not prediction._fft_scoring(20, rank, 200_000)
        assert not prediction._fft_scoring(10, rank, 200_000)


@pytest.mark.parametrize("memory, rank", [(100, 2), (45, 5), (30, 2), (30, 5), (12, 2)])
def test_predict_on_either_path_matches_the_window_formulas(memory, rank, monkeypatch):
    # locations bit for bit on both paths, squared scales within 1e-12,
    # against the whole-window formulas and against the packed form
    state = scoring_state(32, order=2, memory=memory, rank=rank)
    rng = np.random.default_rng(32)
    n = prediction.FFT_WINDOWS + 3 * memory + 11
    u = rng.uniform(-1.0, 3.0, n)
    starts = (0, memory // 2, n - 1)
    scored = [predict(state, u, start=start) for start in starts]
    for start, (locations, scales, dof) in zip(starts, scored):
        ref_locations, ref_scales, ref_dof = full_window_predict(state, u, start=start)
        assert_array_equal(locations, ref_locations)
        assert_allclose(scales**2, ref_scales**2, rtol=1e-12, atol=0)
        assert dof == ref_dof
        again = predict(state, u, start=start)
        assert_array_equal(again[0], locations)
        assert_array_equal(again[1], scales)
    monkeypatch.setattr(prediction, "_fft_scoring", lambda memory, rank, windows: False)
    for start, (locations, scales, _) in zip(starts, scored):
        packed_locations, packed_scales, _ = predict(state, u, start=start)
        assert_array_equal(locations, packed_locations)
        assert_allclose(scales**2, packed_scales**2, rtol=1e-12, atol=0)


def test_fft_predict_holds_the_taps_and_one_record_chunk():
    # at M=100 the squared scales come by overlap-save: beyond a few
    # N-vectors, one chunk of transformed taps and O(I FFT_BLOCK) scratch,
    # so neither the window matrix nor the base channels of the record
    order, rank, memory, n = 2, 2, 100, 40_000
    window = memory + 1
    assert prediction._fft_scoring(memory, rank, n)
    length = prediction._fft_length(memory)
    pairs = rank * (rank + 1) // 2
    taps = 16 * pairs * window * (length // 2 + 1)
    state = scoring_state(33, order=order, memory=memory, rank=rank)
    u = np.random.default_rng(33).uniform(-1.0, 3.0, n)
    bound = taps + 8 * (4 * n + 6 * window * (prediction.FFT_BLOCK + 2 * length))
    assert 8 * window * n > bound
    assert traced_peak(lambda: predict(state, u)) <= bound


def reference_taps(state, d, length):
    """pair_taps of factor d's coefficients times 2 - delta_rs, and the
    (F, P, I) rfft of the taps at `length`."""
    coefs = block_quadratics(state.factors[d].cov, state.rank, state.window)
    constants, taps = pair_taps(coefs * prediction._pair_scales(state.rank),
                                state.window)
    return constants, taps, np.fft.rfft(taps, n=length, axis=-1).transpose(2, 0, 1)


def walk_taps_equal_the_reference(state, length, walk_pairs):
    """Check _walk_taps' constants and spectra against reference_taps, bit
    for bit, with walks of `walk_pairs` pairs; check too that the summed
    blocks (_block_sums) of every three pairs, halved on the diagonal,
    scaled and gathered by channel_taps, are those pairs' taps."""
    order, rank, window = state.order, state.rank, state.window
    walks = prediction._walks(state)
    scratch = np.empty((length // 2 + 1) * walk_pairs * window, dtype=complex)
    reference = [reference_taps(state, d, length) for d in range(order)]
    index, valid = channel_taps(state.memory)
    seen = 0
    for walk, (constants, spectra) in zip(walks, prediction._walk_taps(state, walks, length,
                                                                      scratch)):
        row = 0
        for d, first, stop in walk:
            want_constants, want_taps, want_spectra = reference[d]
            rows = slice(row, row + stop - first)
            assert_array_equal(constants[rows], want_constants[first:stop])
            assert_array_equal(spectra[:, rows], want_spectra[:, first:stop])
            blocks = np.reshape(state.factors[d].cov, (rank, window, rank, window))
            for lo in range(first, stop, 3):
                hi = min(lo + 3, stop)
                sums = _block_sums(blocks, lo, hi, np.empty((hi - lo, window, window)))
                sums[:, range(window), range(window)] *= 0.5
                sums *= prediction._pair_scales(rank)[lo:hi, :, None]
                taps = np.where(valid, np.take(sums.reshape(hi - lo, -1), index, axis=1),
                                0.0)
                assert_array_equal(sums[:, 0, 0], want_constants[lo:hi])
                assert_array_equal(taps, want_taps[lo:hi])
            row += stop - first
            seen += stop - first
    assert seen == order * rank * (rank + 1) // 2


def exactly_symmetric(state):
    """The state with each covariance made exactly symmetric, as every
    covariance the fit makes or load_model accepts is."""
    for f in state.factors:
        f.cov = 0.5 * (f.cov + f.cov.T)
        assert_array_equal(f.cov, f.cov.T)
    return state


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("rank", [1, 2, 5, 7])
@pytest.mark.parametrize("memory", [1, 2, 9, 30])
@pytest.mark.parametrize("tap_rows, walk_pairs", [(3, 4), (6, 9)])
def test_taps_read_from_the_covariance_equal_the_coefficient_taps(order, rank, memory,
                                                                   tap_rows, walk_pairs,
                                                                   monkeypatch):
    # bit for bit, in chunks of 3 or 6 pairs that start and end inside a
    # band (6 pairs are transformed as 4 and 2) and walks of 4 or 9 pairs
    # that end inside a factor or span two, up to the last pair (R - 1, R - 1)
    state = exactly_symmetric(scoring_state(40 + memory, order=order, memory=memory,
                                            rank=rank))
    length = prediction._fft_length(memory)
    monkeypatch.setattr(prediction, "TAP_ROWS", tap_rows)
    monkeypatch.setattr(prediction, "TAP_BYTES",
                        walk_pairs * 16 * (memory + 1) * (length // 2 + 1))
    walk_taps_equal_the_reference(state, length, walk_pairs)


@pytest.mark.parametrize("order, rank, memory", [(1, 2, 9), (3, 5, 30)])
def test_taps_of_a_fortran_order_covariance_equal_the_coefficient_taps(order, rank,
                                                                        memory,
                                                                        monkeypatch):
    # a covariance in Fortran order gives the taps and the FFT form's
    # scores of the same covariance in C order, bit for bit
    state = exactly_symmetric(scoring_state(43, order=order, memory=memory, rank=rank))
    u = np.random.default_rng(43).uniform(-1.0, 3.0, prediction.FFT_WINDOWS + 50)
    monkeypatch.setattr(prediction, "_fft_scoring", lambda memory, rank, windows: True)
    expected = predict(state, u)
    for f in state.factors:
        f.cov = np.asfortranarray(f.cov)
        assert not f.cov.flags.c_contiguous
    for got, want in zip(predict(state, u), expected):
        assert_array_equal(got, want)
    length = prediction._fft_length(memory)
    monkeypatch.setattr(prediction, "TAP_ROWS", 3)
    monkeypatch.setattr(prediction, "TAP_BYTES", 4 * 16 * (memory + 1) * (length // 2 + 1))
    walk_taps_equal_the_reference(state, length, 4)


def test_fft_predict_makes_no_coefficient_array(monkeypatch):
    # the FFT form reads its taps from the covariances; the packed form
    # builds one coefficient array per factor
    order, rank, memory, n = 3, 2, 40, 1200
    assert prediction._fft_scoring(memory, rank, n)
    state = scoring_state(42, order=order, memory=memory, rank=rank)
    u = np.random.default_rng(42).uniform(-1.0, 3.0, n)
    calls = []
    quadratics = prediction.block_quadratics

    def counting(*args):
        calls.append(args)
        return quadratics(*args)

    monkeypatch.setattr(prediction, "block_quadratics", counting)
    predict(state, u)
    assert not calls
    monkeypatch.setattr(prediction, "_fft_scoring", lambda memory, rank, windows: False)
    predict(state, u)
    assert len(calls) == order
