"""Student-t predictive distributions and evaluation metrics, as arrays.

predictive_arrays gives model-unit locations, squared scales and dof for a
window matrix; one window u_n is the column U[:, [n]]. predict is the
whole path from a raw input record to original output units: it keeps the
normalized record, an N-vector, and turns it into windows one lag_blocks
block at a time, so no I x N window matrix is built.

The packed form (_scorer) is one features.fill_blocks walk with the
scoring contraction. Per block it projects the windows on every factor
mean once, folds those projections into the locations and the other
modes' cofactors h_d, and takes the parameter variance from two packed
squares, window_pairs of the block's windows and of each h_d, and the
covariance coefficients of the fit's second moments, which are built once
per call and scaled in place. All three are packed in the one pair layout
of the features module. Beyond the model and a few N-vectors, the only
large arrays are one (R(R+1)/2, I(I+1)/2) coefficient array per factor and
one block's windows and window square. predictive_arrays, which takes
arbitrary windows, always uses it.

On a record of at least FFT_WINDOWS windows, predict at long memory
(_fft_scoring, a rule on M, R and the number of windows) takes the
parameter variance by overlap-save FFT instead (_fft_scores): each row of
c @ window_pairs(U) is a bank of FIR filters over the record's I base
channels (features.pair_taps and features.base_channels), so one factor's
chunk of pairs has its taps transformed once per call and each record
chunk's channels once per chunk of pairs. That costs about
I (length/2 + 1) / hop complex multiply-adds per pair and window where the
packed form does I(I+1)/2 real ones, plus the fixed cost of the taps
transform, which a short record does not repay. The locations come from
the first walk over the record, projected on the packed form's blocks, so
they are bit for bit the packed form's. It holds one factor's
coefficients, one chunk of transformed taps (at most TAP_BYTES) and
O((I + pairs in the chunk) FFT_BLOCK) scratch, so its memory grows with N
only by the N-vectors.

evaluate scores predict with the array metrics rmse and nll, the
Student-t log density in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import poch

from .data import normalize_input
from .errors import checked
from .features import (
    SCORE_BLOCK,
    base_channels,
    block_quadratics,
    column_blocks,
    fill_blocks,
    hadamard,
    lag_blocks,
    moment_pairs,
    pair_taps,
    window_pairs,
)

# overlap-save scoring: the most bytes of one chunk of pairs' transformed
# taps, the pairs whose taps are transformed at a time, the windows of one
# record chunk (whole SCORE_BLOCK blocks, so that the locations are taken
# on the packed form's blocks), and the fewest windows a record must have
# to take that form
TAP_BYTES = 12 << 20
TAP_ROWS = 16
FFT_BLOCK = 4 * SCORE_BLOCK
FFT_WINDOWS = 1024


def _fft_scoring(memory, rank, windows):
    """Whether predict takes the squared scales by overlap-save FFT
    (_fft_scores) rather than from packed window squares (_scorer): at
    M >= 40, and at M >= 30 when R <= 4, for at least FFT_WINDOWS windows.
    At D = 3 the FFT form measured faster there for R from 1 to 20, and
    slower or no faster at M <= 25 and at R = 20 below M = 40; on fewer
    windows its fixed cost, the taps transform, outweighs the saving."""
    return windows >= FFT_WINDOWS and (memory >= 40 or (memory >= 30 and rank <= 4))


def _fft_length(memory):
    """The overlap-save segment length: the least power of two >= 2M."""
    return 1 << (2 * memory - 1).bit_length()


def _pair_scales(rank):
    """(r, s, 2 - delta_rs) of the packed column pairs."""
    r, s = moment_pairs(rank)
    return r, s, np.where(r == s, 1.0, 2.0)[:, None]


def _scorer(state):
    """The scoring contraction: a block of B windows to the (2, B) array of
    their model-unit locations and squared scales.

    The squared scale is b_N/a_N plus one quadratic form per factor,
    g_d' Sigma_d g_d, with g_d = h_d kron u_n the mode-d design column at
    the posterior means. It is summed over the column pairs r <= s as
    (2 - delta_rs) h_r h_s q_rs, where h_r h_s is a row of window_pairs(h_d)
    and q_rs = u_n' C_rs u_n comes from block_quadratics(Sigma_d) and the
    block's window_pairs; the coefficients are built once per contraction
    and scaled by 2 - delta_rs in place.
    """
    _, _, twice = _pair_scales(state.rank)
    coefs = [block_quadratics(f.cov, state.rank, state.window)
             for f in state.factors]
    for c in coefs:
        c *= twice
    noise_var = float(state.noise.rate / state.noise.shape)

    def score(block):
        shape = (state.rank, block.shape[1])
        projections = [m.T @ block for m in state.factor_means]
        out = np.full((2, block.shape[1]), noise_var)
        out[0] = hadamard(projections, shape).sum(axis=0)
        uu = window_pairs(block)
        for d, c in enumerate(coefs):
            h = hadamard(projections[:d] + projections[d + 1:], shape)
            out[1] += (window_pairs(h) * (c @ uu)).sum(axis=0)
        return out

    return score


def _tap_spectra(coefs, window, length):
    """pair_taps(coefs, window) as (constants, the (F, P, I) rfft of the
    taps at `length`), transformed TAP_ROWS pairs at a time, so that the
    untransformed taps and the transform's output stay small."""
    constants = np.empty(coefs.shape[0])
    spectra = np.empty((length // 2 + 1, coefs.shape[0], window), dtype=complex)
    for first in range(0, coefs.shape[0], TAP_ROWS):
        rows = slice(first, first + TAP_ROWS)
        constants[rows], taps = pair_taps(coefs[rows], window)
        spectra[:, rows] = np.fft.rfft(taps, n=length, axis=-1).transpose(2, 0, 1)
    return constants, spectra


def _filter_bank(x, memory, begin, n, constants, spectra):
    """The (P, n) rows constants + pair_taps' filters over the
    base_channels of the record x, at the n windows from `begin`.

    Overlap-save: segments of length = 2(F - 1) channel samples advance by
    hop = length - M + 1 windows; each segment's channel spectra multiply
    the (F, P, I) tap spectra, one batched complex product per frequency,
    and each pair's product is inverted once per segment, keeping its last
    hop samples.
    """
    freqs = spectra.shape[0]
    length = 2 * (freqs - 1)
    hop = length - memory + 1
    segments = -(-n // hop)
    channels = base_channels(x, memory, begin, begin + segments * hop)
    X = np.fft.rfft(sliding_window_view(channels, length, axis=1)[:, ::hop], axis=-1)
    products = spectra @ np.ascontiguousarray(X.transpose(2, 0, 1))
    q = np.fft.irfft(products.transpose(1, 2, 0), n=length, axis=-1)
    q = q[..., memory - 1:].reshape(constants.size, -1)[:, :n]
    q += constants[:, None]
    return q


def _fft_scores(state, x, start):
    """The (2, n) model-unit locations and squared scales of the windows of
    x[start:], as the packed scorer gives them, with each row q of
    c @ window_pairs(U) in its sum over pairs of (2 - delta_rs) h_r h_s q_rs
    taken from a filter bank over the record's base channels (_filter_bank).

    One factor's coefficients are held at a time, and its pairs are taken
    in chunks of at most TAP_BYTES of transformed taps. Each chunk has its
    taps transformed once and walks the record FFT_BLOCK windows at a time,
    projecting them on the factor means SCORE_BLOCK at a time for the
    cofactors h; the first walk also takes the locations from those
    projections, on the blocks _scorer gets, so they are its own.
    """
    memory, window, rank = state.memory, state.window, state.rank
    length = _fft_length(memory)
    r, s, twice = _pair_scales(rank)
    per = max(1, TAP_BYTES // (16 * window * (length // 2 + 1)))
    means = state.factor_means
    out = np.full((2, x.size - start), float(state.noise.rate / state.noise.shape))
    for d, f in enumerate(state.factors):
        coefs = block_quadratics(f.cov, rank, window)
        coefs *= twice
        for first in range(0, r.size, per):
            rows = slice(first, first + per)
            constants, spectra = _tap_spectra(coefs[rows], window, length)
            for offset, block in lag_blocks(x, memory, start, FFT_BLOCK):
                size = block.shape[1]
                projections = [np.concatenate([m.T @ b for _, b in column_blocks(block)],
                                              axis=1) for m in means]
                if d == first == 0:
                    out[0, offset:offset + size] = hadamard(projections, (rank, size)).sum(axis=0)
                h = hadamard(projections[:d] + projections[d + 1:], (rank, size))
                q = _filter_bank(x, memory, start + offset, size, constants, spectra)
                q *= h[r[rows]]
                q *= h[s[rows]]
                out[1, offset:offset + size] += q.sum(axis=0)
            # freed before the next chunk's taps are made
            del constants, spectra
    return out


def predictive_arrays(state, U):
    """Locations, squared scales, and dof for every column of U (model units).

    The columns are scored column_blocks at a time; dof is twice the noise
    shape.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != state.window:
        raise ValueError(f"window matrix has shape {U.shape}, the model "
                         f"expects {state.window} rows")
    locations, scale_sq = fill_blocks(column_blocks(U), (2,), U.shape[1],
                                      _scorer(state))
    return locations, scale_sq, 2.0 * float(state.noise.shape)


def predict(state, u, start=0):
    """Original-unit (locations, scales, dof) for the windows of u[start:].

    The raw input is normalized with the state's stored record and turned
    into windows by lag_blocks, so the windows after `start` see the true
    past; they are scored a block at a time, like predictive_arrays on
    those columns of the window matrix. A non-finite input, or a `start`
    that is not an integer index into u (a boolean among them), raises
    ValueError.
    """
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("input record must be finite")
    start = checked("start", start, int)
    if not 0 <= start < u.size:
        raise ValueError(f"nothing to predict: start {start} of {u.size} samples")
    record = state.normalization
    x = normalize_input(u, record)
    windows = u.size - start
    if _fft_scoring(state.memory, state.rank, windows):
        locations, scales = _fft_scores(state, x, start)
    else:
        locations, scales = fill_blocks(lag_blocks(x, state.memory, start), (2,),
                                        windows, _scorer(state))
    # original units, in place
    locations *= record.output_std
    locations += record.output_mean
    np.sqrt(scales, out=scales)
    scales *= record.output_std
    return locations, scales, 2.0 * float(state.noise.shape)


def _paired(y, locations):
    y = np.asarray(y, dtype=float)
    locations = np.asarray(locations, dtype=float)
    if locations.shape != y.shape:
        raise ValueError("predictions and targets have different lengths")
    return y, locations


def rmse(y, locations):
    """Root mean squared error of the predictive locations."""
    y, locations = _paired(y, locations)
    return float(np.sqrt(np.mean((locations - y) ** 2)))


def nll(y, locations, scales, dof):
    """Mean negative log Student-t predictive density at the observed outputs.

    The log density at y is ln poch(dof/2, 1/2) - (ln dof + ln pi)/2
    - (dof + 1)/2 ln(1 + z^2/dof) - ln scale, with z = (y - loc)/scale.
    The ratio of gamma functions, poch(a, 1/2) = Gamma(a + 1/2)/Gamma(a),
    comes from one poch call: a difference of log-gammas cancels at large
    dof. A dof or a scale that is not positive and finite raises
    ValueError.
    """
    y, locations = _paired(y, locations)
    scales = np.asarray(scales, dtype=float)
    dof = float(dof)
    if not (np.isfinite(dof) and dof > 0):
        raise ValueError(f"dof must be positive and finite, got {dof!r}")
    if not (np.isfinite(scales).all() and (scales > 0).all()):
        raise ValueError("scales must be positive and finite")
    z = (y - locations) / scales
    logpdf = (np.log(poch(0.5 * dof, 0.5)) - 0.5 * (np.log(dof) + np.log(np.pi))
              - (dof + 1) / 2 * np.log1p(z * z / dof) - np.log(scales))
    return float(-np.mean(logpdf))


@dataclass
class EvalReport:
    """Metrics plus per-point predictive moments in original output units."""

    rmse: float
    nll: float
    locations: np.ndarray
    variances: np.ndarray
    scales: np.ndarray
    dof: float


def evaluate(state, u, y, start=0):
    """Score the model on a raw record, reporting original-unit metrics.

    The windows of y[start:] are scored by predict, so they see the true
    past of the input. The variances are dof/(dof-2) scale^2, NaN when
    dof <= 2.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.shape != y.shape or u.ndim != 1:
        raise ValueError("u and y must be one-dimensional and equally long")
    if not np.isfinite(y).all():
        raise ValueError("output record must be finite")
    locations, scales, dof = predict(state, u, start)
    y = y[start:]
    variances = (dof / (dof - 2.0) * np.square(scales) if dof > 2
                 else np.full_like(scales, float("nan")))
    return EvalReport(
        rmse=rmse(y, locations),
        nll=nll(y, locations, scales, dof),
        locations=locations,
        variances=variances,
        scales=scales,
        dof=dof,
    )
