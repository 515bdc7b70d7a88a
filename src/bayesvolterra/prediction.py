"""Student-t predictive distributions and evaluation metrics, as arrays.

predictive_arrays gives model-unit locations, squared scales and dof for a
window matrix; one window u_n is the column U[:, [n]]. predict is the
whole path from a raw input record to original output units: it keeps the
normalized record, an N-vector, and turns it into windows one lag_blocks
block at a time, so no I x N window matrix is built.

The squared scale is b_N/a_N plus one quadratic form per factor, summed
over the packed column pairs of the features module. It takes one of two
forms. The packed form (_scorer) is one features.fill_blocks walk: per
block, one product of the D factors' stacked coefficients
(block_quadratics) with the block's window square, weighed by the pair
weights of the cofactors (features.weigh_pairs). predictive_arrays, which
takes arbitrary windows, always uses it. On a record of at least
FFT_WINDOWS windows at long memory (_fft_scoring, a rule on M, R and the
number of windows), predict takes the filter-bank form instead
(_fft_scores): the same sums as a bank of FIR filters over the record's
base channels, by overlap-save FFT (features.tap_spectra and
features.channel_spectra). Its pairs go in walks (_walks) whose
transformed taps, and whose products at one record chunk of FFT_BLOCK
windows, each fit TAP_BYTES, and a record chunk's inputs are held across
the walks when the whole record's fit TAP_BYTES too; so past that budget
its memory grows with N only by the N-vectors. Both forms take the
locations on the same lag_blocks blocks, so those are bit for bit equal.

evaluate scores predict with the array metrics rmse and nll, the
Student-t log density in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import poch

from .data import normalize_input
from .errors import checked
from .features import (
    SCORE_BLOCK,
    block_quadratics,
    block_windows,
    channel_spectra,
    column_blocks,
    fft_length,
    fill_blocks,
    hadamard,
    lag_blocks,
    pair_scales,
    tap_spectra,
    weigh_pairs,
    window_pairs,
)

# overlap-save scoring: the most bytes of one walk's transformed taps, and
# of the record inputs held across walks; the windows of one record chunk
# (whole lag_blocks blocks wherever _fft_scoring takes this form, so that
# the locations are taken on the packed form's blocks); and the fewest
# windows a record must have to take that form
TAP_BYTES = 12 << 20
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


def _scorer(state, windows):
    """The scoring contraction for a walk over `windows` windows: a block of
    B windows to the (2, B) array of their model-unit locations and squared
    scales.

    The squared scale is b_N/a_N plus one quadratic form per factor,
    g_d' Sigma_d g_d, with g_d = h_d kron u_n the mode-d design column at
    the posterior means. It is summed over the column pairs r <= s as
    (2 - delta_rs) h_r h_s q_rs, where h_r h_s is a row of window_pairs(h_d)
    and q_rs = u_n' C_rs u_n comes from block_quadratics(Sigma_d) and the
    block's window_pairs. The D factors' coefficients are built once per
    contraction, into one (D R(R+1)/2, I(I+1)/2) array scaled by
    2 - delta_rs in place, so a block takes one product with its window
    square for every factor. Each factor's rows of that product are
    weighed in place by h_r h_s (weigh_pairs) and summed in the order of
    the pairs. The window square, the product and one band of weights are
    written into one scratch array, made once per contraction for the
    widest block the walk can have. One allocation rather than three: with
    glibc's allocator and numpy, separate buffers were faulted in page by
    page on every call (about 2 000 faults a call at D = 3, M = 20,
    R = 11), the single one on none after the first.
    """
    order, rank, window = state.order, state.rank, state.window
    pairs, squares = rank * (rank + 1) // 2, window * (window + 1) // 2
    coefs = np.empty((order, pairs, squares))
    for f, c in zip(state.factors, coefs):
        block_quadratics(f.cov, rank, window, c)
    coefs *= pair_scales(rank)
    coefs = coefs.reshape(order * pairs, squares)
    noise_var = float(state.noise.rate / state.noise.shape)
    widest = min(block_windows(state.memory), windows)
    scratch = np.empty((squares + order * pairs + rank) * widest)
    square, products, band = np.split(
        scratch, [squares * widest, (squares + order * pairs) * widest])

    def score(block):
        n = block.shape[1]
        projections = [m.T @ block for m in state.factor_means]
        out = np.full((2, n), noise_var)
        out[0] = hadamard(projections, (rank, n)).sum(axis=0)
        uu = window_pairs(block, square[:squares * n].reshape(squares, n))
        q = products[:order * pairs * n].reshape(order, pairs, n)
        np.matmul(coefs, uu, out=q.reshape(order * pairs, n))
        for d in range(order):
            h = hadamard(projections[:d] + projections[d + 1:], (rank, n))
            out[1] += weigh_pairs(q[d], h, band).sum(axis=0)
        return out

    return score


def _walks(state):
    """The walks of _fft_scores: the D R(R+1)/2 rows (d, p) of the factors'
    coefficients, factor slow, in runs whose transformed taps fit
    TAP_BYTES, as do their products, inverses and weights at one record
    chunk; each run a list of (d, first, stop) for the pairs
    first <= p < stop of factor d."""
    length = fft_length(state.memory)
    freqs, hop = length // 2 + 1, length - state.memory + 1
    taps = 16 * state.window * freqs
    scratch = -(-FFT_BLOCK // hop) * (16 * freqs + 8 * length + 8 * hop)
    per = max(1, TAP_BYTES // max(taps, scratch))
    pairs = state.rank * (state.rank + 1) // 2
    total = state.order * pairs
    walks = []
    for first in range(0, total, per):
        stop = min(first + per, total)
        walks.append([(d, max(first - d * pairs, 0), min(stop - d * pairs, pairs))
                      for d in range(first // pairs, (stop - 1) // pairs + 1)])
    return walks


def _fft_scores(state, x, start):
    """The (2, n) model-unit locations and squared scales of the windows of
    x[start:], as the packed scorer gives them, with each row q of
    c @ window_pairs(U) in its sum over pairs of (2 - delta_rs) h_r h_s q_rs
    taken as a filter bank over the record's base channels.

    The D factors' pairs are split into walks (_walks, tap_spectra). Each
    walk goes over the record FFT_BLOCK windows at a time, and a record
    chunk's projections on the factor means, taken on lag_blocks' blocks
    as _scorer gets them, and its channel spectra (channel_spectra) serve
    every pair of the walk: one batched complex product per frequency and
    one inverse transform per pair give the rows q, each segment keeping
    its last hop = length - M + 1 samples, and one contraction with the
    pair weights h_r h_s of the walk's pairs (window_pairs of the
    cofactors h_d) sums them, the constants entering as one product with
    the weights. When a call makes several walks and every chunk's inputs
    fit TAP_BYTES together, they are built once and held; otherwise each
    walk rebuilds them. The locations come from each chunk's first
    projections, so they are the packed form's own.

    One scratch set, made once per call for the most pairs of a walk and
    the most segments of a chunk, serves every walk and chunk: the walk's
    transformed taps, the per-frequency products (matmul out=), the pair
    weights, of which only the tail past the chunk is zeroed, and the sums
    (einsum out=).
    """
    means, memory, rank = state.factor_means, state.memory, state.rank
    length = fft_length(memory)
    freqs, hop = length // 2 + 1, length - memory + 1
    n = x.size - start
    walks = _walks(state)
    offsets = range(0, n, FFT_BLOCK)
    # the record's segments; each one's channel spectra are I (length/2 + 1)
    # complex values
    spans = sum(-(-min(FFT_BLOCK, n - o) // hop) for o in offsets)
    inputs = 16 * state.window * freqs * spans + 8 * state.order * rank * n
    hold = len(walks) > 1 and inputs <= TAP_BYTES
    # one scratch set for the call, sized for the most pairs of a walk and
    # the most segments of a record chunk
    most = max(sum(stop - first for _, first, stop in walk) for walk in walks)
    widest = -(-min(FFT_BLOCK, n) // hop)
    spectra = np.empty(freqs * most * state.window, dtype=complex)
    products = np.empty(freqs * most * widest, dtype=complex)
    weights = np.empty(most * widest * hop)
    totals = np.empty(widest * hop)
    out = np.full((2, n), float(state.noise.rate / state.noise.shape))
    held = {}
    for w, (walk, (constants, taps)) in enumerate(zip(walks, tap_spectra(
            [f.cov for f in state.factors], rank, memory, walks, length, spectra))):
        pairs = constants.size
        for offset in offsets:
            size, begin = min(FFT_BLOCK, n - offset), start + offset
            if offset in held:
                projections, channels = held[offset]
            else:
                projections = fill_blocks(lag_blocks(x[:begin + size], memory, begin),
                                          (len(means), rank), size,
                                          lambda block: [m.T @ block for m in means])
                channels = channel_spectra(x, memory, begin, size, length)
                if hold:
                    held[offset] = projections, channels
            if w == 0:
                out[0, offset:offset + size] = hadamard(list(projections),
                                                        (rank, size)).sum(axis=0)
            segments = channels.shape[-1]
            pair_weights = weights[:pairs * segments * hop].reshape(pairs, -1)
            # the last segment's windows past the chunk weigh nothing
            pair_weights[:, size:] = 0.0
            row = 0
            for d, first, stop in walk:
                h = hadamard([*projections[:d], *projections[d + 1:]], (rank, size))
                window_pairs(h, pair_weights[row:row + stop - first, :size], first, stop)
                row += stop - first
            product = products[:freqs * pairs * segments].reshape(freqs, pairs, segments)
            np.matmul(taps, channels, out=product)
            q = np.fft.irfft(product.transpose(1, 2, 0), n=length, axis=-1)
            total = totals[:segments * hop].reshape(segments, hop)
            np.einsum("psk,psk->sk", q[..., memory - 1:],
                      pair_weights.reshape(pairs, segments, hop), out=total)
            chunk = out[1, offset:offset + size]
            chunk += total.reshape(-1)[:size]
            chunk += constants @ pair_weights[:, :size]
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
                                      _scorer(state, U.shape[1]))
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
                                        windows, _scorer(state, windows))
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
