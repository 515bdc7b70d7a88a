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
channels (features.base_channels), whose taps are entries of the
coefficients c. _cov_taps reads them straight from the covariance blocks,
so no coefficient array is built. The D factors' pairs are taken in walks
whose transformed taps, and whose products at one record chunk, each fit
TAP_BYTES; each pair's taps are transformed once per call, and each walk
goes over the record FFT_BLOCK windows at a time. A record chunk's
projections on the factor means and the spectra of its channels are built
once per walk and serve every factor in it; when a call makes several
walks and the whole record's projections and spectra fit TAP_BYTES, they
are built once and held across the walks. That costs about
I (length/2 + 1) / hop complex multiply-adds per pair and window where the
packed form does I(I+1)/2 real ones, plus the fixed cost of the taps
transform, which a short record does not repay. The locations come from
each chunk's first projections, taken on the packed form's blocks, so they
are bit for bit the packed form's. One scratch set per call, for one
walk's transformed taps (at most TAP_BYTES) and its products, weights and
sums at one record chunk, serves every walk and chunk; beyond it the form
holds the held inputs if any (at most TAP_BYTES again), one batch of
TAP_ROWS pairs' taps and O((I + pairs in a walk) FFT_BLOCK) more, so past
that budget its memory grows with N only by the N-vectors.

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
    _bands,
    base_channels,
    block_quadratics,
    column_blocks,
    fill_blocks,
    hadamard,
    lag_blocks,
    moment_pairs,
    window_pairs,
)

# overlap-save scoring: the most bytes of one walk's transformed taps, and
# of the record inputs held across walks; the pairs or channels transformed
# at a time; the windows of one record chunk (whole SCORE_BLOCK blocks, so
# that the locations are taken on the packed form's blocks); and the fewest
# windows a record must have to take that form
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
    """The (R(R+1)/2, 1) factors 2 - delta_rs of the packed column pairs."""
    r, s = moment_pairs(rank)
    return np.where(r == s, 1.0, 2.0)[:, None]


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
    twice = _pair_scales(state.rank)
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


def _walks(state):
    """The walks of _fft_scores: the D R(R+1)/2 rows (d, p) of the factors'
    coefficients, factor slow, in runs whose transformed taps fit
    TAP_BYTES, as do their products, inverses and weights at one record
    chunk; each run a list of (d, first, stop) for the pairs
    first <= p < stop of factor d."""
    length = _fft_length(state.memory)
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


def _band_runs(rank, first, stop):
    """Yield (row, r, lo, hi) for the packed column pairs first <= p < stop
    of a rank-R stack, band by band of _bands: the pairs (r, s) for
    lo <= s < hi, which are the rows row, row + 1, ... of the range."""
    for r, rows in _bands(rank):
        begin, end = max(rows.start, first), min(rows.stop, stop)
        if begin < end:
            yield begin - first, r, r + begin - rows.start, r + end - rows.start


def _skew(cov, first, shape, steps):
    """A view of the C-order matrix `cov` from its flat element `first` on,
    with the given shape and steps in elements. numpy refuses, with
    ValueError, a view that would reach past the covariance's buffer."""
    return np.ndarray(shape, cov.dtype, cov, first * cov.itemsize,
                      tuple(cov.itemsize * step for step in steps))


def _cov_taps(cov, rank, first, stop, constants, rows, taps):
    """Write the constants and taps of the packed column pairs
    first <= p < stop of the covariance `cov`, scaled by 2 - delta_rs, into
    `constants` (P,) and `taps` (P, I, M), through the t-major scratch
    `rows` (P, M, I): with `taps` zero beforehand, they are pair_taps of
    the rows of block_quadratics(cov) times 2 - delta_rs, bit for bit.

    Tap t of channel 0 is C_rs[0, t + 1] + C_sr[0, t + 1], tap t of
    channel 1 + k is C_rs[1 + t, 1 + t + k] + C_sr[1 + t, 1 + t + k],
    halved at k = 0, and the constant is C_rs[0, 0]. These are the sums
    block_quadratics makes, C_rs[i, j] + C_rs[j, i], since the covariance
    is exactly symmetric: C_rs[j, i] = C_sr[i, j]. Each band run of pairs
    (r, s) is read as strided views of the blocks (_skew), each tap row t
    contiguous along k into rows[:, t], and the taps are one transposed
    copy of `rows`. A row t < M - 1 is read for every k, so `rows` holds
    other covariance entries past the pair's last tap, t + k >= M; the
    copy leaves those taps as they were. The row t = M - 1 holds only
    k = 0 and is read on its own, so no view reaches past the last block,
    and the rest of it is never written: `rows` must start finite.
    """
    size = cov.shape[0]
    window = size // rank
    memory = window - 1
    blocks = cov.reshape(rank, window, rank, window)
    for row, r, lo, hi in _band_runs(rank, first, stop):
        pairs = slice(row, row + hi - lo)
        constants[pairs] = blocks[r, 0, lo:hi, 0]
        np.add(blocks[r, 0, lo:hi, 1:], blocks[lo:hi, 0, r, 1:], out=rows[pairs, :, 0])
        if memory > 1:
            shape = (hi - lo, memory - 1, memory)
            np.add(_skew(cov, (r * window + 1) * size + lo * window + 1, shape,
                         (window, size + 1, 1)),
                   _skew(cov, (lo * window + 1) * size + r * window + 1, shape,
                         (window * size, size + 1, 1)),
                   out=rows[pairs, :-1, 1:])
        np.add(blocks[r, memory, lo:hi, memory], blocks[lo:hi, memory, r, memory],
               out=rows[pairs, -1, 1])
        # the pairs s > r of the run
        off = slice(row + (lo == r), row + hi - lo)
        constants[off] *= 2.0
        rows[off] *= 2.0
    rows[:, :, 1] *= 0.5
    np.copyto(taps, rows.transpose(0, 2, 1),
              where=np.add.outer(np.arange(window), np.arange(memory)) <= memory)


def _walk_taps(state, walks, length, scratch):
    """Yield, for each walk, its pairs' constants and the (F, P, I) rfft at
    `length` of their taps, read straight from the covariances by
    _cov_taps. The taps are made TAP_ROWS pairs at a time, into a buffer
    already zero-padded to `length`, and transformed four pairs at a time,
    so the untransformed taps and one transform's output stay small. Every
    walk's transforms are written into the flat complex `scratch`, which
    the caller reads before it takes the next walk.
    """
    window, memory = state.window, state.memory
    freqs = length // 2 + 1
    batch = min(TAP_ROWS, max(stop - first for walk in walks for _, first, stop in walk))
    rows = np.zeros((batch, memory, window))
    # the taps past each pair's last, and the padding, stay zero
    padded = np.zeros((batch, window, length))
    for walk in walks:
        constants = np.empty(sum(stop - first for _, first, stop in walk))
        spectra = scratch[:freqs * constants.size * window].reshape(
            freqs, constants.size, window)
        row = 0
        for d, first, stop in walk:
            cov = np.ascontiguousarray(state.factors[d].cov, dtype=float)
            for lo in range(first, stop, TAP_ROWS):
                count = min(TAP_ROWS, stop - lo)
                _cov_taps(cov, state.rank, lo, lo + count, constants[row:row + count],
                          rows[:count], padded[:count, :, :memory])
                # four pairs at a time, so that a transform's output is
                # still in cache when it is copied into the walk's layout
                for j in range(0, count, 4):
                    k = min(j + 4, count)
                    spectra[:, row + j:row + k] = np.fft.rfft(
                        padded[j:k], axis=-1).transpose(2, 0, 1)
                row += count
        yield constants, spectra


def _chunk_inputs(state, x, begin, size, length):
    """What every walk shares at the `size` windows of x from `begin`: their
    (D, R, size) projections on the factor means, taken on lag_blocks'
    SCORE_BLOCK blocks as _scorer gets them, and the (F, I, S) rfft of the
    S overlap-save segments of their base channels."""
    means, memory = state.factor_means, state.memory
    projections = fill_blocks(lag_blocks(x[:begin + size], memory, begin),
                              (len(means), state.rank), size,
                              lambda block: [m.T @ block for m in means])
    hop = length - memory + 1
    channels = base_channels(x, memory, begin, begin + -(-size // hop) * hop)
    segments = sliding_window_view(channels, length, axis=1)[:, ::hop]
    spectra = np.empty((length // 2 + 1,) + segments.shape[:2], dtype=complex)
    for first in range(0, segments.shape[0], TAP_ROWS):
        rows = slice(first, first + TAP_ROWS)
        spectra[:, rows] = np.fft.rfft(segments[rows], axis=-1).transpose(2, 0, 1)
    return projections, spectra


def _fft_scores(state, x, start):
    """The (2, n) model-unit locations and squared scales of the windows of
    x[start:], as the packed scorer gives them, with each row q of
    c @ window_pairs(U) in its sum over pairs of (2 - delta_rs) h_r h_s q_rs
    taken as a filter bank over the record's base channels.

    The D factors' pairs are split into walks (_walks, _walk_taps). Each
    walk goes over the record FFT_BLOCK windows at a time, and a record
    chunk's projections and channel spectra (_chunk_inputs) serve every pair
    of the walk: one batched complex product per frequency and one inverse
    transform per pair give the rows q (overlap-save: segments of `length`
    channel samples advance by hop = length - M + 1 windows, and each keeps
    its last hop samples), and one contraction with the weights h_r h_s of
    the walk's pairs, from the cofactors h_d band by band (_band_runs),
    sums them, the constants entering as one product with the weights.
    When a call makes several walks and every chunk's inputs fit TAP_BYTES
    together, they are built once and held; otherwise each walk rebuilds
    them. The locations come from each chunk's first projections, on the
    blocks _scorer gets, so they are its own.

    One scratch set, made once per call for the most pairs of a walk and
    the most segments of a chunk, serves every walk and chunk: the walk's
    transformed taps, the per-frequency products (matmul out=), the pair
    weights, of which only the tail past the chunk is zeroed, and the sums
    (einsum out=).
    """
    memory, rank = state.memory, state.rank
    length = _fft_length(memory)
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
    for w, (walk, (constants, taps)) in enumerate(
            zip(walks, _walk_taps(state, walks, length, spectra))):
        pairs = constants.size
        for offset in offsets:
            size = min(FFT_BLOCK, n - offset)
            if offset in held:
                projections, channels = held[offset]
            else:
                projections, channels = _chunk_inputs(state, x, start + offset, size,
                                                       length)
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
                others = [p for k, p in enumerate(projections) if k != d]
                h = hadamard(others, (rank, size))
                for at, band, lo, hi in _band_runs(rank, first, stop):
                    np.multiply(h[band], h[lo:hi],
                                out=pair_weights[row + at:row + at + hi - lo, :size])
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
