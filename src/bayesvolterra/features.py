"""Lag windows, the CPD contraction, design matrices, and their posterior
expectations.

build_lagged_matrix makes the whole I x N window matrix U of a record,
which the fit needs. lag_blocks yields the same columns one block at a
time, each block built from the slice of the record that carries its
M - 1 samples of history, and column_blocks slices a matrix already built
the same way. A block is sized by its window square (block_windows):
SCORE_BLOCK windows times the largest power of two up to 8 whose
window_pairs fits BLOCK_BYTES, so short memories take few wide blocks and
long ones blocks of SCORE_BLOCK. fill_blocks is the one walk over such
blocks: it writes a contraction of each block into its columns of the
output. Scoring and simulation use it, so they hold one block's windows
instead of U.

Every per-factor product, of projections W_d' U or of moment stacks, is
one left fold, hadamard. The model output, design columns and synthetic
records come from column_products, the (R, N) stack of per-column
products prod_d (W_d' u_n). The second-moment and expected-Gram routines
are where the inference loop spends its time. Both contract against the
packed window square window_pairs(U), which the caller builds once per
fit; block_quadratics turns a factor covariance into the coefficients
that map it to the quadratic forms u_n' C_rs u_n, which the predictive
variance uses as well. A covariance is read by one routine, _block_sums,
which writes the summed blocks C_rs + C_sr of a run of packed pairs; both
block_quadratics and the predictive variance's filter taps are taken
from those sums. Every symmetric pair array, the window square, a
second-moment stack and a covariance's coefficients, is packed by the one
rule of _bands, and an elementwise product of packed stacks is the packed
product. The index arrays of that layout, the pairs, their flat index into
an n x n block, the diagonal rows and the symmetric row index, are built
once per size by _pair_layout and cached; they are read-only, shared by
every caller, and must never be written. Each reduction over samples has
one implementation, a dense product or sum; a fit repeats bit for bit at
a fixed seed and BLAS thread count.

The kernels make no gathers of full size: each walks its pairs one band
of _bands at a time, so beyond its output second_moments holds only
O(R N) and O(R(R+1)/2 I(I+1)/2) scratch.

On a contiguous record the window square has more structure: each packed
window pair is a delayed copy of one of I base channels, the input x and
the lag products z_k(m) = x(m) x(m - k). So a product c @ window_pairs(U)
is a bank of FIR filters over those channels, whose taps are entries of
c: window n is (1, x(n), ..., x(n - M + 1)), so its pair (0, b) is
x(n - (b - 1)) and a pair (a >= 1, b) is z_{b-a}(n - (a - 1)).
base_channels builds the channels of a stretch of the record, as
lag_blocks builds its windows, and channel_taps states where each tap
sits in a block of window pairs; the predictive variance moves the taps
from the summed blocks by that index and convolves the two.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import checked
from .tensor_ops import check_factors, khatri_rao

# wherever a record is turned into windows one block at a time (lag_blocks,
# column_blocks): the fewest windows of a block, and the most bytes of a
# block's window square, up to which blocks grow to SCORE_BLOCK * 2^k, k <= 3
SCORE_BLOCK = 512
BLOCK_BYTES = 4 << 20


def _check_signal(u, memory):
    """The checked memory of a window matrix of the nonempty vector u."""
    if u.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if u.size == 0:
        raise ValueError("signal is empty")
    return checked("memory", memory, int, minimum=1)


def build_lagged_matrix(signal, memory):
    """Stack lagged copies of the input into the I x N window matrix.

    Column n holds (1, u(n), u(n-1), ..., u(n-M+1)): row 0 is the constant
    term, row 1+j carries lag j, and samples before the start of the record
    are zero.
    """
    u = np.asarray(signal, dtype=float)
    memory = _check_signal(u, memory)
    n = u.size
    out = np.zeros((memory + 1, n))
    out[0] = 1.0
    for lag in range(min(memory, n)):
        out[1 + lag, lag:] = u[: n - lag]
    return out


def block_windows(memory):
    """The windows of one block of a memory-M window matrix: SCORE_BLOCK
    times the largest 2^k, k <= 3, whose packed window square,
    I(I+1)/2 rows of 8-byte products, fits BLOCK_BYTES; SCORE_BLOCK when
    none does. That is 4096 windows up to M = 14, 2048 up to M = 21, 1024
    up to M = 30 and 512 beyond."""
    squares = (memory + 1) * (memory + 2) // 2
    size = SCORE_BLOCK << 3
    while size > SCORE_BLOCK and 8 * squares * size > BLOCK_BYTES:
        size //= 2
    return size


def lag_blocks(signal, memory, start=0):
    """Yield (offset, U_block) for the windows of `signal` from `start` on,
    block_windows(memory) windows at a time.

    U_block holds the columns start + offset, start + offset + 1, ... of
    build_lagged_matrix(signal, memory), bit for bit: it is built from the
    slice of the signal that ends with its last window and carries the
    M - 1 samples before its first, and is a view of that slice's window
    matrix. The blocks start at start, start + B, ... for B =
    block_windows(memory), so only one block's windows exist at a time.
    """
    u = np.asarray(signal, dtype=float)
    memory = _check_signal(u, memory)
    start = checked("start", start, int)
    if not 0 <= start < u.size:
        raise ValueError(f"start {start} is outside the {u.size} samples")
    size = block_windows(memory)
    for begin in range(start, u.size, size):
        first = max(0, begin - memory + 1)
        windows = build_lagged_matrix(u[first:begin + size], memory)
        yield begin - start, windows[:, begin - first:]


def base_channels(signal, memory, begin, stop):
    """The (I, stop - begin + M - 1) base channels of a record at the
    samples m = begin - M + 1, ..., stop - 1, one column each.

    Row 0 is the input x(m) and row 1 + k is z_k(m) = x(m) x(m - k), for
    k = 0, ..., M - 1, with the record zero outside its samples, as
    build_lagged_matrix takes it. Filtered by the taps of packed
    coefficients c, tap t of channel 0 the coefficient of the pair
    (0, t + 1) and tap t of channel 1 + k that of (t + 1, t + 1 + k)
    (channel_taps), plus the coefficient of (0, 0), they give
    c @ window_pairs(U) at the windows begin, ..., stop - 1.
    """
    u = np.asarray(signal, dtype=float)
    # M - 1 more samples of the past, for the lag products of the first
    first = begin - 2 * memory + 2
    padded = np.zeros(stop - first)
    lo, hi = max(first, 0), min(stop, u.size)
    if lo < hi:
        padded[lo - first:hi - first] = u[lo:hi]
    span = stop - begin + memory - 1
    x = padded[memory - 1:]
    out = np.empty((memory + 1, span))
    out[0] = x
    for k in range(memory):
        np.multiply(x, padded[memory - 1 - k:memory - 1 - k + span], out=out[1 + k])
    return out


def channel_taps(memory):
    """Where the (I, M) taps of the base channels sit in an I x I block of
    window pairs: (index, valid), both (I, M), tap t of channel c being
    entry index[c, t] of the flattened block wherever valid[c, t].

    Tap t of channel 0 is entry (0, t + 1) and tap t of channel 1 + k is
    entry (1 + t, 1 + t + k), as base_channels describes; the taps with
    t + k >= M have no entry (valid False, index 0) and are zero. Every
    window pair i <= j but (0, 0), the constant, is one tap.
    """
    window = memory + 1
    t = np.arange(memory)
    i = np.vstack([np.zeros(memory, dtype=int), np.broadcast_to(1 + t, (memory, memory))])
    j = np.vstack([1 + t, 1 + t + t[:, None]])
    valid = j < window
    return np.where(valid, i * window + j, 0), valid


def column_blocks(U):
    """Yield (offset, U[:, offset:offset + B]) for the columns of the
    window matrix U, B = block_windows(M) at a time for its I = M + 1 rows:
    lag_blocks for a matrix already built."""
    size = block_windows(U.shape[0] - 1)
    for begin in range(0, U.shape[1], size):
        yield begin, U[:, begin:begin + size]


def fill_blocks(blocks, rows, n, contraction):
    """The rows + (n,) array whose columns from `offset` on hold
    contraction(block), for each (offset, block) pair of `blocks`."""
    out = np.empty(rows + (n,))
    for offset, block in blocks:
        out[..., offset:offset + block.shape[1]] = contraction(block)
    return out


def hadamard(arrays, shape):
    """The elementwise product of the equally shaped `arrays`, folded left
    to right into a new array, never one of the inputs and with no pass
    over ones; all ones of `shape` when there are none."""
    if not arrays:
        return np.ones(shape)
    out = arrays[0] * arrays[1] if len(arrays) > 1 else np.array(arrays[0], dtype=float)
    for array in arrays[2:]:
        out *= array
    return out


def column_products(U, factors, skip=None):
    """The (R, N) stack prod_{d != skip} (W_d' U), one row per CPD column.

    Column n, summed over rows, is the model output at window u_n; with
    `skip` set it is the cofactor that multiplies factor `skip`. The
    projections are folded by hadamard; the product over no factors is all
    ones.
    """
    order, window, rank = check_factors(factors)
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != window:
        raise ValueError(f"window matrix has shape {U.shape}, "
                         f"factors expect {window} rows")
    if skip is not None and not 0 <= skip < order:
        raise ValueError(f"mode {skip} out of range for {order} factors")
    return hadamard([np.asarray(fac, dtype=float).T @ U
                     for d, fac in enumerate(factors) if d != skip],
                    (rank, U.shape[1]))


def design_matrix(U, means, mode):
    """Design matrix for one factor: column n = (had_{k != mode} W_k' u_n) kron u_n.

    The Hadamard part varies slowest, matching the vec layout of the
    factor it multiplies. For a single-factor model the product over the
    other modes is empty and the result is U repeated over the rank.
    """
    U = np.asarray(U, dtype=float)
    return khatri_rao(column_products(U, means, skip=mode), U)


def _bands(n):
    """Yield (a, rows) for a < n: the band of packed rows holding the pairs
    (a, b) for b = a, a + 1, ..., n - 1, in that order.

    This is the one packed layout of a symmetric pair array: the n(n+1)/2
    pairs a <= b of n items, one per row, in np.triu_indices(n) order (a
    slow), so band a is the n - a rows after the bands 0 ... a - 1.
    """
    stop = 0
    for a in range(n):
        start, stop = stop, stop + n - a
        yield a, slice(start, stop)


class PairLayout(NamedTuple):
    """The index arrays of the packed layout of n items (_bands), all
    read-only: the pairs (i, j) = np.triu_indices(n), one per packed row;
    their flat index i * n + j into an n x n block; the diagonal rows, where
    i == j; and the symmetric (n, n) index whose entries (i, j) and (j, i)
    both hold the row of the pair (i, j)."""

    i: np.ndarray
    j: np.ndarray
    flat: np.ndarray
    diagonal: np.ndarray
    symmetric: np.ndarray


@functools.lru_cache(maxsize=32)
def _pair_layout(n):
    """The PairLayout of n items, built once per size and then shared: a
    sweep reads it for its rank and window several times per factor."""
    i, j = np.triu_indices(n)
    symmetric = np.empty((n, n), dtype=np.intp)
    symmetric[i, j] = symmetric[j, i] = np.arange(i.size)
    layout = PairLayout(i, j, i * n + j, np.flatnonzero(i == j), symmetric)
    for array in layout:
        array.flags.writeable = False
    return layout


def moment_pairs(rank):
    """The column pairs (r, s) of a packed moment stack, one per row, in the
    layout of _bands: np.triu_indices(rank). The two arrays are cached and
    read-only (_pair_layout); a caller must not write them."""
    layout = _pair_layout(rank)
    return layout.i, layout.j


def kept_pairs(keep, rank):
    """Boolean mask of the rows of a packed rank-`rank` stack whose columns
    r and s are both in `keep`.

    With `keep` sorted, as truncate_rank returns it, the selected rows are
    the packed stack of the kept columns, in moment_pairs order.
    """
    r, s = moment_pairs(rank)
    kept = np.zeros(rank, dtype=bool)
    kept[keep] = True
    return kept[r] & kept[s]


def _packed_rank(rows):
    """R such that a packed stack of R columns has `rows` rows, else None."""
    rank = (math.isqrt(8 * rows + 1) - 1) // 2
    return rank if rank * (rank + 1) // 2 == rows else None


def _output(out, shape):
    """`out`, which must have `shape`, or a new array of that shape."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    return out


def window_pairs(U, out=None):
    """The packed square of the rows of any (I, N) matrix: the (I(I+1)/2, N)
    products U[i] * U[j] for i <= j, in the layout of _bands.

    These are the rows of khatri_rao(U, U) with i <= j; the rest of that
    square repeats them. Each entry is one product, written in place, into
    `out` when that is given. Of the window matrix it is the packed window
    square u_i u_j.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ValueError(f"window matrix has shape {U.shape}, expected a matrix")
    window = U.shape[0]
    out = _output(out, (window * (window + 1) // 2, U.shape[1]))
    for i, rows in _bands(window):
        np.multiply(U[i], U[i:], out=out[rows])
    return out


def _band_runs(rank, first, stop):
    """Yield (row, r, lo, hi) for the packed column pairs first <= p < stop
    of a rank-R stack, band by band of _bands: the pairs (r, s) for
    lo <= s < hi, which are the rows row, row + 1, ... of the range. The
    walk starts at the band that holds `first` and ends after the one that
    holds stop - 1."""
    if first >= stop:
        return
    layout = _pair_layout(rank)
    r = int(layout.i[first])
    # the first row of band r: the pair (r, s) sits s - r rows into it
    begin = first - (int(layout.j[first]) - r)
    while begin < stop:
        end = begin + rank - r
        lo, hi = max(begin, first), min(end, stop)
        yield lo - first, r, r + lo - begin, r + hi - begin
        begin, r = end, r + 1


def _block_sums(blocks, first, stop, out):
    """Write C_rs + C_sr for the packed column pairs first <= p < stop of
    the (R, I, R, I) covariance blocks into `out` (stop - first, I, I), and
    return it.

    This is the one reader of a covariance's quadratic forms: on an
    exactly symmetric covariance C_sr[i, j] is C_rs[j, i], so entry (i, j)
    is the coefficient of the window pair i < j in u' C_rs u, and the
    diagonal is twice that of the pair (i, i). One np.add of two views of
    the blocks per band run (_band_runs).
    """
    for row, r, lo, hi in _band_runs(blocks.shape[0], first, stop):
        np.add(blocks[r, :, lo:hi, :].transpose(1, 0, 2), blocks[lo:hi, :, r, :],
               out=out[row:row + hi - lo])
    return out


def block_quadratics(cov, rank, window, out=None):
    """Coefficients c with (c @ window_pairs(U))[p, n] = u_n' C_rs u_n.

    C_rs is the I x I block of the (R*I, R*I) covariance coupling columns
    r and s (column index slow), for the pair (r, s) = moment_pairs(R)[p].
    The result is (R(R+1)/2, I(I+1)/2): C_rs[i, j] + C_rs[j, i] for the
    window pair i < j, and C_rs[i, i] on the diagonal. The covariance must
    be exactly symmetric, as _solve_spd, truncate_rank, init_state and
    load_model each make it: the sums are read as C_rs + C_sr
    (_block_sums), one band of rows at a time into an (R, I, I) scratch,
    and the window pairs i <= j taken from it, so no (R(R+1)/2, I, I) copy
    of the blocks is made. It is written into `out` when that is given.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (window * rank, window * rank):
        raise ValueError(f"covariance shape {cov.shape} does not match "
                         f"rank {rank} and window {window}")
    blocks = cov.reshape(rank, window, rank, window)
    layout = _pair_layout(window)
    out = _output(out, (rank * (rank + 1) // 2, layout.flat.size))
    sums = np.empty((rank, window, window))
    for r, rows in _bands(rank):
        band = _block_sums(blocks, rows.start, rows.stop, sums[:rank - r])
        np.take(band.reshape(rank - r, -1), layout.flat, axis=1, out=out[rows])
    # the diagonal pairs added C_rs[i, i] to itself; halving is exact
    out[:, layout.diagonal] *= 0.5
    return out


def _check_pairs(U, uu):
    window, n_samples = U.shape
    if np.shape(uu) != (window * (window + 1) // 2, n_samples):
        raise ValueError(f"uu has shape {np.shape(uu)}, window_pairs(U) has "
                         f"{(window * (window + 1) // 2, n_samples)}")


def second_moments(U, mean, cov, uu):
    """Projected second moments E[(W'u_n)(W'u_n)'] for one factor posterior.

    Returns the packed (R(R+1)/2, N) stack: row p, for the pair (r, s) =
    moment_pairs(R)[p], has entry (m_r'u_n)(m_s'u_n) + u_n' C_{rs} u_n at
    sample n, where C_{rs} is the I x I block of the covariance coupling
    columns r and s (column index slow). The quadratic forms are
    block_quadratics(cov) @ uu, with `uu` the packed window square
    window_pairs(U); that product is the output, and the plug-in products
    are added to it band by band, so no other array of the output's size
    is made. As for block_quadratics, the covariance must be exactly
    symmetric, which _solve_spd, truncate_rank, init_state and load_model
    each guarantee.
    """
    mean = np.asarray(mean, dtype=float)
    U = np.asarray(U, dtype=float)
    window, rank = mean.shape
    if U.shape[0] != window:
        raise ValueError(f"window matrix has {U.shape[0]} rows, mean expects {window}")
    _check_pairs(U, uu)
    out = block_quadratics(cov, rank, window) @ uu
    proj = mean.T @ U
    for r, rows in _bands(rank):
        out[rows] += proj[r] * proj[r:]
    return out


def expected_gram(U, weights, uu):
    """Posterior expectation of the design-matrix Gram, E[G G'].

    `weights` is the packed (R(R+1)/2, N) elementwise product of the other
    modes' second moments (all ones when there is no other mode) and `uu`
    is the packed window square window_pairs(U); the result is
    sum_n W_n kron u_n u_n', an (R*I, R*I) matrix, where W_n is the
    symmetric R x R matrix that column n of `weights` packs. Each entry
    of an I x I block is computed once, for r <= s and i <= j, and placed
    at (i, j) and (j, i) of the block, which goes to both (r, s) and
    (s, r): the block is its own transpose, so the Gram is exactly
    symmetric. The blocks are written band by band: one gather through the
    symmetric I x I index of the window pairs gives band r's (R - r, I, I)
    blocks, which are copied to the block row r and the block column r of
    the output. The result is the only (R*I)^2 array made.
    """
    U = np.asarray(U, dtype=float)
    weights = np.asarray(weights, dtype=float)
    window, n_samples = U.shape
    rank = _packed_rank(weights.shape[0]) if weights.ndim == 2 else None
    if rank is None or weights.shape[1] != n_samples:
        raise ValueError(f"weights shape {weights.shape} is not a packed stack "
                         f"for U {U.shape}")
    _check_pairs(U, uu)
    flat = weights @ uu.T
    # symmetric[i, j] is the row of window_pairs holding the pair (i, j)
    symmetric = _pair_layout(window).symmetric
    gram = np.empty((rank, window, rank, window))
    for r, rows in _bands(rank):
        band = flat[rows][:, symmetric]
        gram[r, :, r:, :] = band.transpose(1, 0, 2)
        gram[r:, :, r, :] = band
    return gram.reshape(rank * window, rank * window)


def expected_output(U, means):
    """Plug-in model output for every column of U: sum_r prod_d (W_d' u_n)_r."""
    return column_products(U, means).sum(axis=0)


def expected_residual(U, y, means, product):
    """E||y - G'w||^2 under the factor posteriors.

    `means` are the factor means (for the cross term) and `product` the
    packed (R(R+1)/2, N) elementwise product of every mode's
    second_moments stack. The quadratic term is the sum of the full
    symmetric R x R stack: twice the sum of the packed rows, less that of
    the diagonal rows, which doubling counts twice.
    """
    y = np.asarray(y, dtype=float)
    yhat = expected_output(U, means)
    if y.shape != yhat.shape:
        raise ValueError(f"y has shape {y.shape}, expected {yhat.shape}")
    layout = _pair_layout(np.shape(means[0])[1])
    pairs = layout.i.size
    product = np.asarray(product, dtype=float)
    if product.shape != (pairs, yhat.size):
        raise ValueError(f"product shape {product.shape} is not a packed stack "
                         f"of {pairs} rows and {yhat.size} samples")
    quadratic = 2.0 * float(np.sum(product)) - float(np.sum(product[layout.diagonal]))
    return float(y @ y - 2.0 * float(y @ yhat) + quadratic)
