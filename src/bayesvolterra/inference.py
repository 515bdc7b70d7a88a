"""Coordinate-ascent variational updates and the identification loop.

All updates are exact conjugate steps, so the evidence lower bound is
non-decreasing across sweeps at fixed rank; the tests lean on that
property heavily. The steps take the sweep's statistics as arguments: a
factor update the cross weights of its mode, the elementwise product of
the other modes' packed (R(R+1)/2, N) second-moment stacks, and the noise
update and the bound only N and the expected residual E||y - G'w||^2.
identify builds the packed window square window_pairs(U) once per fit,
which both moment kernels contract against, forms every product of
stacks with the left fold features.hadamard, and the residual once per
sweep. Rank truncation runs once per sweep after the bound is recorded,
so every trace entry describes a state of fixed rank; it returns the kept
columns, to whose pairs the stacks are sliced. Only a truncation in the
last sweep calls for one more residual and noise update.

A factor update allocates one (R*I)^2 array, its precision, and factors
that exactly symmetric matrix once, in place: two triangular solves give
the mean, and LAPACK dpotri overwrites the factor with the covariance.
identify drops a mode's old covariance and stack before its update, so a
fit holds D - 1 of each, the cross weights and that one buffer; it
slices the stacks one at a time at a truncation and forms the residual's
product in place on the last cross weights. Both numerical fallbacks,
the Cholesky jitter retry and the clamp of a negative expected residual,
warn with a RuntimeWarning.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri
from scipy.special import digamma, gammaln

from .errors import NumericFailure, checked
from .features import (
    _pair_layout,
    column_products,
    expected_gram,
    expected_residual,
    hadamard,
    kept_pairs,
    second_moments,
    window_pairs,
)
from .model import FactorPosterior, GammaPosterior, init_state, prior_precision

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class FitConfig:
    """Loop controls for identify.

    Every sweep refreshes the noise precision with the other coordinates,
    so the bound is monotone at fixed rank. A fit repeats bit for bit at a
    fixed seed and BLAS thread count; other thread counts may change the
    last digits, because the reductions run through BLAS.
    """

    order: int
    rank: int = 20
    max_iter: int = 200
    elbo_rel_tol: float = 1e-6
    truncation_threshold: float = 1e-3
    lag_sparsity: bool = True
    seed: int = 0

    def __post_init__(self):
        # integral floats are refused too: a saved model stores these
        # fields as JSON integers
        for name, minimum in (("order", 1), ("rank", 1), ("max_iter", 1), ("seed", 0)):
            setattr(self, name, checked(name, getattr(self, name), int, minimum))
        for name in ("elbo_rel_tol", "truncation_threshold"):
            setattr(self, name, checked(name, getattr(self, name), minimum=0, strict=True))
        # a string such as "off" would be truthy, and True would read as 1.0
        if not isinstance(self.lag_sparsity, (bool, np.bool_)):
            raise ValueError(f"lag_sparsity must be a boolean, got {self.lag_sparsity!r}")
        self.lag_sparsity = bool(self.lag_sparsity)


@dataclass
class FitTrace:
    """Per-sweep history: bound, rank, E[noise precision], elapsed wall time;
    and why the loop stopped: "tolerance" when the bound's change at fixed
    rank fell below elbo_rel_tol, "max_iter" when the sweeps ran out."""

    iterations: list = field(default_factory=list)
    elbo: list = field(default_factory=list)
    rank: list = field(default_factory=list)
    noise_mean: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)
    stop_reason: str = ""

    def append(self, iteration, elbo, rank, noise_mean, wall_s):
        self.iterations.append(int(iteration))
        self.elbo.append(float(elbo))
        self.rank.append(int(rank))
        self.noise_mean.append(float(noise_mean))
        self.wall_s.append(float(wall_s))

    def __len__(self):
        return len(self.iterations)

    @property
    def final_elbo(self):
        return self.elbo[-1]


def _solve_spd(matrix, rhs, label):
    """Solve with a symmetric PD matrix via one Cholesky factor, in place.

    Returns (inverse, solution, logdet): the inverse from LAPACK dpotri,
    exactly symmetric; matrix^-1 rhs from two triangular solves; and
    log det(matrix). `matrix` must be a C-order float array that is
    exactly symmetric, and it is consumed: its transpose, the same matrix
    in Fortran order, is factored in place, dpotri overwrites the factor,
    and the returned inverse is that memory. If the factor fails, the
    matrix is restored from the triangle potrf left untouched and a saved
    diagonal, and factored once more with a jitter of 1e-10 times the mean
    diagonal magnitude added, which warns with a RuntimeWarning; a second
    failure raises NumericFailure. The matrix is not scanned for
    non-finite entries (an O(size^2) pass); a factor with a non-finite
    diagonal raises NumericFailure instead.
    """
    size = matrix.shape[0]
    diagonal = np.diag(matrix).copy()
    try:
        factor = cho_factor(matrix.T, lower=True, overwrite_a=True,
                            check_finite=False)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * float(diagonal.sum()) / size
        # potrf wrote the lower triangle of the transpose, which is the
        # upper one of `matrix`; its strict lower triangle is intact
        _mirror_lower(matrix)
        matrix[np.diag_indices(size)] = diagonal + jitter
        try:
            factor = cho_factor(matrix.T, lower=True, overwrite_a=True,
                                check_finite=False)
        except np.linalg.LinAlgError as err:
            raise NumericFailure(
                f"{label}: Cholesky failed twice (jitter {jitter:.3e})"
            ) from err
        warnings.warn(f"{label}: Cholesky succeeded only with jitter "
                      f"{jitter:.3e} added to the diagonal", RuntimeWarning,
                      stacklevel=2)
    # a NaN in the matrix can reach the factor without a LinAlgError; every
    # entry of the factor feeds its diagonal
    pivots = np.diag(factor[0])
    if not np.isfinite(pivots).all():
        raise NumericFailure(f"{label}: Cholesky factor is not finite")
    logdet = 2.0 * float(np.log(pivots).sum())
    solution = cho_solve(factor, rhs, check_finite=False)
    inverse, info = dpotri(factor[0], lower=1, overwrite_c=1)
    if info != 0:
        raise NumericFailure(f"{label}: dpotri failed on the Cholesky factor "
                             f"(info {info})")
    _mirror_lower(inverse)
    # exactly symmetric, so the transpose is the same matrix; it turns
    # dpotri's Fortran-order array back into the C-order buffer
    return inverse.T, solution, logdet


def _mirror_lower(matrix):
    """Copy the strict lower triangle onto the upper one, in place, in bands
    of 64 rows, so no index array grows with the square of the size. The
    diagonal blocks go through the cached upper-triangle pairs of their
    size (features._pair_layout), which also copy the diagonal onto
    itself."""
    size = matrix.shape[0]
    for start in range(0, size, 64):
        stop = min(start + 64, size)
        diagonal = matrix[start:stop, start:stop]
        layout = _pair_layout(stop - start)
        upper = layout.i, layout.j
        diagonal[upper] = diagonal.T[upper]
        matrix[start:stop, stop:] = matrix[stop:, start:stop].T


def _logdet_psd(matrix, label):
    sign, logdet = np.linalg.slogdet(matrix)
    if sign <= 0 or not np.isfinite(logdet):
        raise NumericFailure(f"{label}: covariance is not positive definite")
    return float(logdet)


def update_factor(state, U, y, mode, weights, uu):
    """Exact Gaussian update of one factor given all other posteriors.

    `weights` are the cross weights of `mode`, the hadamard product of the
    other modes' second_moments stacks, and `uu` is the packed window
    square window_pairs(U). The expected Gram is exactly symmetric, so the
    precision is too. The precision is the only (R*I)^2 array the update
    allocates: it is scaled and shifted in place, _solve_spd factors it in
    place, and its memory becomes the new covariance. The update reads
    only the factor means of the state, not the old covariance of `mode`,
    which the caller may drop first. The new posterior is assigned into
    the state and returned.
    """
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    window = U.shape[0]
    rank = state.rank
    tau = float(state.noise.mean)
    # scaled in place and consumed by _solve_spd, so no second (R*I)^2
    # array is made
    precision = expected_gram(U, weights, uu)
    precision *= tau
    precision[np.diag_indices_from(precision)] += prior_precision(state)
    # right-hand side E[G] y, with the design matrix at the current means
    h = column_products(U, state.factor_means, skip=mode)
    rhs = ((h * y) @ U.T).ravel()
    cov, vec_mean, prec_logdet = _solve_spd(precision, tau * rhs, f"factor {mode}")
    if not np.isfinite(vec_mean).all():
        raise NumericFailure(f"factor {mode}: posterior mean is not finite")
    posterior = FactorPosterior(
        mean=vec_mean.reshape(rank, window).T,
        cov=cov,
        cov_logdet=-prec_logdet,
    )
    state.factors[mode] = posterior
    return posterior


def update_row_precisions(state):
    """Gamma update of the shared per-lag precisions.

    shape: prior + D*R/2; rate: prior + half the column-precision-weighted
    second moments of each row, summed over factors. Only the covariance
    diagonal enters because the column precision matrix is diagonal.
    """
    if state.row_prec_fixed:
        raise ValueError("row precisions are fixed for this state")
    col = np.asarray(state.col_prec.mean, dtype=float)
    acc = np.zeros(state.window)
    for f in state.factors:
        acc += f.entry_second_moments() @ col
    posterior = GammaPosterior(
        np.full(state.window, state.priors.row_shape + 0.5 * state.order * state.rank),
        state.priors.row_rate + 0.5 * acc,
    )
    state.row_prec = posterior
    return posterior


def update_col_precisions(state):
    """Gamma update of the per-column (rank) precisions.

    shape: prior + D*I/2; rate: prior + half the row-precision-weighted
    second moments of each column, summed over factors.
    """
    row = state.row_prec_means()
    acc = np.zeros(state.rank)
    for f in state.factors:
        acc += f.entry_second_moments().T @ row
    posterior = GammaPosterior(
        np.full(state.rank, state.priors.col_shape + 0.5 * state.order * state.window),
        state.priors.col_rate + 0.5 * acc,
    )
    state.col_prec = posterior
    return posterior


def update_noise_precision(state, n_samples, resid):
    """Gamma update of the noise precision from N and the expected residual
    `resid` at the current factor posteriors: shape prior + N/2, rate
    prior + resid/2. A negative residual, which only round-off can give,
    counts as zero and warns with a RuntimeWarning."""
    if resid < 0:
        warnings.warn(f"expected residual {resid:.3e} is negative; "
                      "clamped to zero in the noise update", RuntimeWarning,
                      stacklevel=2)
    posterior = GammaPosterior(
        float(state.priors.noise_shape + 0.5 * n_samples),
        float(state.priors.noise_rate + 0.5 * max(resid, 0.0)),
    )
    state.noise = posterior
    return posterior


def _gamma_prior_and_entropy(posterior, prior_shape, prior_rate):
    """E_q[ln p(x)] + H(q) summed over independent Gamma coordinates."""
    a = np.asarray(posterior.shape, dtype=float)
    b = np.asarray(posterior.rate, dtype=float)
    mean, mean_log = a / b, posterior.expected_log
    expected_prior = (
        prior_shape * np.log(prior_rate)
        - gammaln(prior_shape)
        + (prior_shape - 1.0) * mean_log
        - prior_rate * mean
    )
    entropy = a - np.log(b) + gammaln(a) + (1.0 - a) * digamma(a)
    return float(np.sum(expected_prior + entropy))


def compute_elbo(state, n_samples, resid):
    """Evidence lower bound of the current posterior, in closed form.

    The data enter only through the sample count N and `resid`, the
    expected residual E||y - G'w||^2 at the current factor posteriors, in
    the expected log-likelihood N/2 (E[ln tau] - ln 2 pi) - E[tau] resid/2.
    The rest is the expected factor and Gamma log-priors and the Gaussian
    and Gamma entropies. With row_prec_fixed the lag precisions are a
    constant 1 and contribute no Gamma terms.
    """
    window = state.window
    rank = state.rank
    col = np.asarray(state.col_prec.mean, dtype=float)
    col_log = np.asarray(state.col_prec.expected_log, dtype=float)
    row = state.row_prec_means()
    row_log = (np.zeros(window) if state.row_prec_fixed
               else np.asarray(state.row_prec.expected_log, dtype=float))
    tau = float(state.noise.mean)
    tau_log = float(state.noise.expected_log)
    priors = state.priors

    bound = 0.5 * n_samples * (tau_log - LOG_2PI) - 0.5 * tau * resid

    sum_col_log = float(col_log.sum())
    sum_row_log = float(row_log.sum())
    for d, f in enumerate(state.factors):
        sq = f.entry_second_moments()
        bound += 0.5 * (window * sum_col_log + rank * sum_row_log
                        - window * rank * LOG_2PI)
        bound -= 0.5 * float(row @ sq @ col)
        logdet = f.cov_logdet
        if logdet is None:
            logdet = _logdet_psd(f.cov, f"factor {d}")
        bound += 0.5 * logdet + 0.5 * window * rank * (1.0 + LOG_2PI)

    bound += _gamma_prior_and_entropy(state.col_prec, priors.col_shape, priors.col_rate)
    if not state.row_prec_fixed:
        bound += _gamma_prior_and_entropy(state.row_prec, priors.row_shape,
                                          priors.row_rate)
    bound += _gamma_prior_and_entropy(state.noise, priors.noise_shape,
                                      priors.noise_rate)
    if not np.isfinite(bound):
        raise NumericFailure("evidence bound is not finite")
    return float(bound)


def truncate_rank(state, threshold):
    """Drop CPD columns that are negligibly small in every factor mean.

    A column survives if its RMS, relative to the largest column RMS of
    the same factor, reaches the threshold in at least one factor. At
    least one column is always retained; matching column-precision entries
    and covariance blocks are removed with the columns, one factor at a
    time. Returns `keep`, the sorted kept column indices, or None when the
    rank did not change; a packed moment stack m of an old factor is
    m[kept_pairs(keep, R)] for the new, R being the old rank.
    """
    threshold = checked("threshold", threshold, minimum=0, strict=True)
    rank = state.rank
    score = np.zeros(rank)
    for f in state.factors:
        rms = np.sqrt((f.mean**2).mean(axis=0))
        top = float(rms.max())
        rel = rms / top if top > 0 else np.ones(rank)
        score = np.maximum(score, rel)
    keep = np.flatnonzero(score >= threshold)
    if keep.size == 0:
        keep = np.array([int(score.argmax())])
    if keep.size == rank:
        return None
    window = state.window
    idx = (keep[:, None] * window + np.arange(window)[None, :]).ravel()
    for d, f in enumerate(state.factors):
        state.factors[d] = FactorPosterior(mean=f.mean[:, keep],
                                           cov=f.cov[np.ix_(idx, idx)])
    state.col_prec = GammaPosterior(
        np.asarray(state.col_prec.shape, dtype=float)[keep].copy(),
        np.asarray(state.col_prec.rate, dtype=float)[keep].copy(),
    )
    return keep


def _start_state(start, config, window):
    """A fit's own copy of the state `start`, checked against the config and
    the window: the factor and Gamma posteriors the fit replaces are new
    objects, so `start` is left as it was; their arrays are shared, and the
    fit writes none of them."""
    if start.order != config.order:
        raise ValueError(f"start state has order {start.order}, the config "
                         f"{config.order}")
    if start.window != window:
        raise ValueError(f"start state has window {start.window}, U has {window} rows")
    if start.row_prec_fixed == config.lag_sparsity:
        raise ValueError(f"start state has row_prec_fixed={start.row_prec_fixed}, "
                         f"the config lag_sparsity={config.lag_sparsity}")
    for d, f in enumerate(start.factors):
        if f.cov is None:
            raise ValueError(f"start state factor {d} has no covariance")
    return replace(start, factors=[replace(f) for f in start.factors])


def identify(U, y, config, priors=None, normalization=None, start=None):
    """Run the full coordinate-ascent identification loop.

    U is the I x N lagged window matrix and y the length-N output in model
    units. The fit begins from init_state at the config's order, rank and
    seed, or, when `start` is a ModelState, from that state: it must have
    the config's order, U's window, covariances and row_prec_fixed equal to
    not lag_sparsity, and it brings its own rank, priors and normalization,
    so `priors` and `normalization` must then be None. `start` itself is
    not changed. Each sweep updates every factor, then the lag precisions
    (unless disabled), the column precisions, and the noise precision and
    the bound from one expected residual, records the bound, and finally
    truncates the rank, slicing the moment stacks one at a time. A mode's
    old covariance and stack are dropped before its update, which reads
    neither. The residual's product of all D stacks is the last mode's
    cross weights times its new stack, formed in place. The loop stops
    when the relative bound change at fixed rank drops below elbo_rel_tol
    or max_iter is reached, and the trace records which. Only when the
    last sweep truncated is the noise posterior refreshed on the kept
    columns; otherwise the last sweep's noise update already saw the final
    factors.

    Returns (ModelState, FitTrace). Numeric failures carry the sweep index.
    """
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    if U.ndim != 2:
        raise ValueError("U must be a matrix")
    if y.ndim != 1 or y.size != U.shape[1]:
        raise ValueError(f"y has shape {y.shape}, expected ({U.shape[1]},)")
    if not np.isfinite(U).all() or not np.isfinite(y).all():
        raise ValueError("inputs must be finite")
    if start is None:
        state = init_state(
            config.order,
            U.shape[0] - 1,
            config.rank,
            priors=priors,
            seed=config.seed,
            normalization=normalization,
            row_prec_fixed=not config.lag_sparsity,
        )
    elif priors is not None or normalization is not None:
        raise ValueError("a start state brings its own priors and normalization")
    else:
        state = _start_state(start, config, U.shape[0])
    uu = window_pairs(U)
    # the first update overwrites factor 0's stack before anything reads it
    moments = [None] + [second_moments(U, f.mean, f.cov, uu)
                        for f in state.factors[1:]]
    last = state.order - 1
    trace = FitTrace()
    previous = None
    started = time.perf_counter()
    for sweep in range(1, config.max_iter + 1):
        packed = (state.rank * (state.rank + 1) // 2, y.size)
        try:
            for d in range(state.order):
                weights = hadamard(moments[:d] + moments[d + 1:], packed)
                # drop what the update does not read: mode d's stack and
                # covariance
                moments[d] = None
                state.factors[d].cov = None
                posterior = update_factor(state, U, y, d, weights, uu)
                # the residual needs the last mode's cross weights
                if d < last:
                    del weights
                moments[d] = second_moments(U, posterior.mean, posterior.cov, uu)
            # the last mode's cross weights times its new stack: all D modes
            weights *= moments[last]
            resid = expected_residual(U, y, state.factor_means, weights)
            del weights
            if config.lag_sparsity:
                update_row_precisions(state)
            update_col_precisions(state)
            update_noise_precision(state, y.size, resid)
            bound = compute_elbo(state, y.size, resid)
        except NumericFailure as err:
            err.iteration = sweep
            raise
        trace.append(sweep, bound, state.rank, float(state.noise.mean),
                     time.perf_counter() - started)
        rank = state.rank
        keep = truncate_rank(state, config.truncation_threshold)
        if keep is not None:
            # rank changed: slice the stacks, one at a time, and restart
            # the convergence window
            rows = kept_pairs(keep, rank)
            for k in range(len(moments)):
                moments[k] = moments[k][rows]
            previous = None
            continue
        if previous is not None and abs(bound - previous) < (
            config.elbo_rel_tol * (1.0 + abs(previous))
        ):
            trace.stop_reason = "tolerance"
            break
        previous = bound
    else:
        trace.stop_reason = "max_iter"
    if keep is not None:
        # the last sweep dropped columns after its noise update
        resid = expected_residual(U, y, state.factor_means,
                                  hadamard(moments, moments[0].shape))
        update_noise_precision(state, y.size, resid)
    return state, trace
