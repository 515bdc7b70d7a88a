"""Coordinate-ascent variational updates and the identification loop.

All updates are exact conjugate steps, so the evidence lower bound is
non-decreasing across sweeps at fixed rank; the tests lean on that
property heavily. The steps take the sweep's statistics as arguments: a
factor update the cross weights of its mode, the elementwise product of
the other modes' packed (R(R+1)/2, N) second-moment stacks, and the noise
update and the bound only N and the expected residual E||y - G'w||^2.
identify builds the packed window square window_pairs(U) once per fit,
which both moment kernels contract against, forms every product of
stacks with one left fold, stack_product, and the residual once per
sweep. Rank truncation runs once per sweep after the bound is recorded,
so every trace entry describes a state of fixed rank; it returns the kept
columns, to whose pairs the stacks are sliced. Only a truncation in the
last sweep calls for one more residual and noise update.
A factor update factors its exactly symmetric precision once: two
triangular solves give the mean, and LAPACK dpotri the covariance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri
from scipy.special import digamma, gammaln

from .errors import NumericFailure
from .features import (
    column_products,
    expected_gram,
    expected_residual,
    kept_pairs,
    moment_pairs,
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
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 < self.elbo_rel_tol < np.inf:
            raise ValueError("elbo_rel_tol must be positive and finite")
        if not 0 < self.truncation_threshold < np.inf:
            raise ValueError("truncation_threshold must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class FitTrace:
    """Per-sweep history: bound, rank, E[noise precision], elapsed wall time."""

    iterations: list = field(default_factory=list)
    elbo: list = field(default_factory=list)
    rank: list = field(default_factory=list)
    noise_mean: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)

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
    """Solve with a symmetric PD matrix via one Cholesky factor.

    Returns (inverse, solution, logdet): the inverse from LAPACK dpotri,
    exactly symmetric; matrix^-1 rhs from two triangular solves; and
    log det(matrix). One jitter retry (1e-10 times the mean diagonal
    magnitude) before giving up with a NumericFailure. The matrix is not
    scanned for non-finite entries (an O(size^2) pass); a factor with a
    non-finite diagonal raises NumericFailure instead.
    """
    size = matrix.shape[0]
    try:
        factor = cho_factor(matrix, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * float(np.trace(matrix)) / size
        shifted = matrix.copy()
        shifted[np.diag_indices(size)] += jitter
        try:
            factor = cho_factor(shifted, lower=True, check_finite=False)
        except np.linalg.LinAlgError as err:
            raise NumericFailure(
                f"{label}: Cholesky failed twice (jitter {jitter:.3e})"
            ) from err
    # a NaN in the matrix can reach the factor without a LinAlgError; every
    # entry of the factor feeds its diagonal
    diagonal = np.diag(factor[0])
    if not np.isfinite(diagonal).all():
        raise NumericFailure(f"{label}: Cholesky factor is not finite")
    logdet = 2.0 * float(np.log(diagonal).sum())
    solution = cho_solve(factor, rhs, check_finite=False)
    inverse, info = dpotri(factor[0], lower=1, overwrite_c=1)
    if info != 0:
        raise NumericFailure(f"{label}: dpotri failed on the Cholesky factor "
                             f"(info {info})")
    _mirror_lower(inverse)
    # exactly symmetric, so the transpose is the same matrix; it turns
    # dpotri's Fortran-order array into a C-order view without a copy
    return inverse.T, solution, logdet


def _mirror_lower(matrix):
    """Copy the strict lower triangle onto the upper one, in place, in bands
    of 256 rows, so no index array grows with the square of the size."""
    size = matrix.shape[0]
    for start in range(0, size, 256):
        stop = min(start + 256, size)
        diagonal = matrix[start:stop, start:stop]
        upper = np.triu_indices(stop - start, 1)
        diagonal[upper] = diagonal.T[upper]
        matrix[start:stop, stop:] = matrix[stop:, start:stop].T


def _logdet_psd(matrix, label):
    sign, logdet = np.linalg.slogdet(matrix)
    if sign <= 0 or not np.isfinite(logdet):
        raise NumericFailure(f"{label}: covariance is not positive definite")
    return float(logdet)


def stack_product(stacks, rank, n_samples):
    """Elementwise product of packed (R(R+1)/2, N) second-moment stacks,
    folded left to right; all ones of that shape when `stacks` is empty
    (a one-factor model). The product of packed stacks is the packed
    product, because the R x R stacks multiply entry by entry."""
    if not stacks:
        return np.ones((moment_pairs(rank)[0].size, n_samples))
    product = stacks[0]
    for stack in stacks[1:]:
        product = product * stack
    return product


def update_factor(state, U, y, mode, weights, uu):
    """Exact Gaussian update of one factor given all other posteriors.

    `weights` are the cross weights of `mode`, the stack_product of the
    other modes' second_moments stacks, and `uu` is the packed window
    square window_pairs(U). The expected Gram is exactly symmetric, so the
    precision is too. The new posterior is assigned into the state and
    returned.
    """
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    window = U.shape[0]
    rank = state.rank
    tau = float(state.noise.mean)
    # scaled in place, so no second (R*I)^2 array is made
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
    prior + resid/2 (a negative round-off residual counts as zero)."""
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
    mean = a / b
    mean_log = digamma(a) - np.log(b)
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
    if state.row_prec_fixed:
        row = np.ones(window)
        row_log = np.zeros(window)
    else:
        row = np.asarray(state.row_prec.mean, dtype=float)
        row_log = np.asarray(state.row_prec.expected_log, dtype=float)
    tau = float(state.noise.mean)
    tau_log = float(digamma(state.noise.shape) - np.log(state.noise.rate))
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
    and covariance blocks are removed with the columns. Returns `keep`, the
    sorted kept column indices, or None when the rank did not change; a
    packed moment stack m of an old factor is m[kept_pairs(keep, R)] for
    the new, R being the old rank.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
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
    state.factors = [
        FactorPosterior(mean=f.mean[:, keep], cov=f.cov[np.ix_(idx, idx)])
        for f in state.factors
    ]
    state.col_prec = GammaPosterior(
        np.asarray(state.col_prec.shape, dtype=float)[keep].copy(),
        np.asarray(state.col_prec.rate, dtype=float)[keep].copy(),
    )
    return keep


def identify(U, y, config, priors=None, normalization=None):
    """Run the full coordinate-ascent identification loop.

    U is the I x N lagged window matrix and y the length-N output in model
    units. Each sweep updates every factor, then the lag precisions
    (unless disabled), the column precisions, and the noise precision and
    the bound from one expected residual, records the bound, and finally
    truncates the rank, slicing the moment stacks. The residual's product
    of all D stacks is the last mode's cross weights times its new stack.
    The loop stops when the relative bound change at fixed rank drops
    below elbo_rel_tol or max_iter is reached. Only when the last sweep
    truncated is the noise posterior refreshed on the kept columns;
    otherwise the last sweep's noise update already saw the final factors.

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
    state = init_state(
        config.order,
        U.shape[0] - 1,
        config.rank,
        priors=priors,
        seed=config.seed,
        normalization=normalization,
        row_prec_fixed=not config.lag_sparsity,
    )
    uu = window_pairs(U)
    # the first update overwrites factor 0's stack before anything reads it
    moments = [None] + [second_moments(U, f.mean, f.cov, uu)
                        for f in state.factors[1:]]
    last = state.order - 1
    trace = FitTrace()
    previous = None
    started = time.perf_counter()
    for sweep in range(1, config.max_iter + 1):
        try:
            for d in range(state.order):
                weights = stack_product(moments[:d] + moments[d + 1:],
                                        state.rank, y.size)
                posterior = update_factor(state, U, y, d, weights, uu)
                # drop the spent stack, and the cross weights unless the
                # residual needs them, before the new stack is built
                moments[d] = None
                if d < last:
                    del weights
                moments[d] = second_moments(U, posterior.mean, posterior.cov, uu)
            # the last mode's cross weights times its new stack: all D modes
            resid = expected_residual(U, y, state.factor_means,
                                      weights * moments[last])
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
            # rank changed: slice the stacks and restart the convergence window
            rows = kept_pairs(keep, rank)
            moments = [m[rows] for m in moments]
            previous = None
            continue
        if previous is not None and abs(bound - previous) < (
            config.elbo_rel_tol * (1.0 + abs(previous))
        ):
            break
        previous = bound
    if keep is not None:
        # the last sweep dropped columns after its noise update
        resid = expected_residual(U, y, state.factor_means,
                                  stack_product(moments, state.rank, y.size))
        update_noise_precision(state, y.size, resid)
    return state, trace
