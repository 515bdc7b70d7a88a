"""Student-t predictive distributions and evaluation metrics, as arrays.

predictive_arrays gives model-unit locations, squared scales and dof for a
window matrix; one window u_n is the column U[:, [n]]. Its parameter
variance comes from the same packed window square and covariance
coefficients as the fit's second moments, a block of windows at a time.
predict is the whole path from a raw input record to original output
units, and evaluate scores it with the array metrics rmse and nll.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .data import normalize_input
from .features import (
    block_quadratics,
    build_lagged_matrix,
    column_products,
    expected_output,
    moment_pairs,
    window_pairs,
)

# windows per packed window square in predictive_arrays
SCORE_BLOCK = 512


def predictive_arrays(state, U):
    """Locations, squared scales, and dof for every column of U (model units).

    The squared scale is b_N/a_N plus one quadratic form per factor,
    g_d' Sigma_d g_d, with g_d = h kron u_n the mode-d design column at
    the posterior means, h the other modes' column products. It is summed
    over the column pairs r <= s as (2 - delta_rs) h_r h_s q_rs, where
    q_rs = u_n' C_rs u_n comes from block_quadratics(Sigma_d) and
    window_pairs of SCORE_BLOCK windows at a time; dof is twice the noise
    shape.
    """
    U = np.asarray(U, dtype=float)
    means = state.factor_means
    locations = expected_output(U, means)
    scale_sq = np.full(U.shape[1], float(state.noise.rate / state.noise.shape))
    r, s = moment_pairs(state.rank)
    twice = np.where(r == s, 1.0, 2.0)[:, None]
    coefs = [twice * block_quadratics(f.cov, state.rank, state.window)
             for f in state.factors]
    for start in range(0, U.shape[1], SCORE_BLOCK):
        block = U[:, start:start + SCORE_BLOCK]
        uu = window_pairs(block)
        for d, c in enumerate(coefs):
            h = column_products(block, means, skip=d)
            scale_sq[start:start + block.shape[1]] += (
                (h[r] * h[s]) * (c @ uu)).sum(axis=0)
    return locations, scale_sq, 2.0 * float(state.noise.shape)


def predict(state, u, start=0):
    """Original-unit (locations, scales, dof) for the windows of u[start:].

    The raw input is normalized with the state's stored record and the
    windows are built from the whole record, so the windows after `start`
    see the true past; only those windows go through predictive_arrays.
    A non-finite input raises ValueError.
    """
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("input record must be finite")
    if not 0 <= start < u.size:
        raise ValueError(f"nothing to predict: start {start} of {u.size} samples")
    record = state.normalization
    U = build_lagged_matrix(normalize_input(u, record), state.memory)
    locations, scale_sq, dof = predictive_arrays(state, U[:, start:])
    return (record.output_mean + record.output_std * locations,
            record.output_std * np.sqrt(scale_sq), dof)


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
    """Mean negative log Student-t predictive density at the observed outputs."""
    y, locations = _paired(y, locations)
    return float(-np.mean(stats.t.logpdf(y, df=dof, loc=locations, scale=scales)))


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
