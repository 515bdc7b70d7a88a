"""Student-t predictive distributions and evaluation metrics, as arrays.

predictive_arrays gives model-unit locations, squared scales and dof for a
window matrix; one window u_n is the column U[:, [n]]. predict is the
whole path from a raw input record to original output units: it keeps the
normalized record, an N-vector, and turns it into windows one lag_blocks
block at a time, so no I x N window matrix is built. Both are one
features.fill_blocks walk with the scoring contraction. Per block it
projects the windows on every factor mean once, folds those projections
into the locations and the other modes' cofactors h_d, and takes the
parameter variance from two packed squares, window_pairs of the block's
windows and of each h_d, and the covariance coefficients of the fit's
second moments, which are built once per call and scaled in place. All
three are packed in the one pair layout of the features module. Beyond
the model and a few N-vectors, the only large arrays are one
(R(R+1)/2, I(I+1)/2) coefficient array per factor and one block's
windows and window square. evaluate scores predict with the array
metrics rmse and nll, the Student-t log density in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import poch

from .data import normalize_input
from .errors import checked
from .features import (
    block_quadratics,
    column_blocks,
    fill_blocks,
    hadamard,
    lag_blocks,
    moment_pairs,
    window_pairs,
)


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
    r, s = moment_pairs(state.rank)
    twice = np.where(r == s, 1.0, 2.0)[:, None]
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
    blocks = lag_blocks(normalize_input(u, record), state.memory, start)
    locations, scales = fill_blocks(blocks, (2,), u.size - start, _scorer(state))
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
