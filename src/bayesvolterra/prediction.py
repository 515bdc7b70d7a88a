"""Student-t predictive distributions and evaluation metrics, as arrays.

predictive_arrays gives model-unit locations, squared scales and dof for a
window matrix. predict is the whole path from a raw input record to
original output units, and evaluate scores it with the array metrics rmse
and nll. predict_one and StudentTPrediction cover a single lag window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .data import normalize_input
from .features import build_lagged_matrix, design_matrix, expected_output


@dataclass
class StudentTPrediction:
    """One predictive distribution: location, scale (> 0), degrees of freedom."""

    location: float
    scale: float
    dof: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if not self.dof > 0:
            raise ValueError("dof must be positive")

    @property
    def variance(self):
        """Predictive variance; NaN when dof <= 2."""
        return float(_variance(self.scale, self.dof))


def _variance(scales, dof):
    """dof/(dof-2) * scale^2; NaN when the dof do not support a variance."""
    if dof <= 2:
        return np.full_like(scales, float("nan"))
    return dof / (dof - 2.0) * np.square(scales)


def predictive_arrays(state, U):
    """Locations, squared scales, and dof for every column of U (model units).

    The squared scale is b_N/a_N plus one quadratic form per factor,
    g_d' Sigma_d g_d, with g_d the mode-d design column at the posterior
    means; dof is twice the noise shape.
    """
    U = np.asarray(U, dtype=float)
    means = state.factor_means
    locations = expected_output(U, means)
    scale_sq = np.full(U.shape[1], float(state.noise.rate / state.noise.shape))
    for d, f in enumerate(state.factors):
        g = design_matrix(U, means, d)
        scale_sq += ((f.cov @ g) * g).sum(axis=0)
    return locations, scale_sq, 2.0 * float(state.noise.shape)


def predict_one(state, window):
    """Predict from a single lag window (length I, leading 1), model units."""
    window = np.asarray(window, dtype=float)
    if window.shape != (state.window,):
        raise ValueError(f"window has shape {window.shape}, expected ({state.window},)")
    locations, scale_sq, dof = predictive_arrays(state, window.reshape(-1, 1))
    return StudentTPrediction(float(locations[0]), float(np.sqrt(scale_sq[0])), dof)


def predict(state, u, start=0):
    """Original-unit (locations, scales, dof) for the windows of u[start:].

    The raw input is normalized with the state's stored record and the
    windows are built from the whole record, so the windows after `start`
    see the true past; only those windows go through predictive_arrays.
    """
    u = np.asarray(u, dtype=float)
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


def evaluate(state, u, y, start=0, skip=0):
    """Score the model on a raw record, reporting original-unit metrics.

    The windows of y[start + skip:] are scored by predict, so they see the
    true past of the input. `skip` exists to drop zero-padded warm-up
    windows when the record has no usable history.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.shape != y.shape or u.ndim != 1:
        raise ValueError("u and y must be one-dimensional and equally long")
    if not (np.isfinite(u).all() and np.isfinite(y).all()):
        raise ValueError("u and y must be finite")
    locations, scales, dof = predict(state, u, start + skip)
    y = y[start + skip:]
    return EvalReport(
        rmse=rmse(y, locations),
        nll=nll(y, locations, scales, dof),
        locations=locations,
        variances=_variance(scales, dof),
        scales=scales,
        dof=dof,
    )
