"""Student-t predictive distribution and evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

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
        """dof/(dof-2) * scale^2; NaN when the dof do not support a variance."""
        if self.dof <= 2:
            return float("nan")
        return self.dof / (self.dof - 2.0) * self.scale**2


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


def predict_series(state, U):
    """Per-column predictions for a window matrix, model units."""
    locations, scale_sq, dof = predictive_arrays(state, U)
    scales = np.sqrt(scale_sq)
    return [
        StudentTPrediction(float(locations[n]), float(scales[n]), dof)
        for n in range(locations.size)
    ]


def denormalize_prediction(prediction, record):
    """Map a model-unit prediction back to original output units."""
    return StudentTPrediction(
        record.output_mean + record.output_std * prediction.location,
        record.output_std * prediction.scale,
        prediction.dof,
    )


def rmse(predictions, y):
    """Root mean squared error of the predictive locations."""
    y = np.asarray(y, dtype=float)
    locations = np.array([p.location for p in predictions])
    if locations.shape != y.shape:
        raise ValueError("predictions and targets have different lengths")
    return float(np.sqrt(np.mean((locations - y) ** 2)))


def nll(predictions, y):
    """Mean negative log predictive density at the observed outputs."""
    y = np.asarray(y, dtype=float)
    locations = np.array([p.location for p in predictions])
    if locations.shape != y.shape:
        raise ValueError("predictions and targets have different lengths")
    scales = np.array([p.scale for p in predictions])
    dofs = np.array([p.dof for p in predictions])
    return float(-np.mean(stats.t.logpdf(y, df=dofs, loc=locations, scale=scales)))


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

    Windows are built from the whole input (normalized with the state's
    stored record), so evaluation points after `start` see the true past;
    only the windows of y[start + skip:] are scored. `skip` exists to drop
    zero-padded warm-up windows when the record has no usable history.
    """
    from .data import normalize_input

    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.shape != y.shape or u.ndim != 1:
        raise ValueError("u and y must be one-dimensional and equally long")
    first = start + skip
    if not 0 <= first < y.size:
        raise ValueError(f"nothing to evaluate: start {start} + skip {skip} of {y.size}")
    record = state.normalization
    U = build_lagged_matrix(normalize_input(u, record), state.memory)
    locations, scale_sq, dof = predictive_arrays(state, U[:, first:])
    locations = record.output_mean + record.output_std * locations
    scales = record.output_std * np.sqrt(scale_sq)
    if dof > 2:
        variances = dof / (dof - 2.0) * scales**2
    else:
        variances = np.full_like(scales, float("nan"))
    y = y[first:]
    value_rmse = float(np.sqrt(np.mean((locations - y) ** 2)))
    value_nll = float(-np.mean(stats.t.logpdf(y, df=dof, loc=locations, scale=scales)))
    return EvalReport(
        rmse=value_rmse,
        nll=value_nll,
        locations=locations,
        variances=variances,
        scales=scales,
        dof=dof,
    )
