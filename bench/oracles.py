"""Reference computations for the benchmark's correctness checks.

Nothing here calls the package. Lag windows are built one sample at a
time, the CPD coefficients are expanded into the full I**D vector by
explicit Kronecker products, design columns are Kronecker products of
per-column scalars with the window, and the Student-t log density is
written out from its formula. Every `check_*` function returns a list of
failure messages; an empty list means the check passed.
"""

import math

import numpy as np

# the monotonicity slack of the package's own ELBO acceptance test
ELBO_RTOL = 1e-8


def lag_window(x, n, memory):
    """(1, x[n], x[n-1], ..., x[n-memory+1]), zero before the record starts."""
    window = np.zeros(memory + 1)
    window[0] = 1.0
    for lag in range(memory):
        if n - lag >= 0:
            window[1 + lag] = x[n - lag]
    return window


def kron_chain(vectors):
    """Kronecker product of vectors with the first one varying fastest."""
    acc = np.asarray(vectors[0], dtype=float)
    for vec in vectors[1:]:
        acc = np.kron(np.asarray(vec, dtype=float), acc)
    return acc


def full_coefficients(means):
    """All I**D kernel coefficients: the sum over columns of kron chains."""
    rank = means[0].shape[1]
    total = 0.0
    for r in range(rank):
        total = total + kron_chain([m[:, r] for m in means])
    return total


def predictive_point(means, covs, noise_shape, noise_rate, window, coefficients):
    """Student-t location and scale (model units) for one lag window.

    The location is the full coefficient vector against the window's
    degree-D monomials. The squared scale is E[1/tau] plus, per factor d,
    g' Sigma_d g with g[r*I + i] = window[i] * prod_{k != d} (W_k[:, r] . window).
    """
    order = len(means)
    rank = means[0].shape[1]
    location = float(coefficients @ kron_chain([window] * order))
    scale_sq = noise_rate / noise_shape
    for d in range(order):
        h = np.ones(rank)
        for r in range(rank):
            for k in range(order):
                if k != d:
                    h[r] *= float(means[k][:, r] @ window)
        g = np.kron(h, window)
        scale_sq += float(g @ covs[d] @ g)
    return location, math.sqrt(scale_sq)


def student_t_logpdf(x, loc, scale, dof):
    """Log density of a location-scale Student-t distribution."""
    z = (x - loc) / scale
    return (math.lgamma(0.5 * (dof + 1.0)) - math.lgamma(0.5 * dof)
            - 0.5 * math.log(dof * math.pi) - math.log(scale)
            - 0.5 * (dof + 1.0) * math.log1p(z * z / dof))


def rmse(y, loc):
    return math.sqrt(math.fsum((float(a) - float(b)) ** 2 for a, b in zip(y, loc)) / len(y))


def mean_nll(y, loc, scale, dof):
    total = math.fsum(student_t_logpdf(float(a), float(b), float(c), dof)
                      for a, b, c in zip(y, loc, scale))
    return -total / len(y)


def _close(label, got, want, rtol, atol=0.0):
    if not math.isfinite(got) or abs(got - want) > atol + rtol * abs(want):
        return [f"{label}: got {got!r}, reference {want!r}"]
    return []


def check_elbo_trace(elbo, ranks):
    """The bound is finite and does not fall between sweeps at equal rank."""
    failures = [f"sweep {t + 1}: bound {v!r} is not finite"
                for t, v in enumerate(elbo) if not math.isfinite(v)]
    for t in range(1, len(elbo)):
        if ranks[t] == ranks[t - 1] and elbo[t] < elbo[t - 1] - ELBO_RTOL * (
                1.0 + abs(elbo[t - 1])):
            failures.append(f"sweep {t + 1}: bound fell from {elbo[t - 1]!r} to "
                            f"{elbo[t]!r} at rank {ranks[t]}")
    return failures


def check_gamma_shapes(noise_shape, col_shapes, priors, n_samples, order, window):
    """Shape parameters are the prior plus the exact conjugate increments."""
    failures = []
    if noise_shape != priors["noise_shape"] + n_samples / 2:
        failures.append(f"noise shape {noise_shape!r} != a0 + N/2 with N={n_samples}")
    want = priors["col_shape"] + order * window / 2
    for r, value in enumerate(col_shapes):
        if value != want:
            failures.append(f"column {r} shape {value!r} != c0 + D*I/2 = {want!r}")
    return failures


def check_predictions(model, x, y, rows, loc, scale, dof, rtol=1e-9):
    """Package predictions at `rows` against the explicit-Kronecker reference.

    `model` holds plain arrays: means, covs, noise_shape, noise_rate,
    memory and the normalization record (output_mean, output_std). `x` is
    the normalized input; `loc` and `scale` are the package's values in
    original units at `rows`. Also compares the RMSE and NLL of the rows
    computed from the reference values with those from the package values.
    """
    failures = []
    if dof != 2.0 * model["noise_shape"]:
        failures.append(f"dof {dof!r} != 2 * noise shape {model['noise_shape']!r}")
    coefficients = full_coefficients(model["means"])
    mean, std = model["output_mean"], model["output_std"]
    ref_loc, ref_scale = [], []
    for n in rows:
        window = lag_window(x, n, model["memory"])
        location, s = predictive_point(model["means"], model["covs"], model["noise_shape"],
                                       model["noise_rate"], window, coefficients)
        ref_loc.append(mean + std * location)
        ref_scale.append(std * s)
    # cancellation between columns leaves an absolute error near the output scale
    atol = 1e-9 * std
    for n, got, want in zip(rows, loc, ref_loc):
        failures += _close(f"location at row {n}", float(got), want, rtol, atol)
    for n, got, want in zip(rows, scale, ref_scale):
        failures += _close(f"scale at row {n}", float(got), want, rtol, atol)
    y_rows = [y[n] for n in rows]
    failures += _close("subset rmse", rmse(y_rows, loc), rmse(y_rows, ref_loc), 1e-7, atol)
    failures += _close("subset nll", mean_nll(y_rows, loc, scale, dof),
                       mean_nll(y_rows, ref_loc, ref_scale, dof), 1e-7, 1e-9)
    return failures


def check_metrics(y, loc, scale, dof, reported_rmse, reported_nll, rtol=1e-9):
    """Reported RMSE and NLL against recomputation from the per-row values."""
    return (_close("rmse", reported_rmse, rmse(y, loc), rtol)
            + _close("nll", reported_nll, mean_nll(y, loc, scale, dof), rtol, 1e-12))


def check_at_most(label, value, bound):
    if not value <= bound:
        return [f"{label} {value!r} exceeds {bound!r}"]
    return []


def check_close_series(label, got, want, rtol):
    """Two equally long series agree elementwise within rtol."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} values against {len(want)}"]
    failures = []
    for t, (a, b) in enumerate(zip(got, want)):
        failures += _close(f"{label}[{t}]", float(a), float(b), rtol)
    return failures
