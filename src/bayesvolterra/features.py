"""Lag windows, design matrices, and their posterior expectations.

The second-moment and expected-Gram routines are where the inference
loop spends its time; both accept a precomputed khatri_rao(U, U) so it is
built once per fit. Each reduction over samples has one implementation, a
dense product or sum; a fit repeats bit for bit at a fixed seed and BLAS
thread count.
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import check_factors, khatri_rao


def build_lagged_matrix(signal, memory):
    """Stack lagged copies of the input into the I x N window matrix.

    Column n holds (1, u(n), u(n-1), ..., u(n-M+1)): row 0 is the constant
    term, row 1+j carries lag j, and samples before the start of the record
    are zero.
    """
    u = np.asarray(signal, dtype=float)
    if u.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if u.size == 0:
        raise ValueError("signal is empty")
    if memory < 1:
        raise ValueError("memory must be at least 1")
    n = u.size
    out = np.zeros((memory + 1, n))
    out[0] = 1.0
    for lag in range(min(memory, n)):
        out[1 + lag, lag:] = u[: n - lag]
    return out


def design_matrix(U, means, mode):
    """Design matrix for one factor: column n = (had_{k != mode} W_k' u_n) kron u_n.

    The Hadamard part varies slowest, matching the vec layout of the
    factor it multiplies. For a single-factor model the product over the
    other modes is empty and the result is U repeated over the rank.
    """
    order, window, rank = check_factors(means)
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != window:
        raise ValueError(f"window matrix has {U.shape[0]} rows, factors expect {window}")
    if not 0 <= mode < order:
        raise ValueError(f"mode {mode} out of range for {order} factors")
    h = np.ones((rank, U.shape[1]))
    for k, fac in enumerate(means):
        if k == mode:
            continue
        h *= np.asarray(fac, dtype=float).T @ U
    return khatri_rao(h, U)


def second_moments(U, mean, cov, uu=None):
    """Projected second moments E[(W'u_n)(W'u_n)'] for one factor posterior.

    Returns an (R, R, N) stack whose slice [:, :, n] has (r, s) entry
    (m_r'u_n)(m_s'u_n) + u_n' C_{rs} u_n, where C_{rs} is the I x I block
    of the covariance coupling columns r and s (column index slow).
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    U = np.asarray(U, dtype=float)
    window, rank = mean.shape
    if U.shape[0] != window:
        raise ValueError(f"window matrix has {U.shape[0]} rows, mean expects {window}")
    if cov.shape != (window * rank, window * rank):
        raise ValueError(f"covariance shape {cov.shape} does not match mean {mean.shape}")
    proj = mean.T @ U
    out = proj[:, None, :] * proj[None, :, :]
    if uu is None:
        uu = khatri_rao(U, U)
    blocks = cov.reshape(rank, window, rank, window)
    flat = blocks.transpose(0, 2, 1, 3).reshape(rank * rank, window * window)
    out += (flat @ uu).reshape(rank, rank, U.shape[1])
    return out


def expected_gram(U, weights, uu=None):
    """Posterior expectation of the design-matrix Gram, E[G G'].

    `weights` is the (R, R, N) Hadamard product of the other modes' second
    moments (all ones when there is no other mode); the result is
    sum_n weights[:, :, n] kron u_n u_n', an (R*I, R*I) matrix.
    """
    U = np.asarray(U, dtype=float)
    weights = np.asarray(weights, dtype=float)
    rank = weights.shape[0]
    window, n_samples = U.shape
    if weights.shape != (rank, rank, n_samples):
        raise ValueError(f"weights shape {weights.shape} inconsistent with U {U.shape}")
    if uu is None:
        uu = khatri_rao(U, U)
    flat = weights.reshape(rank * rank, n_samples) @ uu.T
    blocks = flat.reshape(rank, rank, window, window)
    return blocks.transpose(0, 2, 1, 3).reshape(rank * window, rank * window)


def expected_output(U, means):
    """Plug-in model output for every column of U: sum_r prod_d (W_d' u_n)_r."""
    order, window, rank = check_factors(means)
    U = np.asarray(U, dtype=float)
    if U.shape[0] != window:
        raise ValueError(f"window matrix has {U.shape[0]} rows, factors expect {window}")
    prods = np.ones((rank, U.shape[1]))
    for fac in means:
        prods *= np.asarray(fac, dtype=float).T @ U
    return prods.sum(axis=0)


def expected_residual(U, y, means, moments):
    """E||y - G'w||^2 under the factor posteriors.

    `means` are the factor means (for the cross term) and `moments` the
    second-moment stacks of every mode from second_moments. The quadratic
    term is the all-ones contraction of the Hadamard product across modes.
    """
    y = np.asarray(y, dtype=float)
    yhat = expected_output(U, means)
    if y.shape != yhat.shape:
        raise ValueError(f"y has shape {y.shape}, expected {yhat.shape}")
    prod = None
    for stack in moments:
        prod = np.asarray(stack, dtype=float) if prod is None else prod * stack
    if prod is None:
        raise ValueError("moments list is empty")
    return float(y @ y - 2.0 * float(y @ yhat) + float(prod.sum()))
