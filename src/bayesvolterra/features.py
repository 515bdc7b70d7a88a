"""Lag windows, the CPD contraction, design matrices, and their posterior
expectations.

Every model output, design column and synthetic record comes from one
contraction, column_products: the (R, N) stack of per-column products
prod_d (W_d' u_n). The second-moment and expected-Gram routines are where
the inference loop spends its time; both take khatri_rao(U, U), which the
caller builds once per fit. The expected residual takes the product of
all modes' moment stacks, which the caller forms. Each reduction over
samples has one implementation, a dense product or sum; a fit repeats bit
for bit at a fixed seed and BLAS thread count.
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


def column_products(U, factors, skip=None):
    """The (R, N) stack prod_{d != skip} (W_d' U), one row per CPD column.

    Column n, summed over rows, is the model output at window u_n; with
    `skip` set it is the cofactor that multiplies factor `skip`. The
    product over no factors is all ones.
    """
    order, window, rank = check_factors(factors)
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != window:
        raise ValueError(f"window matrix has shape {U.shape}, "
                         f"factors expect {window} rows")
    if skip is not None and not 0 <= skip < order:
        raise ValueError(f"mode {skip} out of range for {order} factors")
    out = np.ones((rank, U.shape[1]))
    for d, fac in enumerate(factors):
        if d != skip:
            out *= np.asarray(fac, dtype=float).T @ U
    return out


def design_matrix(U, means, mode):
    """Design matrix for one factor: column n = (had_{k != mode} W_k' u_n) kron u_n.

    The Hadamard part varies slowest, matching the vec layout of the
    factor it multiplies. For a single-factor model the product over the
    other modes is empty and the result is U repeated over the rank.
    """
    U = np.asarray(U, dtype=float)
    return khatri_rao(column_products(U, means, skip=mode), U)


def second_moments(U, mean, cov, uu):
    """Projected second moments E[(W'u_n)(W'u_n)'] for one factor posterior.

    Returns an (R, R, N) stack whose slice [:, :, n] has (r, s) entry
    (m_r'u_n)(m_s'u_n) + u_n' C_{rs} u_n, where C_{rs} is the I x I block
    of the covariance coupling columns r and s (column index slow). `uu`
    is khatri_rao(U, U).
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
    blocks = cov.reshape(rank, window, rank, window)
    flat = blocks.transpose(0, 2, 1, 3).reshape(rank * rank, window * window)
    out += (flat @ uu).reshape(rank, rank, U.shape[1])
    return out


def expected_gram(U, weights, uu):
    """Posterior expectation of the design-matrix Gram, E[G G'].

    `weights` is the (R, R, N) Hadamard product of the other modes' second
    moments (all ones when there is no other mode) and `uu` is
    khatri_rao(U, U); the result is sum_n weights[:, :, n] kron u_n u_n',
    an (R*I, R*I) matrix.
    """
    U = np.asarray(U, dtype=float)
    weights = np.asarray(weights, dtype=float)
    rank = weights.shape[0]
    window, n_samples = U.shape
    if weights.shape != (rank, rank, n_samples):
        raise ValueError(f"weights shape {weights.shape} inconsistent with U {U.shape}")
    flat = weights.reshape(rank * rank, n_samples) @ uu.T
    blocks = flat.reshape(rank, rank, window, window)
    return blocks.transpose(0, 2, 1, 3).reshape(rank * window, rank * window)


def expected_output(U, means):
    """Plug-in model output for every column of U: sum_r prod_d (W_d' u_n)_r."""
    return column_products(U, means).sum(axis=0)


def expected_residual(U, y, means, product):
    """E||y - G'w||^2 under the factor posteriors.

    `means` are the factor means (for the cross term) and `product` the
    (R, R, N) Hadamard product of every mode's second_moments stack, whose
    all-ones contraction is the quadratic term.
    """
    y = np.asarray(y, dtype=float)
    yhat = expected_output(U, means)
    if y.shape != yhat.shape:
        raise ValueError(f"y has shape {y.shape}, expected {yhat.shape}")
    return float(y @ y - 2.0 * float(y @ yhat) + float(np.sum(product)))
