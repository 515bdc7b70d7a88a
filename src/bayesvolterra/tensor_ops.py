"""Dense Khatri-Rao kernel and CPD factor validation.

Every vectorized quantity in this package follows one layout rule: the
first tensor index varies fastest. For an I x R matrix W this is
column-major, vec(W)[r*I + i] = W[i, r] (zero-based), while kron(a, b)
follows numpy in letting the first operand vary slowest, so that column
j of khatri_rao(a, b) is kron(a[:, j], b[:, j]). The CPD contraction
itself is features.column_products; the tests pin these conventions
against explicit Kronecker expansions.
"""

from __future__ import annotations

import numpy as np


def khatri_rao(a, b):
    """Column-wise Kronecker product of matrices with equal column counts."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    return (a[:, None, :] * b[None, :, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1]
    )


def check_factors(factors):
    """Validate a CPD factor list and return (order, window, rank)."""
    if len(factors) == 0:
        raise ValueError("factor list is empty")
    shapes = {np.shape(f) for f in factors}
    if len(shapes) != 1:
        raise ValueError(f"factor shapes differ: {sorted(shapes)}")
    shape = shapes.pop()
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        raise ValueError(f"factors must be nonempty matrices, got shape {shape}")
    return len(factors), shape[0], shape[1]
