"""Layout and contraction tests for the dense tensor kernels."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bayesvolterra import expected_output, khatri_rao
from bayesvolterra.tensor_ops import check_factors

from _oracles import cpd_expand, monomial_vector


def random_factors(rng, order, window, rank):
    return [rng.standard_normal((window, rank)) for _ in range(order)]


def contract(factors, u):
    """The CPD contraction at one window, through the package's only path."""
    return float(expected_output(np.reshape(u, (-1, 1)), factors)[0])


def test_khatri_rao_examples():
    out = khatri_rao([[1.0], [2.0]], [[3.0], [4.0]])
    assert_array_equal(out, [[3.0], [4.0], [6.0], [8.0]])
    b = np.arange(6.0).reshape(3, 2)
    assert_array_equal(khatri_rao([[2.0, -1.0]], b), b * np.array([2.0, -1.0]))


def test_khatri_rao_columns_are_kronecker_products():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3))
    out = khatri_rao(a, b)
    for j in range(3):
        assert_array_equal(out[:, j], np.kron(a[:, j], b[:, j]))


def test_khatri_rao_rejects_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao(np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        khatri_rao(np.ones(3), np.ones((3, 1)))


def test_check_factors_validates_shapes():
    assert check_factors([np.ones((3, 2)), np.ones((3, 2))]) == (2, 3, 2)
    with pytest.raises(ValueError):
        check_factors([])
    with pytest.raises(ValueError):
        check_factors([np.ones((3, 2)), np.ones((2, 2))])
    with pytest.raises(ValueError):
        check_factors([np.ones(3)])


def test_contraction_identity_small_grid():
    rng = np.random.default_rng(8)
    for order, window, rank in itertools.product((1, 2, 3), repeat=3):
        for _ in range(5):
            factors = random_factors(rng, order, window, rank)
            u = rng.standard_normal(window)
            direct = monomial_vector(u, order) @ cpd_expand(factors)
            fast = contract(factors, u)
            assert abs(fast - direct) / (1.0 + abs(direct)) < 1e-12


def test_cpd_scaling_invariance():
    rng = np.random.default_rng(9)
    factors = random_factors(rng, 3, 4, 2)
    u = rng.standard_normal(4)
    scaled = [f.copy() for f in factors]
    scaled[0][:, 1] *= 7.5
    scaled[2][:, 1] /= 7.5
    assert_allclose(cpd_expand(scaled), cpd_expand(factors), rtol=1e-12, atol=1e-12)
    base = contract(factors, u)
    assert abs(contract(scaled, u) - base) <= 1e-12 * (1.0 + abs(base))
