"""State containers, prior constants, and initialization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bayesvolterra import (
    FactorPosterior,
    GammaPosterior,
    NormalizationRecord,
    PriorConfig,
    init_state,
    prior_precision,
)


def test_prior_config_defaults_give_unit_means():
    priors = PriorConfig()
    assert priors.noise_shape / priors.noise_rate == 1.0
    assert priors.col_shape / priors.col_rate == 1.0
    assert priors.row_shape / priors.row_rate == 1.0


def test_prior_config_rejects_bad_constants():
    with pytest.raises(ValueError):
        PriorConfig(noise_shape=0.0)
    with pytest.raises(ValueError):
        PriorConfig(col_rate=-1.0)
    with pytest.raises(ValueError):
        PriorConfig(row_shape=float("inf"))


def test_gamma_posterior_moments():
    post = GammaPosterior(3.0, 2.0)
    assert post.mean == 1.5
    # E[ln x] for shape 1 is -euler_gamma - ln(rate)
    post = GammaPosterior(1.0, 2.0)
    assert_allclose(post.expected_log, -np.euler_gamma - np.log(2.0), rtol=1e-12)
    vec = GammaPosterior(np.array([1.0, 4.0]), np.array([2.0, 2.0]))
    assert_array_equal(vec.mean, [0.5, 2.0])


def test_factor_second_moments_layout():
    rng = np.random.default_rng(0)
    mean = rng.standard_normal((3, 2))
    var = rng.uniform(0.1, 1.0, 6)
    post = FactorPosterior(mean=mean, cov=np.diag(var))
    sq = post.entry_second_moments()
    # vec is column-stacked, so the variance of entry (i, r) sits at r*I + i
    for i in range(3):
        for r in range(2):
            assert_allclose(sq[i, r], mean[i, r] ** 2 + var[r * 3 + i], rtol=1e-14)


def test_normalization_record_validation():
    record = NormalizationRecord()
    assert (record.input_min, record.input_max) == (0.0, 1.0)
    assert (record.output_mean, record.output_std) == (0.0, 1.0)
    with pytest.raises(ValueError):
        NormalizationRecord(input_min=1.0, input_max=1.0)
    with pytest.raises(ValueError):
        NormalizationRecord(output_std=0.0)


@pytest.mark.parametrize("field", ["input_min", "input_max", "output_mean", "output_std"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_normalization_record_refuses_nonfinite_fields(field, value):
    # a NaN output_mean used to pass and turn every prediction into NaN
    with pytest.raises(ValueError, match=f"normalization {field} must be finite"):
        NormalizationRecord(**{field: value})


def test_init_state_is_deterministic():
    a = init_state(2, 4, 3, seed=7)
    b = init_state(2, 4, 3, seed=7)
    for fa, fb in zip(a.factors, b.factors):
        assert_array_equal(fa.mean, fb.mean)
        assert_array_equal(fa.cov, fb.cov)
    c = init_state(2, 4, 3, seed=8)
    assert not np.array_equal(a.factors[0].mean, c.factors[0].mean)


def test_init_state_shapes_and_priors():
    state = init_state(3, 5, 4, seed=0)
    assert state.order == 3
    assert state.window == 6
    assert state.rank == 4
    assert len(state.factors) == 3
    for f in state.factors:
        assert f.mean.shape == (6, 4)
        assert_array_equal(f.cov, np.eye(24))
        assert f.cov_logdet == 0.0
    # every Gamma posterior starts at its prior, so every mean is 1
    assert state.noise.mean == 1.0
    assert_array_equal(np.asarray(state.col_prec.mean), np.ones(4))
    assert_array_equal(np.asarray(state.row_prec.mean), np.ones(6))


def test_init_state_mean_scale_shrinks_with_rank():
    wide = init_state(1, 200, 16, seed=1)
    narrow = init_state(1, 200, 1, seed=1)
    assert wide.factors[0].mean.std() == pytest.approx(0.25, rel=0.1)
    assert narrow.factors[0].mean.std() == pytest.approx(1.0, rel=0.1)


def test_init_state_rejects_bad_arguments():
    with pytest.raises(ValueError):
        init_state(0, 3, 2)
    with pytest.raises(ValueError):
        init_state(2, 0, 2)
    with pytest.raises(ValueError):
        init_state(2, 3, 0)


def test_prior_precision_examples():
    state = init_state(1, 1, 1, seed=0)
    assert_array_equal(prior_precision(state), np.ones(2))

    state.col_prec = GammaPosterior(np.array([2.0]), np.array([1.0]))
    state.row_prec = GammaPosterior(np.array([3.0, 5.0]), np.array([1.0, 1.0]))
    assert_array_equal(prior_precision(state), [6.0, 10.0])


def test_prior_precision_layout_oracle():
    # a state with drawn row precisions, and one that holds them fixed
    rng = np.random.default_rng(2)
    for row_prec_fixed in (False, True):
        state = init_state(2, 3, 3, seed=0, row_prec_fixed=row_prec_fixed)
        col = rng.uniform(0.5, 2.0, 3)
        row = rng.uniform(0.5, 2.0, 4)
        state.col_prec = GammaPosterior(col, np.ones(3))
        state.row_prec = GammaPosterior(row, np.ones(4))
        precision = prior_precision(state)
        assert precision.shape == (12,)
        used = np.ones(4) if row_prec_fixed else row
        for r in range(3):
            for i in range(4):
                assert_allclose(precision[r * 4 + i], col[r] * used[i], rtol=1e-14)
        # bit for bit the Kronecker product of the expected precisions
        assert_array_equal(precision, np.kron(col, used))


def test_fixed_row_precisions_act_as_ones():
    state = init_state(2, 3, 2, seed=0, row_prec_fixed=True)
    state.row_prec = GammaPosterior(np.full(4, 9.0), np.ones(4))
    assert_array_equal(state.row_prec_means(), np.ones(4))
    state.col_prec = GammaPosterior(np.full(2, 3.0), np.ones(2))
    assert_array_equal(prior_precision(state), np.full(8, 3.0))
