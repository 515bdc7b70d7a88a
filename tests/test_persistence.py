"""Model directory round trips and format validation."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bayesvolterra import (
    GammaPosterior,
    ModelFormatError,
    NormalizationRecord,
    PriorConfig,
    init_state,
    load_manifest,
    load_model,
    predictive_arrays,
    save_model,
)


def random_state(seed):
    """A state with nothing left at its defaults, to exercise every field."""
    rng = np.random.default_rng(seed)
    order = int(rng.integers(1, 4))
    memory = int(rng.integers(1, 6))
    rank = int(rng.integers(1, 4))
    state = init_state(
        order,
        memory,
        rank,
        priors=PriorConfig(noise_shape=2e-3, noise_rate=3e-3),
        seed=seed,
        normalization=NormalizationRecord(
            input_min=-1.5, input_max=2.5, output_mean=0.25, output_std=1.75
        ),
        row_prec_fixed=bool(rng.integers(0, 2)),
    )
    window = memory + 1
    for f in state.factors:
        f.mean[...] = rng.standard_normal((window, rank))
        root = rng.standard_normal((window * rank, window * rank))
        f.cov[...] = root @ root.T + np.eye(window * rank)
        f.cov_logdet = None
    state.col_prec = GammaPosterior(
        rng.uniform(0.5, 3.0, rank), rng.uniform(0.5, 3.0, rank)
    )
    state.row_prec = GammaPosterior(
        rng.uniform(0.5, 3.0, window), rng.uniform(0.5, 3.0, window)
    )
    state.noise = GammaPosterior(rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0))
    return state


def test_round_trip_is_bitwise_exact(tmp_path):
    for seed in range(5):
        state = random_state(seed)
        directory = save_model(state, tmp_path / f"model{seed}")
        back = load_model(directory)
        assert back.order == state.order
        assert back.memory == state.memory
        assert back.rank == state.rank
        assert back.row_prec_fixed == state.row_prec_fixed
        assert back.priors == state.priors
        assert back.normalization == state.normalization
        for fa, fb in zip(state.factors, back.factors):
            assert_array_equal(fa.mean, fb.mean)
            assert_array_equal(fa.cov, fb.cov)
        assert_array_equal(np.asarray(back.col_prec.shape),
                           np.asarray(state.col_prec.shape))
        assert_array_equal(np.asarray(back.col_prec.rate),
                           np.asarray(state.col_prec.rate))
        assert_array_equal(np.asarray(back.row_prec.shape),
                           np.asarray(state.row_prec.shape))
        assert back.noise.shape == state.noise.shape
        assert back.noise.rate == state.noise.rate


def test_round_trip_predictions_are_bitwise_identical(tmp_path):
    state = random_state(10)
    rng = np.random.default_rng(99)
    U = np.vstack([np.ones(20), rng.uniform(0.0, 1.0, (state.memory, 20))])
    before = predictive_arrays(state, U)
    back = load_model(save_model(state, tmp_path / "model"))
    after = predictive_arrays(back, U)
    assert_array_equal(before[0], after[0])
    assert_array_equal(before[1], after[1])
    assert before[2] == after[2]


def test_manifest_info_round_trip(tmp_path):
    state = random_state(3)
    info = {"seed": 3, "elbo": -12.5, "runtime_s": 0.04}
    save_model(state, tmp_path / "model", info=info)
    manifest = load_manifest(tmp_path / "model")
    assert manifest["info"] == info
    assert manifest["format_version"] == 1


def test_truncated_blob_is_rejected(tmp_path):
    state = random_state(4)
    directory = save_model(state, tmp_path / "model")
    blob = directory / "factor0_mean.f64"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ModelFormatError, match="bytes"):
        load_model(directory)


@pytest.mark.parametrize("blob", ["factor0_mean.f64", "factor0_cov.f64"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_blob_is_rejected(tmp_path, blob, value):
    directory = save_model(random_state(4), tmp_path / "model")
    path = directory / blob
    data = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    data[1] = value
    path.write_bytes(data.tobytes())
    with pytest.raises(ModelFormatError, match=f"{blob}: non-finite"):
        load_model(directory)


def test_missing_blob_is_rejected(tmp_path):
    directory = save_model(random_state(5), tmp_path / "model")
    (directory / "factor0_cov.f64").unlink()
    with pytest.raises(ModelFormatError, match="missing"):
        load_model(directory)


def test_unknown_format_version_is_rejected(tmp_path):
    directory = save_model(random_state(6), tmp_path / "model")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["format_version"] = 99
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(directory)


def test_missing_manifest_is_rejected(tmp_path):
    with pytest.raises(ModelFormatError, match="manifest"):
        load_model(tmp_path / "nothing-here")


def test_corrupt_manifest_json_is_rejected(tmp_path):
    directory = save_model(random_state(7), tmp_path / "model")
    (directory / "manifest.json").write_text("{not json")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model(directory)


def test_inconsistent_declared_shape_is_rejected(tmp_path):
    directory = save_model(random_state(8), tmp_path / "model")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["rank"] = manifest["rank"] + 1
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError):
        load_model(directory)


@pytest.mark.parametrize("group, part, value", [
    ("noise", "rate", -1.0),
    ("noise", "rate", 0.0),
    ("noise", "shape", float("nan")),
    ("noise", "rate", float("inf")),
    ("col_prec", "shape", -2.0),
    ("row_prec", "rate", 0.0),
])
def test_nonpositive_gamma_parameters_are_rejected(tmp_path, group, part, value):
    directory = save_model(random_state(9), tmp_path / "model")
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    stored = manifest["posteriors"][group]
    if isinstance(stored[part], list):
        stored[part][0] = value
    else:
        stored[part] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match=f"manifest.json: {group} {part}"):
        load_model(directory)
