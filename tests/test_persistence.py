"""Model directory round trips and format validation."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bayesvolterra import (
    ModelFormatError,
    load_manifest,
    load_model,
    predictive_arrays,
    save_model,
)

from _oracles import random_state


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


@pytest.mark.parametrize("damage", ["negative", "asymmetric"])
def test_covariance_that_is_not_spd_is_rejected(tmp_path, damage):
    state = random_state(4)
    directory = save_model(state, tmp_path / "model")
    cov = state.factors[0].cov.copy()
    if damage == "negative":
        cov = -np.eye(cov.shape[0])
        message = "not positive definite"
    else:
        cov[0, -1] += 1e-9
        message = "not symmetric"
    (directory / "factor0_cov.f64").write_bytes(cov.astype("<f8").tobytes())
    with pytest.raises(ModelFormatError, match=f"factor0_cov.f64: covariance is {message}"):
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


@pytest.mark.parametrize("key", ["order", "memory", "rank"])
@pytest.mark.parametrize("value", [0, -1])
def test_manifest_sizes_below_one_are_rejected(tmp_path, key, value):
    directory = save_model(random_state(8), tmp_path / "model")
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[key] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match=f"manifest.json: {key} must be at least 1"):
        load_model(directory)


@pytest.mark.parametrize("key", ["order", "memory", "rank"])
@pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None])
def test_manifest_sizes_that_are_not_integers_are_rejected(tmp_path, key, value):
    # int() used to truncate these: "rank": 1.5 or true loaded as rank 1
    directory = save_model(random_state(8), tmp_path / "model")
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[key] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError,
                       match=f"manifest.json: {key} must be an integer"):
        load_model(directory)


def test_blobs_are_found_from_the_sizes_alone(tmp_path):
    # the blobs list is written for other readers; load derives every
    # blob's name and shape from order, memory and rank
    state = random_state(8)
    directory = save_model(state, tmp_path / "model")
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["blobs"]
    path.write_text(json.dumps(manifest))
    back = load_model(directory)
    for fa, fb in zip(state.factors, back.factors, strict=True):
        assert_array_equal(fa.mean, fb.mean)
        assert_array_equal(fa.cov, fb.cov)


def test_save_writes_the_blobs_list(tmp_path):
    state = random_state(8)
    manifest = load_manifest(save_model(state, tmp_path / "model"))
    side = state.window * state.rank
    expected = []
    for d in range(state.order):
        expected += [
            {"file": f"factor{d}_mean.f64", "shape": [state.window, state.rank],
             "dtype": "<f8"},
            {"file": f"factor{d}_cov.f64", "shape": [side, side], "dtype": "<f8"},
        ]
    assert manifest["blobs"] == expected


@pytest.mark.parametrize("key", ["input_min", "input_max", "output_mean", "output_std"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_normalization_is_rejected(tmp_path, key, value):
    directory = save_model(random_state(8), tmp_path / "model")
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["normalization"][key] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match=f"normalization {key} must be finite"):
        load_model(directory)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_row_prec_fixed_that_is_not_a_boolean_is_rejected(tmp_path, value):
    # bool() used to read the string "false" as True
    directory = save_model(random_state(8), tmp_path / "model")
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["row_prec_fixed"] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError,
                       match="manifest.json: row_prec_fixed must be a boolean"):
        load_model(directory)


# random_state's rank and window are both below 7
@pytest.mark.parametrize("group, part, value", [
    ("noise", "shape", [1.0]),
    ("col_prec", "rate", 2.0),
    ("col_prec", "shape", [1.0] * 7),
    ("row_prec", "shape", [1.0] * 7),
    ("row_prec", "rate", [[1.0]]),
])
def test_gamma_parameters_of_the_wrong_shape_are_rejected(tmp_path, group, part, value):
    directory = save_model(random_state(9), tmp_path / "model")
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["posteriors"][group][part] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match=f"manifest.json: {group} {part} has shape"):
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
