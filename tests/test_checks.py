"""The one check of a number that enters from outside, errors.checked, and
the entry points that route their fields through it."""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import from_dtype

from bayesvolterra import (
    NormalizationRecord,
    SyntheticSystem,
    build_lagged_matrix,
    calibrate_components,
    load_model,
    random_cpd_system,
    save_model,
    split_count,
)
from bayesvolterra.errors import checked
from bayesvolterra.features import lag_blocks
from bayesvolterra.inference import truncate_rank
from bayesvolterra.model import init_state


def _numpy(*dtypes):
    return [from_dtype(np.dtype(dtype)) for dtype in dtypes]


# (category, value): "int" and "float" values are reals, Python or numpy;
# the rest must never be read as numbers
VALUES = st.one_of(
    st.tuples(st.just("int"), st.one_of(st.integers(-2**63, 2**63 - 1),
                                        *_numpy("int8", "int64", "uint8", "uint64"))),
    st.tuples(st.just("float"), st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                          *_numpy("float16", "float32", "float64"))),
    st.tuples(st.just("bool"), st.one_of(st.booleans(), *_numpy("bool"))),
    st.tuples(st.just("other"), st.one_of(
        st.sampled_from(["1", "0.5", "nan", "inf", ""]), st.text(max_size=3),
        st.none(), st.lists(st.integers(), max_size=2))),
)


@settings(max_examples=400, deadline=None)
@given(tagged=VALUES, kind=st.sampled_from([int, float]),
       minimum=st.one_of(st.none(), st.integers(-2, 2)), strict=st.booleans(),
       finite=st.booleans())
def test_checked_accepts_exactly_the_reals_in_range(tagged, kind, minimum, strict, finite):
    category, value = tagged
    accepted = category == "int" or (category == "float" and kind is float)
    if accepted:
        expected = kind(value)
        if minimum is not None:
            accepted = expected > minimum if strict else expected >= minimum
        if finite and kind is float:
            accepted = accepted and math.isfinite(expected)
    if not accepted:
        with pytest.raises(ValueError, match="^field must be "):
            checked("field", value, kind, minimum, strict, finite)
        return
    result = checked("field", value, kind, minimum, strict, finite)
    assert type(result) is kind
    assert result == expected or (math.isnan(result) and math.isnan(expected))


ENTRY_POINTS = {
    "truncate_rank": lambda field, value: truncate_rank(init_state(2, 3, 3), value),
    "init_state": lambda field, value: init_state(
        **{"order": 2, "memory": 3, "rank": 2, field: value}),
    "build_lagged_matrix": lambda field, value: build_lagged_matrix(np.ones(6), value),
    "lag_blocks": lambda field, value: next(lag_blocks(np.ones(6), 3, start=value)),
    "SyntheticSystem": lambda field, value: SyntheticSystem([np.ones((3, 1))],
                                                            noise_std=value),
    "split_count": lambda field, value: split_count(10, value),
    "random_cpd_system": lambda field, value: random_cpd_system(
        **{"order": 2, "memory": 2, "rank": 2, field: value},
        rng=np.random.default_rng(0)),
    "calibrate_components": lambda field, value: calibrate_components(
        SyntheticSystem([np.ones((3, 1))]), np.linspace(0.0, 1.0, 8), component_std=value),
}

# each of these was accepted, or failed with a TypeError that names no field
BAD_FIELDS = [
    ("truncate_rank", "threshold", True),
    ("truncate_rank", "threshold", "0.1"),
    ("init_state", "order", True),
    ("init_state", "memory", 3.0),
    ("init_state", "rank", 2.5),
    ("build_lagged_matrix", "memory", 2.5),
    ("build_lagged_matrix", "memory", True),
    ("build_lagged_matrix", "memory", np.True_),
    ("lag_blocks", "start", 1.5),
    ("lag_blocks", "start", True),
    ("lag_blocks", "start", "1"),
    ("SyntheticSystem", "noise_std", True),
    ("SyntheticSystem", "noise_std", "0.1"),
    ("split_count", "split", True),
    ("split_count", "split", np.True_),
    ("split_count", "split", "5"),
    ("random_cpd_system", "order", True),
    ("random_cpd_system", "memory", 2.5),
    ("random_cpd_system", "rank", True),
    ("calibrate_components", "component_std", True),
    ("calibrate_components", "component_std", "1"),
]


@pytest.mark.parametrize("entry, field, value", BAD_FIELDS,
                         ids=[f"{entry}-{field}={value!r}" for entry, field, value in BAD_FIELDS])
def test_entry_points_refuse_a_bad_field_by_name(entry, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        ENTRY_POINTS[entry](field, value)


@pytest.mark.parametrize("fields, field", [
    ({"input_min": False, "input_max": True, "output_mean": False, "output_std": True},
     "input_min"),
    ({"input_max": "2"}, "input_max"),
    ({"output_std": np.True_}, "output_std"),
])
def test_normalization_record_refuses_booleans_and_strings(fields, field):
    # the booleans used to construct, save as false/true and then not load
    with pytest.raises(ValueError, match=f"^normalization {field} must be a number"):
        NormalizationRecord(**fields)


SMALL_VALUES = st.one_of(
    st.integers(-3, 3), st.floats(-3.0, 3.0), *_numpy("int64", "float32"),
    st.booleans(), st.sampled_from(["2", None]))


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({name: SMALL_VALUES for name in
                              ("input_min", "input_max", "output_mean", "output_std")}))
def test_a_normalization_record_that_constructs_loads_after_a_save(fields):
    try:
        record = NormalizationRecord(**fields)
    except ValueError as err:
        assert str(err).startswith(("normalization ", "input_max ", "output_std "))
        return
    state = init_state(1, 2, 1, normalization=record)
    with tempfile.TemporaryDirectory() as directory:
        back = load_model(save_model(state, directory))
    assert back.normalization == record
    assert all(type(value) is float for value in vars(back.normalization).values())
