"""The contract between the package and the benchmark's tracer.

bench/tracer.py wraps package functions by module attribute, and it skips
a function the package no longer has without a word: that function's
per-layer metrics are then missing from a traced run. These tests fail
instead, before a benchmark run does.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import bayesvolterra.cli  # noqa: F401  (loads every module the tracer wraps)
from bayesvolterra import features, inference

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
# per-layer metrics that the workload measures itself rather than from spans
NOT_SPANS = ("machine.", "trace.")


@pytest.mark.parametrize("span, home, attr",
                         [target[:3] for target in TRACER.TARGETS],
                         ids=[target[0] for target in TRACER.TARGETS])
def test_every_traced_function_is_at_its_module_attribute(span, home, attr):
    assert callable(getattr(sys.modules.get(home), attr, None)), \
        f"{span}: {home}.{attr} is gone, so the tracer would skip it"


def test_every_per_layer_metric_maps_to_a_span():
    spans = set()
    for name, *_ in TRACER.TARGETS:
        # the tracer names one span per subcommand
        spans |= ({"cli.identify", "cli.evaluate", "cli.predict"}
                  if name == "cli.main" else {name})
    totals = {name: {"self_s": 1.0, "calls": 1, "flops": 0.0, "rows": 0,
                     "out_bytes": 0} for name in spans}
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in per_layer:
        if not metric["name"].startswith(NOT_SPANS):
            assert TRACER.layer_metric(totals, metric["name"]) is not None, metric


@pytest.mark.parametrize("function, parameters", [
    (features.second_moments, {"U", "mean"}),
    (features.expected_gram, {"U", "weights"}),
])
def test_work_counters_find_their_arguments(function, parameters):
    # _second_moment_work and _gram_work read these arguments by name
    assert parameters <= set(inspect.signature(function).parameters)


def test_the_spd_solve_goes_through_the_traced_cholesky_wrappers(monkeypatch):
    # the tracer times inference.cho_factor and inference.cho_solve; a
    # solve that called LAPACK around them would read zero in both
    calls = {"cho_factor": 0, "cho_solve": 0}
    for name in calls:
        wrapped = getattr(inference, name)

        def counted(*args, _name=name, _wrapped=wrapped, **kwargs):
            calls[_name] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(inference, name, counted)
    rng = np.random.default_rng(0)
    root = rng.standard_normal((6, 8))
    matrix = root @ root.T
    rhs = rng.standard_normal(6)
    expected = np.linalg.solve(matrix, rhs)
    _, solution, _ = inference._solve_spd(matrix, rhs, "test")
    assert calls == {"cho_factor": 1, "cho_solve": 1}
    np.testing.assert_allclose(solution, expected, rtol=1e-10)
