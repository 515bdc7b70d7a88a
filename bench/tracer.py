"""Spans around the package's public functions, recorded from outside it.

The tracer replaces each traced function at every module attribute of the
package that holds it (for example `second_moments` both in `features`
and in `inference`, which imported it), so the program's own calls pass
through the wrapper. A span is (name, start, end, parent); spans stay in
memory and are written to one file when the run ends. A span's self time
is its duration minus the durations of its child spans. A function the
package no longer has is skipped, and its metrics are absent from the
result.
"""

import functools
import inspect
import json
import sys
import time


def _second_moment_work(bound, result):
    window, n_samples = bound["U"].shape
    rank = bound["mean"].shape[1]
    return {"flops": 2.0 * rank**2 * window**2 * n_samples, "out_bytes": result.nbytes}


def _gram_work(bound, result):
    window, n_samples = bound["U"].shape
    rank = bound["weights"].shape[0]
    return {"flops": 2.0 * rank**2 * window**2 * n_samples}


def _output_size(bound, result):
    return {"out_bytes": result.nbytes}


def _rows(bound, result):
    return {"rows": len(result)}


def _noop():
    return None


def _no_work(bound, result):
    return {}


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


# (span name, module holding the function, attribute, work counter).
# Span names use the module as the layer; the scipy Cholesky calls are
# named after `inference`, the module that imports and calls them.
TARGETS = (
    ("tensor_ops.khatri_rao", "bayesvolterra.tensor_ops", "khatri_rao", _output_size),
    ("features.build_lagged_matrix", "bayesvolterra.features", "build_lagged_matrix", None),
    ("features.design_matrix", "bayesvolterra.features", "design_matrix", None),
    ("features.second_moments", "bayesvolterra.features", "second_moments",
     _second_moment_work),
    ("features.expected_gram", "bayesvolterra.features", "expected_gram", _gram_work),
    ("features.expected_output", "bayesvolterra.features", "expected_output", None),
    ("features.expected_residual", "bayesvolterra.features", "expected_residual", None),
    ("model.prior_precision", "bayesvolterra.model", "prior_precision", None),
    ("inference.cho_factor", "bayesvolterra.inference", "cho_factor", None),
    ("inference.cho_solve", "bayesvolterra.inference", "cho_solve", None),
    ("inference.update_factor", "bayesvolterra.inference", "update_factor", None),
    ("inference.update_row_precisions", "bayesvolterra.inference",
     "update_row_precisions", None),
    ("inference.update_col_precisions", "bayesvolterra.inference",
     "update_col_precisions", None),
    ("inference.update_noise_precision", "bayesvolterra.inference",
     "update_noise_precision", None),
    ("inference.compute_elbo", "bayesvolterra.inference", "compute_elbo", None),
    ("inference.truncate_rank", "bayesvolterra.inference", "truncate_rank", None),
    ("inference.identify", "bayesvolterra.inference", "identify", None),
    ("prediction.predictive_arrays", "bayesvolterra.prediction", "predictive_arrays", None),
    ("prediction.evaluate", "bayesvolterra.prediction", "evaluate", None),
    ("persistence.save_model", "bayesvolterra.persistence", "save_model", None),
    ("persistence.load_model", "bayesvolterra.persistence", "load_model", None),
    ("data.load_csv", "bayesvolterra.data", "load_csv", _rows),
    ("data.save_csv", "bayesvolterra.data", "save_csv", None),
    # one span per subcommand: cli.identify, cli.evaluate, cli.predict
    ("cli.main", "bayesvolterra.cli", "main", None),
)


class Tracer:
    """Records spans while `enabled`; wrappers cost one flag test when off."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start, end, parent index or -1, work dict or None]
        self.names = set()
        self._stack = []

    def install(self):
        """Wrap every target found in the loaded package modules."""
        modules = [module for name, module in list(sys.modules.items())
                   if name == "bayesvolterra" or name.startswith("bayesvolterra.")]
        for span_name, home, attr, work in TARGETS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            namer = _cli_name if span_name == "cli.main" else None
            wrapper = self._wrap(span_name, original, work, namer)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
            if namer is None:
                self.names.add(span_name)
            else:
                self.names.update({"cli.identify", "cli.evaluate", "cli.predict"})

    def _wrap(self, span_name, original, work, namer):
        signature = inspect.signature(original) if work is not None else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            name = namer(args, kwargs) if namer is not None else span_name
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                span[1] = time.perf_counter()
                result = original(*args, **kwargs)
                span[2] = time.perf_counter()
            finally:
                if span[2] == 0.0:
                    span[2] = time.perf_counter()
                tracer._stack.pop()
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = work(bound.arguments, result)
            return result

        return wrapper

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (name, start, end, parent, _) in enumerate(self.spans)]

    def totals(self):
        """Per span name: self seconds, calls, and summed or largest work counts."""
        out = {name: {"self_s": 0.0, "calls": 0, "flops": 0.0, "rows": 0,
                      "out_bytes": 0} for name in self.names}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out.setdefault(span[0], {"self_s": 0.0, "calls": 0, "flops": 0.0,
                                             "rows": 0, "out_bytes": 0})
            entry["self_s"] += self_s
            entry["calls"] += 1
            work = span[4] or {}
            entry["flops"] += work.get("flops", 0.0)
            entry["rows"] += work.get("rows", 0)
            entry["out_bytes"] = max(entry["out_bytes"], work.get("out_bytes", 0))
        return out

    def shares(self, windows):
        """Self-time share of each span name inside the given (start, end) windows."""
        total = sum(end - start for start, end in windows)
        acc = {}
        for span, self_s in zip(self.spans, self.self_times()):
            if any(start <= span[1] and span[2] <= end for start, end in windows):
                acc[span[0]] = acc.get(span[0], 0.0) + self_s
        return total, {name: value / total for name, value in acc.items()}

    def cost_in(self, windows, calls=20_000):
        """Estimated seconds the spans inside the windows added to them.

        Times a wrapped no-op with a work counter, recording, against the
        bare no-op, and charges that difference to every span in a window.
        """
        probe = Tracer()
        wrapped = probe._wrap("probe", _noop, _no_work, None)
        probe.enabled = True
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            _noop()
        per_span = max(traced - (time.perf_counter() - started), 0.0) / calls
        inside = sum(1 for span in self.spans
                     if any(start <= span[1] and span[2] <= end for start, end in windows))
        return per_span * inside

    def write(self, path, extra=None):
        payload = {"spans": [span[:4] for span in self.spans]}
        payload.update(extra or {})
        path.write_text(json.dumps(payload) + "\n")


def layer_metric(totals, name):
    """Value of a per-layer metric `<span name>.<field>`, or None when absent."""
    span_name, _, field = name.rpartition(".")
    entry = totals.get(span_name)
    if entry is None:
        return None
    self_s = entry["self_s"]
    if field == "ms":
        return 1e3 * self_s
    if field == "calls":
        return entry["calls"]
    if field == "gflops":
        return entry["flops"] / self_s / 1e9 if self_s > 0 else 0.0
    if field == "out_mb":
        return entry["out_bytes"] / 1e6
    if field == "krows_s":
        return entry["rows"] / self_s / 1e3 if self_s > 0 else 0.0
    raise ValueError(f"unknown per-layer field in {name!r}")
