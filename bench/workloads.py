"""One benchmark workload in its own process; started by bench/run.py.

Phases: imports and set-up (inputs made from --seed, CSV files written,
warm-up), then whole rounds of timed
operations until they have taken --seconds, then the machine probe. Every
round runs the same operations: one fit and a fixed number of scoring
calls. Each operation's outputs are checked against bench/oracles.py and
a failed check counts the operation as failed; checks run between rounds,
untimed and untraced, and are memoized on a digest of what they inspect.

With --trace 1 the tracer records spans in the last set-up repetition and
in every round, and the run reports the per-layer metrics instead of the
end-to-end ones. Metric names and units come from BENCHMARK.json.
"""

import argparse
import csv
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import bayesvolterra as bv  # noqa: E402
import bayesvolterra.cli  # noqa: E402,F401  (loaded so the tracer can wrap cli.main)
import oracles  # noqa: E402
from tracer import Tracer, layer_metric  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
NOISE_STD = 0.05
TRUE_RANK = 2
# The true system is the same in every run; --seed draws the input and the
# noise. A system drawn per seed changes how fast the rank prior prunes,
# and the cost of a sweep grows with the square of the rank.
SYSTEM_SEED = 7
NO_EARLY_STOP = 1e-300
# paper_shape keeps all 20 columns: within three sweeps the rank prior pushes
# some below 1e-12 of the largest, and how many depends on the seed
NO_TRUNCATION = 1e-300
ORACLE_ROWS = 16
RMSE_OVER_NOISE_MAX = 1.1
GEMM_SHAPE = (400, 10201, 1024)  # the paper-shape second-moment product
GEMM_REPEATS = 3


def simulate(order, memory, n_samples, seed):
    """The `bayesvolterra simulate` recipe with the system fixed by SYSTEM_SEED."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n_samples)
    system = bv.random_cpd_system(order, memory, TRUE_RANK,
                                  np.random.default_rng(SYSTEM_SEED), noise_std=NOISE_STD)
    system = bv.calibrate_components(system, u, component_std=1.0 / np.sqrt(TRUE_RANK))
    system = bv.center_output(system, u)
    return bv.synthesize(system, u, rng=rng)


def digest(*parts):
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def oracle_rows(start, stop):
    return [int(n) for n in np.linspace(start, stop - 1, ORACLE_ROWS)]


def normalized(u, record):
    lo, hi = record["input_min"], record["input_max"]
    return (np.asarray(u, dtype=float) - lo) / (hi - lo)


class FitWorkload:
    """In-process identify at a fixed sweep budget, then repeated evaluate."""

    def __init__(self, seed, order, memory, rank, n_est, n_val, sweeps, truncation,
                 score_calls, rmse_max):
        self.seed = seed
        self.order, self.memory, self.rank = order, memory, rank
        self.n_est, self.n_val = n_est, n_val
        self.sweeps, self.truncation = sweeps, truncation
        self.score_calls = score_calls
        self.rmse_max = rmse_max
        self.verdicts = {}

    def generate(self, workdir):
        data = simulate(self.order, self.memory, self.n_est + self.n_val, self.seed)
        self.u, self.y = data.u, data.y
        u_est, y_est = self.u[:self.n_est], self.y[:self.n_est]
        self.record = bv.compute_normalization(u_est, y_est)
        self.U = bv.build_lagged_matrix(bv.normalize_input(u_est, self.record), self.memory)
        self.y_model = bv.standardize_output(y_est, self.record)

    def config(self, max_iter, rank=None):
        return bv.FitConfig(order=self.order, rank=rank or self.rank, max_iter=max_iter,
                            elbo_rel_tol=NO_EARLY_STOP,
                            truncation_threshold=self.truncation, seed=0)

    def warm_up(self):
        """Runs every code path once, on a small slice at rank 2."""
        n = min(256, self.n_est)
        state, _ = bv.identify(self.U[:, :n], self.y_model[:n], self.config(1, rank=2),
                               normalization=self.record)
        bv.evaluate(state, self.u[:2 * n], self.y[:2 * n], start=n)

    def fit(self):
        return bv.identify(self.U, self.y_model, self.config(self.sweeps),
                           normalization=self.record)

    def scoring(self, fitted):
        """The round's scoring calls; each returns (output, samples scored)."""
        def evaluate():
            return bv.evaluate(fitted[0], self.u, self.y, start=self.n_est), self.n_val
        return [evaluate] * self.score_calls

    def accuracy(self, outputs):
        report = outputs[-1][0]
        return report.rmse / NOISE_STD, report.nll - math.log(NOISE_STD)

    def describe(self, fitted):
        state, trace = fitted
        return {"final_rank": state.rank, "sweeps": len(trace), "rank_path": trace.rank}

    def check(self, fitted, outputs):
        state, trace = fitted
        model = {
            "means": [f.mean for f in state.factors],
            "covs": [f.cov for f in state.factors],
            "noise_shape": float(state.noise.shape),
            "noise_rate": float(state.noise.rate),
            "memory": state.memory,
            "output_mean": state.normalization.output_mean,
            "output_std": state.normalization.output_std,
        }
        key = digest(*model["means"], *model["covs"],
                     np.array([model["noise_shape"], model["noise_rate"]]),
                     np.array(trace.elbo), np.array(trace.rank))
        if key not in self.verdicts:
            priors = vars(state.priors)
            self.verdicts[key] = (
                oracles.check_elbo_trace(trace.elbo, trace.rank)
                + oracles.check_gamma_shapes(model["noise_shape"],
                                             np.asarray(state.col_prec.shape).tolist(),
                                             priors, self.n_est, self.order, state.window)
            )
        failures = [self.verdicts[key]]
        rows = oracle_rows(self.n_est, self.u.size)
        for report, _ in outputs:
            report_key = (key, digest(report.locations, report.scales,
                                      np.array([report.rmse, report.nll, report.dof])))
            if report_key not in self.verdicts:
                offset = [n - self.n_est for n in rows]
                found = oracles.check_predictions(
                    model, normalized(self.u, vars(state.normalization)), self.y, rows,
                    report.locations[offset], report.scales[offset], report.dof)
                found += oracles.check_metrics(self.y[self.n_est:], report.locations,
                                               report.scales,
                                               report.dof, report.rmse, report.nll)
                if self.rmse_max is not None:
                    found += oracles.check_at_most("rmse_over_noise",
                                                   report.rmse / NOISE_STD, self.rmse_max)
                self.verdicts[report_key] = found
            failures.append(self.verdicts[report_key])
        return failures


class CliWorkload:
    """`bayesvolterra.cli.main` in-process: ordered-sums identify on a short
    CSV, then evaluate and predict on a long one."""

    score_calls = 2  # evaluate, predict

    def __init__(self, seed, order=2, memory=10, rank=4, n_est=1000, n_val=200_000,
                 sweeps=15):
        self.seed = seed
        self.order, self.memory, self.rank = order, memory, rank
        self.n_est, self.n_val, self.sweeps = n_est, n_val, sweeps
        self.verdicts = {}

    def generate(self, workdir):
        self.dir = workdir
        data = simulate(self.order, self.memory, self.n_est + self.n_val, self.seed)
        self.u, self.y = data.u, data.y
        self.short_csv = workdir / "short.csv"
        self.long_csv = workdir / "long.csv"
        bv.save_csv(self.short_csv, bv.Dataset(self.u[:self.n_est], self.y[:self.n_est]))
        bv.save_csv(self.long_csv, data)
        self.model = workdir / "model"
        self.fit_json = workdir / "fit.json"
        self.eval_json = workdir / "eval.json"
        self.pred_csv = workdir / "pred.csv"

    def _cli(self, *argv):
        code = bv.cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"bayesvolterra {argv[0]} exited with code {code}")

    def _identify(self, data, max_iter, out, metrics):
        self._cli("identify", "--data", data, "--order", self.order,
                  "--memory", self.memory, "--rank", self.rank, "--max-iter", max_iter,
                  "--tol", NO_EARLY_STOP, "--ordered-sums", "--seed", 0,
                  "--out", out, "--metrics-out", metrics)

    def warm_up(self):
        warm = self.dir / "warm"
        self._identify(self.short_csv, 1, warm, self.dir / "warm.json")
        self._cli("evaluate", "--model", warm, "--data", self.short_csv,
                  "--split", self.n_est // 2, "--out", self.dir / "warm_eval.json")
        self._cli("predict", "--model", warm, "--data", self.short_csv,
                  "--out", self.dir / "warm_pred.csv")

    def fit(self):
        self._identify(self.short_csv, self.sweeps, self.model, self.fit_json)

    def scoring(self, fitted):
        return [self._evaluate, self._predict]

    def _evaluate(self):
        self._cli("evaluate", "--model", self.model, "--data", self.long_csv,
                  "--split", self.n_est, "--out", self.eval_json)
        return None, self.n_val

    def _predict(self):
        self._cli("predict", "--model", self.model, "--data", self.long_csv,
                  "--out", self.pred_csv)
        return None, self.n_est + self.n_val

    def _read_model(self):
        manifest = json.loads((self.model / "manifest.json").read_text())
        blobs = {}
        for entry in manifest["blobs"]:
            raw = np.fromfile(self.model / entry["file"], dtype="<f8")
            blobs[entry["file"]] = raw.reshape(entry["shape"])
        return manifest, blobs

    def _read_trace(self):
        with (self.model / "trace.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        return [float(r["elbo"]) for r in rows], [int(r["rank"]) for r in rows]

    def _read_predictions(self):
        table = np.loadtxt(self.pred_csv, delimiter=",", skiprows=1, ndmin=2)
        return table[:, 0], table[:, 1], float(table[0, 2])

    def accuracy(self, outputs):
        metrics = json.loads(self.eval_json.read_text())
        return metrics["rmse"] / NOISE_STD, metrics["nll"] - math.log(NOISE_STD)

    def describe(self, fitted):
        elbo, ranks = self._read_trace()
        manifest = json.loads((self.model / "manifest.json").read_text())
        return {"final_rank": manifest["rank"], "sweeps": len(elbo), "rank_path": ranks}

    def _vectorised_trace(self):
        u, y = self.u[:self.n_est], self.y[:self.n_est]
        record = bv.compute_normalization(u, y)
        U = bv.build_lagged_matrix(bv.normalize_input(u, record), self.memory)
        config = bv.FitConfig(order=self.order, rank=self.rank, max_iter=self.sweeps,
                              elbo_rel_tol=NO_EARLY_STOP, seed=0)
        _, trace = bv.identify(U, bv.standardize_output(y, record), config,
                               normalization=record)
        return trace.elbo, trace.rank

    def check(self, fitted, outputs):
        # the fit's wall time, stored in the manifest, the trace and the
        # evaluate JSON, is left out of the digest
        manifest, blobs = self._read_model()
        elbo, ranks = self._read_trace()
        metrics = json.loads(self.eval_json.read_text())
        key = digest(json.dumps({k: v for k, v in manifest.items() if k != "info"},
                                sort_keys=True).encode(),
                     *blobs.values(), np.array(elbo), np.array(ranks),
                     np.array([metrics["rmse"], metrics["nll"]]),
                     self.pred_csv.read_bytes())
        if key not in self.verdicts:
            self.verdicts[key] = self._check_outputs(manifest, blobs, elbo, ranks, metrics)
        return self.verdicts[key]

    def _check_outputs(self, manifest, blobs, elbo, ranks, metrics):
        posteriors = manifest["posteriors"]
        fit = oracles.check_elbo_trace(elbo, ranks)
        fit += oracles.check_gamma_shapes(posteriors["noise"]["shape"],
                                          posteriors["col_prec"]["shape"],
                                          manifest["priors"], self.n_est, self.order,
                                          self.memory + 1)
        vec_elbo, vec_ranks = self._vectorised_trace()
        if vec_ranks != ranks:
            fit.append(f"rank path {ranks} differs from the vectorised fit {vec_ranks}")
        fit += oracles.check_close_series("ordered vs vectorised bound", elbo, vec_elbo,
                                          1e-8)

        loc, scale, dof = self._read_predictions()
        y_val = self.y[self.n_est:]
        evaluate = oracles.check_metrics(y_val, loc[self.n_est:], scale[self.n_est:], dof,
                                         metrics["rmse"], metrics["nll"])
        evaluate += oracles.check_at_most("rmse_over_noise", metrics["rmse"] / NOISE_STD,
                                          RMSE_OVER_NOISE_MAX)

        norm = manifest["normalization"]
        order = manifest["order"]
        model = {
            "means": [blobs[f"factor{d}_mean.f64"] for d in range(order)],
            "covs": [blobs[f"factor{d}_cov.f64"] for d in range(order)],
            "noise_shape": posteriors["noise"]["shape"],
            "noise_rate": posteriors["noise"]["rate"],
            "memory": manifest["memory"],
            "output_mean": norm["output_mean"],
            "output_std": norm["output_std"],
        }
        rows = oracle_rows(self.n_est, self.u.size)
        predict = oracles.check_predictions(
            model, normalized(self.u, norm), self.y, rows,
            [loc[n] for n in rows], [scale[n] for n in rows], dof)
        # a reloaded and re-saved model must give the same file, byte for byte
        copy = self.dir / "reloaded"
        bv.save_model(bv.load_model(self.model), copy, info=manifest["info"])
        again = self.dir / "pred_reloaded.csv"
        self._cli("predict", "--model", copy, "--data", self.long_csv, "--out", again)
        if again.read_bytes() != self.pred_csv.read_bytes():
            predict.append("predictions from the reloaded model differ from the original")
        return [fit, evaluate, predict]


def make_workload(name, seed):
    if name == "paper_shape":
        return FitWorkload(seed, order=3, memory=100, rank=20, n_est=1024, n_val=4096,
                           sweeps=2, truncation=NO_TRUNCATION, score_calls=1, rmse_max=None)
    if name == "long_record":
        return FitWorkload(seed, order=3, memory=20, rank=20, n_est=10_000, n_val=10_000,
                           sweeps=12, truncation=1e-3, score_calls=10,
                           rmse_max=RMSE_OVER_NOISE_MAX)
    if name == "cli_pipeline":
        return CliWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


def gemm_gflops():
    """Single-thread rate of one fixed matrix product; tells machine drift apart."""
    m, k, n = GEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    a @ b
    times = []
    for _ in range(GEMM_REPEATS):
        started = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - started)
    return 2.0 * m * k * n / statistics.median(times) / 1e9


def run_round(workload):
    """One fit and the round's scoring calls, each timed."""
    ops = 1 + workload.score_calls
    try:
        started = time.perf_counter()
        fitted = workload.fit()
        fit_end = time.perf_counter()
        outputs, score_s, rows = [], 0.0, 0
        for call in workload.scoring(fitted):
            t = time.perf_counter()
            outputs.append(call())
            score_s += time.perf_counter() - t
            rows += outputs[-1][1]
    except Exception:  # a fault in the program fails the whole round
        traceback.print_exc()
        return {"ops": ops, "failed": ops, "measured_s": time.perf_counter() - started}
    return {
        "ops": ops,
        "fitted": fitted,
        "outputs": outputs,
        "measured_s": fit_end - started + score_s,
        "fit_s": fit_end - started,
        "fit_window": (started, fit_end),
        "score_kps": rows / score_s / 1e3,
    }


def check_round(workload, result):
    """Checks one round's outputs; each operation with a failed check fails."""
    fitted = result.pop("fitted")
    result["describe"] = workload.describe(fitted)
    result["accuracy"] = workload.accuracy(result["outputs"])
    try:
        failures = workload.check(fitted, result["outputs"])
    except Exception:  # a program call made by a check failed
        traceback.print_exc()
        failures = [["check raised"]] * result["ops"]
    for found in failures:
        for message in found:
            print(f"check failed: {message}", file=sys.stderr)
    result["failed"] = sum(1 for found in failures if found)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", required=True, type=float)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up seconds and exit")
    parser.add_argument("--setup-probes", type=float, nargs="*", default=[],
                        help="set-up seconds of --setup-only processes")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    tracer = Tracer()
    tracer.install()
    workload = make_workload(args.workload, args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        tracer.enabled = bool(args.trace)
        workload.generate(workdir)
        tracer.enabled = False
        workload.warm_up()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(repr(setup_s))
            return 0

        loop_started = time.monotonic()
        rounds = []
        while not rounds or sum(r["measured_s"] for r in rounds) < args.seconds:
            tracer.enabled = bool(args.trace)
            rounds.append(run_round(workload))
            tracer.enabled = False
            if "fitted" in rounds[-1]:
                check_round(workload, rounds[-1])
        loop_s = time.monotonic() - loop_started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        gflops = gemm_gflops()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    done = [r for r in rounds if "fit_s" in r]
    if not done:
        print("no round completed", file=sys.stderr)
        return 1
    last = done[-1]
    info = last["describe"]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, final rank "
          f"{info['final_rank']}, {info['sweeps']} sweeps, ranks {info['rank_path']}, "
          f"fit_s {[round(r['fit_s'], 3) for r in done]}, "
          f"score_kps {[round(r['score_kps'], 2) for r in done]}, "
          f"gemm {gflops:.1f} GFLOP/s; set-up {setup_s:.2f} s, rounds {loop_s:.1f} s "
          f"of which timed {sum(r['measured_s'] for r in rounds):.1f} s", file=sys.stderr)

    if args.trace:
        totals = tracer.totals()
        values = {m["name"]: layer_metric(totals, m["name"]) for m in spec["per_layer"]
                  if not m["name"].startswith(("machine.", "trace."))}
        values["machine.gemm_gflops"] = gflops
        windows = [r["fit_window"] for r in done]
        fit_total, shares = tracer.shares(windows)
        values["trace.overhead_pct"] = 100.0 * tracer.cost_in(windows) / fit_total
        top = sorted(shares.items(), key=lambda item: -item[1])[:12]
        print(f"traced fit time {fit_total:.3f} s over {len(windows)} fits; self-time "
              "shares: " + ", ".join(f"{name} {100 * share:.1f}%" for name, share in top)
              + f"; sum {100 * sum(shares.values()):.1f}%", file=sys.stderr)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "fit_windows": windows})
        wanted = spec["per_layer"]
    else:
        rmse_ratio, nll_noise = last["accuracy"]
        values = {
            "setup_s": statistics.median(args.setup_probes + [setup_s]),
            "fit_s": statistics.median(r["fit_s"] for r in done),
            "score_kps": statistics.median(r["score_kps"] for r in done),
            "peak_rss_mb": peak_rss_mb,
            "rmse_over_noise": rmse_ratio,
            "val_nll_noise": nll_noise,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}
    correct = failed < attempted and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
