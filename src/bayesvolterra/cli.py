"""Command-line interface: identify, predict, evaluate, simulate, report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import prediction
from .data import (
    calibrate_components,
    center_output,
    compute_normalization,
    load_csv,
    normalize_input,
    random_cpd_system,
    save_csv,
    split_count,
    standardize_output,
    synthesize,
    write_csv,
)
from .errors import BayesVolterraError, checked
from .features import build_lagged_matrix
from .inference import FitConfig, identify
from .model import PriorConfig
from .persistence import load_manifest, load_model, save_model

TRACE_NAME = "trace.csv"


def _number(label, kind, minimum, strict=False):
    """Argument type for a finite `kind` (int or float) of at least
    `minimum`, or above it when `strict`: the text converted by `kind`,
    then checked by errors.checked."""
    noun = "an integer" if kind is int else "a number"

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{label} must be {noun}") from None
        try:
            return checked(label, value, kind, minimum, strict)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return parse


def _parse_priors(text):
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            "expected six comma-separated values: a0,b0,c0,d0,g0,h0"
        )
    try:
        a0, b0, c0, d0, g0, h0 = (float(p) for p in parts)
        return PriorConfig(
            noise_shape=a0, noise_rate=b0,
            col_shape=c0, col_rate=d0,
            row_shape=g0, row_rate=h0,
        )
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _parse_split(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "split must be a sample count or a fraction"
        ) from None
    if value.is_integer():
        if value < 1:
            raise argparse.ArgumentTypeError("split count must be at least 1")
        return int(value)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("fractional split must be in (0, 1)")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bayesvolterra",
        description="Bayesian identification of truncated Volterra systems "
        "with low-rank tensor kernel coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="fit a model to a u,y record")
    # the fit's defaults live in FitConfig alone
    fit = {f.name: f.default for f in dataclasses.fields(FitConfig)}
    p.add_argument("--data", required=True, type=Path, help="input CSV (header u,y)")
    p.add_argument("--order", required=True, type=_number("order", int, 1),
                   help="Volterra order D")
    p.add_argument("--memory", required=True, type=_number("memory", int, 1),
                   help="memory length M (the window adds a constant term)")
    p.add_argument("--rank", type=_number("rank", int, 1), default=fit["rank"],
                   help="initial CPD rank (default %(default)s)")
    p.add_argument("--max-iter", type=_number("max-iter", int, 1),
                   default=fit["max_iter"], help="sweep cap (default %(default)s)")
    p.add_argument("--tol", type=_number("tol", float, 0, strict=True),
                   default=fit["elbo_rel_tol"],
                   help="relative bound change declaring convergence "
                   "(default %(default)s)")
    p.add_argument("--truncate-tol", type=_number("truncate-tol", float, 0, strict=True),
                   default=fit["truncation_threshold"],
                   help="relative column-RMS truncation threshold (default %(default)s)")
    p.add_argument("--seed", type=_number("seed", int, 0), default=fit["seed"],
                   help="first seed of the random start (default %(default)s)")
    p.add_argument("--seeds", type=_number("seeds", int, 1), default=1,
                   help="run this many consecutive seeds and aggregate metrics")
    p.add_argument("--delta", choices=("on", "off"),
                   default="on" if fit["lag_sparsity"] else "off",
                   help="learn per-lag precisions (off fixes them at 1; "
                   "default %(default)s)")
    p.add_argument("--priors", type=_parse_priors, default=None,
                   metavar="a0,b0,c0,d0,g0,h0",
                   help="Gamma prior constants: noise, column, row pairs")
    p.add_argument("--split", type=_parse_split, default=None,
                   help="estimation size (count or fraction); metrics then "
                   "cover the remaining samples")
    p.add_argument("--skip-warmup", type=_number("skip-warmup", int, 0), default=0,
                   help="drop this many leading samples from the metrics")
    p.add_argument("--ordered-sums", action="store_true",
                   help="no effect, kept for old scripts: every fit is bitwise "
                   "reproducible at a fixed seed and BLAS thread count")
    p.add_argument("--out", type=Path, default=None,
                   help="model directory (best-bound seed when --seeds > 1)")
    p.add_argument("--metrics-out", type=Path, default=None,
                   help="write the metrics JSON here instead of stdout")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("predict", help="per-sample predictive distribution")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--data", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path,
                   help="output CSV: y_mean,y_scale,y_dof per input row")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a stored model on a record")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--data", required=True, type=Path)
    p.add_argument("--split", type=_parse_split, default=None,
                   help="skip this estimation prefix and score the remainder")
    p.add_argument("--skip-warmup", type=_number("skip-warmup", int, 0), default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="write the metrics JSON here instead of stdout")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="draw a synthetic record from a random system")
    p.add_argument("--order", required=True, type=_number("order", int, 1))
    p.add_argument("--memory", required=True, type=_number("memory", int, 1))
    p.add_argument("--rank", type=_number("rank", int, 1), default=2,
                   help="true CPD rank of the random system (default 2)")
    p.add_argument("--noise-std", type=_number("noise-std", float, 0), default=0.01,
                   help="output noise std; the clean output is scaled to std 1")
    p.add_argument("--n", type=_number("n", int, 1), default=2000)
    p.add_argument("--seed", type=_number("seed", int, 0), default=0)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="per-lag relevance profile of a model directory")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--delta-profile", required=True, type=Path,
                   help="write the per-lag relevance CSV (lag,e_delta,row_rms) here")
    p.set_defaults(func=_cmd_report)

    return parser


def _write_metrics(metrics, path):
    text = json.dumps(metrics, indent=2)
    if path is None:
        print(text)
    else:
        path.write_text(text + "\n")


def _write_trace(path, trace):
    write_csv(path, ["iter", "elbo", "rank", "e_tau", "wall_s"],
              [trace.iterations, trace.elbo, trace.rank, trace.noise_mean, trace.wall_s])


def _cmd_identify(args):
    dataset = load_csv(args.data)
    n = len(dataset)
    n_est = split_count(n, args.split) if args.split is not None else n
    u_est, y_est = dataset.u[:n_est], dataset.y[:n_est]
    record = compute_normalization(u_est, y_est)
    U_est = build_lagged_matrix(normalize_input(u_est, record), args.memory)
    y_model = standardize_output(y_est, record)
    priors = args.priors if args.priors is not None else PriorConfig()
    # without --split the estimation record is the whole record
    start = (n_est if args.split is not None else 0) + args.skip_warmup

    runs = []  # one row of scalars per seed
    best = None
    for seed in range(args.seed, args.seed + args.seeds):
        config = FitConfig(
            order=args.order,
            rank=args.rank,
            max_iter=args.max_iter,
            elbo_rel_tol=args.tol,
            truncation_threshold=args.truncate_tol,
            lag_sparsity=(args.delta == "on"),
            seed=seed,
        )
        started = time.perf_counter()
        state, trace = identify(U_est, y_model, config, priors=priors,
                                normalization=record)
        runtime = time.perf_counter() - started
        report = prediction.evaluate(state, dataset.u, dataset.y, start=start)
        runs.append({
            "seed": seed,
            "rmse": report.rmse,
            "nll": report.nll,
            "final_rank": state.rank,
            "elbo": trace.final_elbo,
            "runtime_s": runtime,
            "stop_reason": trace.stop_reason,
        })
        # only the best-ELBO fit outlives its iteration; a tie keeps the first
        if best is None or runs[-1]["elbo"] > best[2]["elbo"]:
            best = state, trace, runs[-1]
        del state, trace

    if args.out is not None:
        state, trace, row = best
        save_model(state, args.out, info=row)
        _write_trace(args.out / TRACE_NAME, trace)

    if len(runs) == 1:
        metrics = {key: runs[0][key] for key in
                   ("rmse", "nll", "final_rank", "elbo", "runtime_s", "seed",
                    "stop_reason")}
    else:
        metrics = {}
        for key in ("rmse", "nll", "elbo", "runtime_s"):
            values = np.array([run[key] for run in runs])
            metrics[key] = {"mean": float(values.mean()),
                            "std": float(values.std(ddof=1))}
        for key in ("final_rank", "seed", "stop_reason"):
            metrics[key] = [run[key] for run in runs]
    _write_metrics(metrics, args.metrics_out)
    return 0


def _cmd_predict(args):
    state = load_model(args.model)
    dataset = load_csv(args.data)
    locations, scales, dof = prediction.predict(state, dataset.u)
    write_csv(args.out, ["y_mean", "y_scale", "y_dof"], [locations, scales, float(dof)])
    return 0


def _cmd_evaluate(args):
    state = load_model(args.model)
    info = load_manifest(args.model).get("info", {})
    dataset = load_csv(args.data)
    start = split_count(len(dataset), args.split) if args.split is not None else 0
    report = prediction.evaluate(state, dataset.u, dataset.y,
                                 start=start + args.skip_warmup)
    metrics = {
        "rmse": report.rmse,
        "nll": report.nll,
        "final_rank": state.rank,
        "elbo": info.get("elbo"),
        "runtime_s": info.get("runtime_s"),
        "seed": info.get("seed"),
        "stop_reason": info.get("stop_reason"),
    }
    _write_metrics(metrics, args.out)
    return 0


def _cmd_simulate(args):
    rng = np.random.default_rng(args.seed)
    u = rng.uniform(0.0, 1.0, args.n)
    system = random_cpd_system(args.order, args.memory, args.rank, rng,
                               noise_std=args.noise_std)
    system = calibrate_components(system, u,
                                  component_std=1.0 / np.sqrt(args.rank))
    system = center_output(system, u)
    dataset = synthesize(system, u, rng=rng)
    save_csv(args.out, dataset)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def _cmd_report(args):
    state = load_model(args.model)
    e_delta = state.row_prec_means()
    stacked = np.stack([f.mean for f in state.factors])
    row_rms = np.sqrt((stacked**2).mean(axis=(0, 2)))
    # the constant window entry is reported as lag -1
    lags = np.arange(-1, state.window - 1)
    write_csv(args.delta_profile, ["lag", "e_delta", "row_rms"], [lags, e_delta, row_rms])
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BayesVolterraError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
