"""Benchmark entry point: runs one workload in a fresh child process.

    python3 bench/run.py --workload paper_shape --seed 1 --seconds 20 --trace 0

The child (bench/workloads.py) starts with every BLAS thread count pinned
to 1 through its environment, so the setting is in force before numpy
loads. For an untraced run two set-up-only children run first. This
launcher imports nothing numeric; it waits for each child, relays the
last standard-output line of the measuring child (the JSON result) and
exits with 0, or with 1 and no result if any child fails. Workload names
and metrics are listed in BENCHMARK.json.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper_shape", "long_record", "cli_pipeline")
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# a run must end within 180 s; leave room for start-up and the relay
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 records spans and reports the per-layer metrics")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    child = Path(__file__).resolve().parent / "workloads.py"
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    def spawn(*extra):
        command = [
            sys.executable, str(child),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
            # CLOCK_MONOTONIC is shared by all processes, so the child can
            # measure its set-up time from this instant
            "--spawned-at", repr(time.monotonic()),
            *extra,
        ]
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload process exited with code {proc.returncode}")
        return lines[-1]

    try:
        # set-up is mostly imports, which vary from process to process, so
        # the untraced run reports the median over three processes
        probes = [] if args.trace else [spawn("--setup-only") for _ in range(SETUP_PROBES)]
        result = spawn("--setup-probes", *probes)
    except subprocess.TimeoutExpired:
        print(f"{args.workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(f"{args.workload}: {err}", file=sys.stderr)
        return 1
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
