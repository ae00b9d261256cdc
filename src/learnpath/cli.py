"""Command line entry point.

    learnpath <command> [--config FILE] [--out DIR] [--seed N] [--jobs N]

Every command runs entirely from its built-in defaults when no config
file is given. Exit codes: 0 on success, 1 on a configuration problem
or when a single-run command's model diverged (its summary.txt then
holds an `error = ...` line; sweeps record a diverged run as a failed
row instead), 2 when the command ran but a verification check failed.

--jobs spreads a sweep's tasks over worker processes: distill runs one
task per flip ratio, correlate two in all, and a command with one task
starts no pool. The tasks, and so every artifact, do not depend on
--jobs. Each command, and each --jobs worker, runs BLAS on one thread:
its hot calls are too small to split. The default is set before numpy
loads, so OpenBLAS starts no second thread to spin: importing this
module writes OPENBLAS_NUM_THREADS=1 into os.environ when none of
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS is set. Pool
workers keep it: a forked one inherits the parent's OpenBLAS, a
forkserver or spawn one the variable. Setting one of those variables to
another count leaves OpenBLAS at it, and so does loading numpy before
this module (the benchmark's traced runs do): main() sets no thread
count itself. Importing learnpath itself changes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys

# the variables OpenBLAS reads its own thread count from, in its order
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if not any(os.environ.get(v) for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads

from learnpath.config import ConfigError, load_config  # noqa: E402
from learnpath.experiments import RUNNERS, _write_summary  # noqa: E402
from learnpath.supervision import DivergenceError  # noqa: E402

_STRICT = {"ntk-verify"}  # failed checks flip the exit code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="learnpath",
        description="Training-path experiments on a synthetic Gaussian task.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "gen-data": "sample, split, and optionally corrupt a dataset",
        "correlate": "supervision gap vs accuracy/calibration sweep",
        "paths": "record per-sample learning paths for a one-hot run",
        "distance-gap": "distance to p* vs distance to target by stage",
        "recovery": "flipped-label recovery curve for a filtered teacher",
        "distill": "student accuracy under competing supervision tables",
        "ntk-verify": "numerical checks of the SGD update decomposition",
        "zigzag": "path oscillation scores vs sample difficulty",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="key = value overrides (defaults used if omitted)")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: out/<command>)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed override")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sweeps: distill spreads its "
                            "flip ratios, correlate its baselines and noisy runs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out or os.path.join("out", args.command)
    try:
        cfg = load_config(args.command, path=args.config, seed=args.seed)
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create --out {out_dir}: {err}") from err
        checks = RUNNERS[args.command](cfg, out_dir, jobs=args.jobs)
    except (ConfigError, DivergenceError) as err:
        message = " ".join(str(err).split())  # one line: an array repr wraps
        if isinstance(err, DivergenceError):
            # the runner had not written its summary: mark --out as failed
            _write_summary(out_dir, cfg, [f"error = {message}"], [])
        print(f"error: {message}", file=sys.stderr)
        return 1
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})")
    print(f"wrote {out_dir}")
    if failed and args.command in _STRICT:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
