"""Peak RSS of the CLI in two source trees, as interleaved A/B rounds.

    python tests/peak_rss.py SRC_A SRC_B [--rounds N]

SRC_A and SRC_B are the src/ directories of two learnpath checkouts, say
the parent's and this one's. Each round runs every case in both trees,
each in a fresh CLI process, A first in even rounds and B first in odd
ones:

  distill-sweep, paths-wide, ntk-verify   the benchmark's workloads, with
                                          the configs of
                                          perfbench/workloads.py at
                                          benchmark seed 0
  paths, gen-data                         the two commands at their defaults

A case's peak is the ru_maxrss of its CLI process, which covers the pool
workers it reaped, read by perfbench/run.py's own timed_run. For each
case it prints the median MB of A and B, in how many rounds B was lower,
and whether the two trees wrote the same bytes in every round. pytest
does not collect this file (it is not test_*.py).
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.run import WORKLOADS, _digests, timed_run  # noqa: E402


def cases() -> dict:
    """name -> (command, config text, extra CLI arguments)."""
    out = {}
    for name, wl in WORKLOADS.items():
        seed, config = wl.inputs(0)
        out[name] = (wl.command, wl.config_text(config),
                     ["--seed", str(seed), "--jobs", str(wl.jobs)])
    for command in ("paths", "gen-data"):
        out[command] = (command, "", [])
    return out


def run_case(src: str, command: str, text: str, args: list) -> tuple:
    """(peak RSS in MB, digest of each output file) of one CLI run."""
    work = tempfile.mkdtemp(prefix="peak_rss-")
    try:
        cfg, out = os.path.join(work, "case.cfg"), os.path.join(work, "out")
        with open(cfg, "w") as fh:
            fh.write(text)
        argv = [sys.executable, "-m", "learnpath.cli", command, "--config", cfg,
                "--out", out, *args]
        log = os.path.join(work, "log.txt")
        res = timed_run(argv, dict(os.environ, PYTHONPATH=src), log)
        if res.rc not in (0, 2):  # 2: a check failed, an output like any other
            with open(log, errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
            raise SystemExit(f"{src}: learnpath {command} exited {res.rc}")
        return res.peak_rss_mb, _digests(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs=2, help="SRC_A SRC_B")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    src_a, src_b = (os.path.abspath(s) for s in args.src)
    todo = cases()
    rounds = []
    for i in range(args.rounds):
        got = {}
        for name, case in todo.items():
            order = (src_a, src_b) if i % 2 == 0 else (src_b, src_a)
            for src in order:
                got[name, src] = run_case(src, *case)
        rounds.append({name: (got[name, src_a], got[name, src_b]) for name in todo})
        print(f"round {i}: " + "  ".join(
            f"{name} {a[0]:.2f}/{b[0]:.2f}" for name, (a, b) in rounds[-1].items()),
            flush=True)
    print(f"{'case':<15}{'A MB':>9}{'B MB':>9}  B lower  same bytes")
    for name in todo:
        pairs = [r[name] for r in rounds]
        wins = sum(b[0] < a[0] for a, b in pairs)
        same = all(a[1] == b[1] for a, b in pairs)
        print(f"{name:<15}{statistics.median(a[0] for a, _ in pairs):>9.2f}"
              f"{statistics.median(b[0] for _, b in pairs):>9.2f}"
              f"  {wins:>3}/{len(pairs):<4}  {'yes' if same else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
