"""Peak RSS and CPU time of the CLI in two source trees, as interleaved
A/B rounds.

    python tests/peak_rss.py SRC_A SRC_B [--rounds N]

SRC_A and SRC_B are the src/ directories of two learnpath checkouts, say
the parent's and this one's. Each round runs every case in both trees,
each in a fresh CLI process, A first in even rounds and B first in odd
ones:

  distill-sweep, paths-wide, ntk-verify   the benchmark's workloads, with
                                          the configs of
                                          perfbench/workloads.py at
                                          benchmark seed 0
  paths, gen-data, recovery               the three commands at their
                                          defaults
  correlate-j1, correlate-j2              correlate at its defaults, at
                                          --jobs 1 and 2
  distill                                 distill at its defaults, --jobs 1,
                                          where what the Filter-KD teachers
                                          hold shows

A case's peak is the ru_maxrss of its CLI process, which covers the pool
workers it reaped, read by perfbench/run.py's own timed_run. For each
case it prints the median MB of A and B, in how many rounds B was lower,
and whether the two trees wrote the same bytes in every round. A second
table gives each case's median wall_s, cpu_s and cpu_s - wall_s: a
process with one compute thread whose CPU time runs well past its wall
time has a thread spinning beside it, such as an OpenBLAS worker started
at import.
pytest does not collect this file (it is not test_*.py).
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
    for command in ("paths", "gen-data", "recovery"):
        out[command] = (command, "", [])
    for jobs in (1, 2):
        out[f"correlate-j{jobs}"] = ("correlate", "", ["--jobs", str(jobs)])
    out["distill"] = ("distill", "", ["--jobs", "1"])
    return out


def run_case(src: str, command: str, text: str, args: list) -> tuple:
    """(timed_run's ProcResult, digest of each output file) of one CLI run."""
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
        return res, _digests(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _medians(pairs, metric, fmt: str) -> str:
    """Median metric of A and of B over the (A, B) run pairs, and in how
    many pairs B was lower."""
    a, b = ([metric(run[side][0]) for run in pairs] for side in (0, 1))
    lower = sum(y < x for x, y in zip(a, b))
    return (f"{statistics.median(a):>{fmt}}{statistics.median(b):>{fmt}}"
            f"  {lower:>3}/{len(pairs):<4}")


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
            f"{name} {a[0].peak_rss_mb:.2f}/{b[0].peak_rss_mb:.2f}"
            for name, (a, b) in rounds[-1].items()),
            flush=True)
    print(f"{'case':<15}{'A MB':>9}{'B MB':>9}  B lower  same bytes")
    for name in todo:
        pairs = [r[name] for r in rounds]
        same = all(a[1] == b[1] for a, b in pairs)
        print(f"{name:<15}{_medians(pairs, lambda r: r.peak_rss_mb, '9.2f')}"
              f"  {'yes' if same else 'NO'}")
    print(f"{'case':<15}{'A wall_s':>9}{'B wall_s':>9}  B lower "
          f"{'A cpu_s':>9}{'B cpu_s':>9}  B lower "
          f"{'A cpu-wall':>11}{'B cpu-wall':>11}  B lower")
    for name in todo:
        pairs = [r[name] for r in rounds]
        print(f"{name:<15}{_medians(pairs, lambda r: r.wall_s, '9.3f')}"
              f"{_medians(pairs, lambda r: r.cpu_s, '9.3f')}"
              f"{_medians(pairs, lambda r: r.cpu_s - r.wall_s, '11.3f')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
