"""learnpath benchmark: run one CLI workload end to end and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a learnpath checkout (the directory holding src/).
Every run of the CLI is a subprocess of this single process; with --jobs 2
the CLI starts two pool workers of its own, so at most two workers run.
workloads.py maps the seed to the CLI's --seed and config.

--trace 0: one traced warm-up run whose artifacts become the session's
reference and whose trace gives the exact SGD step count, then untraced
runs, each after one set-up probe, until S seconds are spent (and at
least SETUP_REPEATS probes). Reports the median over the window of
wall_s, setup_s, cpu_s and peak_rss_mb, and steps_per_s at the median
wall_s. Every wall time (wall_s, setup_s) is start to exit less the time
the hypervisor took this machine's CPUs away meanwhile (ProcResult.wall_s).
On a shared host the fastest run is a rare quiet moment, so the minimum
spreads more from window to window than the median does.

--trace 1: one untraced warm-up run (the reference), then traced and
untraced runs in turn until S seconds are spent. Reports the median of
every per-layer metric over the traced runs plus the tracing overhead
(median traced minus median untraced wall time).

Every run passes the correctness gate or counts as failed: exit code 0,
every expected artifact present with the expected row count, no diverged
runs in any `# diverged_runs` header, and every artifact byte-identical
to the session's first run. The commands' own `check` lines are not
gated: exit code 2 (a check printed FAIL; only ntk-verify does so)
passes when summary.txt shows that FAIL line. The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
CLI_TIMEOUT_S = 150.0
TOTAL_BUDGET_S = 160.0  # stop starting runs once the next could pass this
WORK_DIR = ".perfbench_work"
CHECK_FAIL_EXIT = 2  # the CLI's exit code when one of its checks printed FAIL
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
# metric name -> unit, in BENCHMARK.json's order, which is the report order
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


@dataclass
class ProcResult:
    rc: int
    elapsed_s: float  # start to exit
    steal_s: float    # of that, time the hypervisor held our CPUs (stolen_s)
    cpu_s: float      # user + sys of the process and its reaped children
    peak_rss_mb: float  # largest RSS among the process and its reaped children

    @property
    def wall_s(self) -> float:
        """Start to exit, less the time the hypervisor took the CPUs away.

        On a shared host that time comes and goes for minutes at a time and
        is not the program's; the kernel leaves it out of cpu_s likewise.
        Where nothing is stolen this is the elapsed time.
        """
        return self.elapsed_s - self.steal_s


def stolen_s() -> float:
    """Steal time so far of the CPUs this process may run on, averaged.

    A virtual CPU's steal time (/proc/stat) is time it was ready to run but
    the hypervisor ran something else. 0 where /proc/stat is unreadable.
    """
    cpus = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat") as fh:
            ticks = [int(ln.split()[8]) for ln in fh if ln.split(None, 1)[0] in cpus]
    except (OSError, IndexError, ValueError):
        return 0.0
    return sum(ticks) / len(ticks) / os.sysconf("SC_CLK_TCK") if ticks else 0.0


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def timed_run(argv, env, log_path, timeout=CLI_TIMEOUT_S) -> ProcResult:
    """Run argv to completion; times, CPU time and peak RSS via wait4.

    The child leads its own process group, so a timeout kills its pool
    workers too.
    """
    with open(log_path, "wb") as log:
        steal0 = stolen_s()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        elapsed = time.perf_counter() - t0
        steal = stolen_s() - steal0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(proc.returncode, elapsed, min(steal, elapsed),
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _data_rows(path) -> int:
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    return max(len(lines) - 1, 0)  # minus the column header


def _diverged_counts(path) -> list:
    with open(path) as fh:
        return [int(ln.split("=", 1)[1]) for ln in fh
                if ln.startswith("# diverged_runs = ")]


def _failed_checks(out_dir) -> list:
    path = os.path.join(out_dir, "summary.txt")
    if not os.path.isfile(path):
        return []
    with open(path) as fh:
        return [ln.strip() for ln in fh if ln.startswith("check ") and ": FAIL" in ln]


def _digests(out_dir) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Session:
    """The runs of one workload at one seed, sharing a reference output."""

    def __init__(self, root: str, workload, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.cli_seed, self.config = workload.inputs(seed)
        self.work = os.path.join(root, WORK_DIR, f"{workload.name}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)  # left by a killed run
        os.makedirs(self.work)
        self.config_path = os.path.join(self.work, f"{workload.name}.cfg")
        with open(self.config_path, "w") as fh:
            fh.write(workload.config_text(self.config))
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.reference = None
        self.runs = 0  # CLI runs so far; numbers their output directories
        self.attempted = self.failed = 0  # CLI runs and set-up probes
        self.failed_checks = []  # the command's own check lines, not gated
        self.problems = []
        self.started = time.perf_counter()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(self.root, WORK_DIR))
        except OSError:
            pass  # another session still uses it

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def probe_setup(self) -> ProcResult:
        """One set-up probe process."""
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                self.workload.command, self.config_path, str(self.cli_seed)]
        res = timed_run(argv, self.env, os.path.join(self.work, "probe.log"))
        self.attempted += 1
        if res.rc != 0:
            self._fail(f"setup probe exit code {res.rc}")
        return res

    def run_cli(self, traced: bool):
        """One CLI run, gated; returns (ProcResult, trace dir or None)."""
        i = self.runs
        self.runs += 1
        self.attempted += 1
        out = os.path.join(self.work, f"out-{i}")
        wl = self.workload
        cli_args = [wl.command, "--config", self.config_path, "--out", out,
                    "--seed", str(self.cli_seed), "--jobs", str(wl.jobs)]
        trace_dir = None
        if traced:
            trace_dir = os.path.join(self.work, f"trace-{i}")
            os.makedirs(trace_dir)
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_dir,
                    f"{wl.name}-{self.seed}-{i}", *cli_args]
        else:
            argv = [sys.executable, "-m", "learnpath.cli", *cli_args]
        log = os.path.join(self.work, f"log-{i}.txt")
        res = timed_run(argv, self.env, log)
        problems = self.check(out, res.rc)
        if problems:
            self._fail(f"run {i} ({'traced' if traced else 'untraced'}): "
                       + "; ".join(problems))
            with open(log, errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        shutil.rmtree(out, ignore_errors=True)
        return res, trace_dir

    def check(self, out: str, rc: int) -> list:
        if not os.path.isdir(out):
            return [f"exit code {rc}", "no output directory"]
        failed_checks = _failed_checks(out)
        if failed_checks:
            self.failed_checks = failed_checks
        problems = []
        if not (rc == 0 or (rc == CHECK_FAIL_EXIT and failed_checks)):
            problems.append(f"exit code {rc}")
        for name, rows in self.workload.expected_rows().items():
            path = os.path.join(out, name)
            if not os.path.isfile(path):
                problems.append(f"{name} missing")
            elif rows is not None and _data_rows(path) != rows:
                problems.append(f"{name}: {_data_rows(path)} rows, want {rows}")
        for name in sorted(os.listdir(out)):
            if any(_diverged_counts(os.path.join(out, name))):
                problems.append(f"{name}: diverged runs")
        digests = _digests(out)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            differ = sorted(set(digests) ^ set(self.reference)
                            | {n for n in digests if digests[n] != self.reference.get(n)})
            problems.append(f"artifacts differ from the first run: {differ}")
        return problems

    def time_left(self, seconds: float, t_measure: float, last_elapsed: float) -> bool:
        """Whether another run, as long as the last, still ends in time."""
        now = time.perf_counter()
        return (now - t_measure + last_elapsed <= seconds
                and now - self.started + 1.5 * last_elapsed < TOTAL_BUDGET_S)


def trace_layers(trace_dir: str) -> dict:
    spans, leaves = layers.load(trace_dir)
    shutil.rmtree(trace_dir, ignore_errors=True)
    return layers.layer_metrics(spans, leaves)


def measure_end_to_end(sess: Session, seconds: float):
    _, trace_dir = sess.run_cli(traced=True)  # warm-up and reference
    steps = trace_layers(trace_dir)["supervision.steps"]
    # one set-up probe before each timed run spreads the probes over the
    # window, so both see the same machine
    setup, runs = [], []
    t_measure = time.perf_counter()
    while True:
        setup.append(sess.probe_setup())
        runs.append(sess.run_cli(traced=False)[0])
        if not sess.time_left(seconds, t_measure,
                              setup[-1].elapsed_s + runs[-1].elapsed_s):
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(sess.probe_setup())
    wall = statistics.median(r.wall_s for r in runs)
    metrics = {
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "setup_s": statistics.median(r.wall_s for r in setup),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    print(f"# timed runs = {len(runs)}, setup probes = {len(setup)}, "
          f"sgd steps per run = {steps}")
    print(f"# elapsed_s per run = {[round(r.elapsed_s, 4) for r in runs]}")
    print(f"# steal_s per run = {[round(r.steal_s, 4) for r in runs]}")
    print(f"# cpu_s per run = {[round(r.cpu_s, 4) for r in runs]}")
    print(f"# setup_s per probe = {[round(r.wall_s, 4) for r in setup]}")
    return {k: metrics[k] for k in END_TO_END_UNITS}, END_TO_END_UNITS


def measure_layers(sess: Session, seconds: float):
    sess.run_cli(traced=False)  # warm-up and reference
    traced, untraced, per_run = [], [], []
    t_measure = time.perf_counter()
    while True:
        res, trace_dir = sess.run_cli(traced=True)
        traced.append(res)
        per_run.append(trace_layers(trace_dir))
        untraced.append(sess.run_cli(traced=False)[0])
        if not sess.time_left(seconds, t_measure,
                              traced[-1].elapsed_s + untraced[-1].elapsed_s):
            break
    metrics = {k: statistics.median(d[k] for d in per_run) for k in per_run[0]}
    t_wall = statistics.median(r.wall_s for r in traced)
    u_wall = statistics.median(r.wall_s for r in untraced)
    metrics["trace.wall_s"] = t_wall
    metrics["trace.untraced_wall_s"] = u_wall
    metrics["trace.overhead_s"] = t_wall - u_wall
    metrics["trace.overhead_frac"] = (t_wall - u_wall) / u_wall
    print(f"# traced runs = {len(traced)}, untraced runs = {len(untraced)}")
    return {k: metrics[k] for k in PER_LAYER_UNITS}, PER_LAYER_UNITS


def machine() -> dict:
    """What the numbers depend on besides the code."""
    import platform

    import numpy

    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": "unknown",
            "blas_thread_vars": {v: os.environ[v] for v in BLAS_THREAD_VARS
                                 if v in os.environ}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = " ".join(str(blas.get(k, "")) for k in
                                ("name", "version", "openblas configuration")).strip()
    except (TypeError, KeyError, ValueError):
        pass
    return info


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through timed_run, which kills the CLI


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "learnpath", "cli.py")):
        print(f"error: {root} is not a learnpath checkout (no src/learnpath)",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    sess = Session(root, wl, args.seed)
    try:
        print(f"# workload {wl.name}: learnpath {wl.command} --jobs {wl.jobs} "
              f"--seed {sess.cli_seed}; config {json.dumps(sess.config)}")
        print(f"# why: {WHY[wl.name]}")
        print(f"# machine {json.dumps(machine())}")
        if args.trace:
            metrics, units = measure_layers(sess, args.seconds)
        else:
            metrics, units = measure_end_to_end(sess, args.seconds)
    finally:
        sess.close()
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_frac = {sess.failed / sess.attempted:.6g} "
          f"({sess.failed} failed / {sess.attempted} attempted)")
    for line in sess.failed_checks:
        print(f"# the command's own {line} (informational, not gated)")
    for problem in sess.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": sess.failed == 0,
        "attempted": sess.attempted,
        "failed": sess.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
