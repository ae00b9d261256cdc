"""The CLI runs OpenBLAS on one thread, and the thread count moves no byte.

Importing `learnpath.cli` writes OPENBLAS_NUM_THREADS=1 before numpy
loads, unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS
asks for another count, so OpenBLAS starts no second thread at all and
pool workers inherit the one. That variable is the only mechanism: a
process that loads numpy before `learnpath.cli` keeps OpenBLAS's own
count, `import learnpath` loads no numpy, and the library changes no
BLAS setting. Each case runs in a subprocess, because the variables act
on the whole process. Criterion 11 and the snapshot run 16 wide, where
OpenBLAS never splits a call, so the byte test here runs `paths` at 128
wide, where OpenBLAS splits each 300-row prediction over two threads
when two are allowed. Those bytes were compared at one and two threads,
on two CPUs; more threads are not covered.
"""

import inspect
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from learnpath.cli import _BLAS_THREAD_VARS

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_acceptance import TINY_CONFIGS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def openblas_threads():
    """The thread count of each OpenBLAS library loaded in this process,
    read through its get_num_threads (numpy's bundled one exports
    scipy_openblas_get_num_threads64_); empty under another BLAS or without
    /proc/self/maps. A mapped file that will not load (a program under an
    openblas directory, a deleted library) is passed over."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[-1].strip() for line in maps
                            if "openblas" in line})
    except OSError:
        return []
    symbols = [f"{p}openblas_get_num_threads{s}"
               for p in ("scipy_", "") for s in ("64_", "_64", "")]
    counts = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        counts += [getattr(lib, s)() for s in symbols if hasattr(lib, s)][:1]
    return counts


# the probe's source, for the scripts below: it loads no numpy, so they can
# run it before numpy loads
OPENBLAS_THREADS = "\n" + inspect.getsource(openblas_threads)

pytestmark = pytest.mark.skipif(not openblas_threads(),
                                reason="numpy does not use OpenBLAS")
START_METHODS = [m for m in ("fork", "forkserver", "spawn")
                 if m in multiprocessing.get_all_start_methods()]
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
two_cpus = pytest.mark.skipif(CPUS < 2, reason="OpenBLAS allows no more threads than CPUs")

# `paths` at 128 wide, and the TINY `distill` (run at --jobs 2)
CONFIGS = {"paths": ("n_samples = 600\nratios = 0.5,0.25,0.25\nmax_epochs = 3\n"
                     "hidden_sizes = 128,128\nquantiles = 0.1,0.9\n"),
           "distill": TINY_CONFIGS["distill"]}

# `probe.py cli ARGS...` runs the CLI, then prints this process's OpenBLAS
# thread counts; `probe.py METHOD` prints them in the workers of a
# two-worker dispatch under that multiprocessing start method. It imports
# learnpath.cli before anything loads numpy, as `python -m learnpath.cli` does.
PROBE = """
import json, multiprocessing, sys
from learnpath.cli import main
from learnpath import experiments
""" + OPENBLAS_THREADS + """
def threads(*_):
    return openblas_threads()

if __name__ == "__main__":
    mode, *args = sys.argv[1:]
    if mode == "cli":
        main(args)
        print(json.dumps({"main": threads()}))
    else:
        multiprocessing.set_start_method(mode)
        workers = experiments._dispatch(threads, None, [0, 1], 2)
        print(json.dumps({"main": threads(), "workers": workers}))
"""


def _env(threads=None):
    """This environment with src importable and no BLAS thread variable,
    or with OPENBLAS_NUM_THREADS=threads."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def _probe(tmp_path, args, threads=None):
    script = tmp_path / "probe.py"
    script.write_text(PROBE)
    proc = subprocess.run([sys.executable, str(script), *args], env=_env(threads),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_args(tmp_path, command, text, out):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    return [command, "--config", str(cfg), "--out", str(out)]


class TestThreadCount:
    def test_cli_runs_blas_on_one_thread(self, tmp_path):
        got = _probe(tmp_path, ["cli", *_cli_args(tmp_path, "distill",
                                                  CONFIGS["distill"], tmp_path / "o")])
        assert got["main"] and set(got["main"]) == {1}

    @pytest.mark.parametrize("method", START_METHODS)
    def test_pool_workers_run_blas_on_one_thread(self, tmp_path, method):
        got = _probe(tmp_path, [method])
        assert [set(w) for w in got["workers"]] == [{1}, {1}]

    @two_cpus
    def test_a_thread_variable_wins(self, tmp_path):
        got = _probe(tmp_path, ["cli", *_cli_args(tmp_path, "distill",
                                                  CONFIGS["distill"], tmp_path / "o")],
                     threads=2)
        assert got["main"] and set(got["main"]) == {2}
        got = _probe(tmp_path, ["spawn"], threads=2)
        assert [set(w) for w in got["workers"]] == [{2}, {2}]


def _fresh(code, *args):
    """Run code in a fresh python with no BLAS thread variable; the JSON of
    its last line of output."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# this process's OS threads and OpenBLAS thread counts, as JSON
THREADS = OPENBLAS_THREADS + """
import json, os
print(json.dumps({"tasks": len(os.listdir("/proc/self/task")),
                  "blas": openblas_threads()}))
"""


class TestBeforeNumpyLoads:
    """learnpath.cli sets the one-thread default before numpy loads, so
    OpenBLAS starts no second thread; the package root loads no numpy."""

    def test_importing_the_package_loads_no_numpy(self):
        assert _fresh("import json, sys, learnpath\n"
                      "print(json.dumps('numpy' in sys.modules))") is False

    @two_cpus
    def test_the_cli_starts_openblas_on_one_thread(self):
        got = _fresh("import learnpath.cli, numpy\n" + THREADS)
        assert got["tasks"] == 1 and got["blas"] and set(got["blas"]) == {1}
        got = _fresh("import numpy\n" + THREADS)  # without the CLI
        assert got["tasks"] > 1 and set(got["blas"]) == {2}

    def test_the_library_example_changes_no_blas_setting(self):
        readme = os.path.join(ROOT, "README.md")
        got = _fresh(OPENBLAS_THREADS + """
import json, os, re, sys
import numpy

def state():
    return dict(os.environ), openblas_threads()

before = state()
with open(sys.argv[1]) as fh:
    example, = re.findall(r"```python\\n(.*?)```", fh.read(), flags=re.S)
exec(compile(example, "README.md", "exec"), {})
print(json.dumps([before, state()]))
""", readme)
        assert got[0] == got[1] and got[0][1]


class TestOneMechanism:
    """The variable is the only thread setting: nothing in learnpath sets
    a count on an OpenBLAS that is already loaded."""

    @two_cpus
    def test_numpy_loaded_before_the_cli_keeps_openblas_own_count(self, tmp_path):
        """Too late for the variable, as in the benchmark's traced runs."""
        args = _cli_args(tmp_path, "distill", CONFIGS["distill"], tmp_path / "o")
        got = _fresh("import sys, numpy\nfrom learnpath.cli import main\n"
                     "assert main(sys.argv[1:]) == 0\n" + THREADS, *args)
        assert set(got["blas"]) == {2}

    @two_cpus
    def test_the_test_process_runs_openblas_on_one_thread(self):
        """conftest sets the variable before numpy loads; a plugin that
        loaded numpy first would leave OpenBLAS at its own count."""
        assert set(openblas_threads()) == {1}


@two_cpus
@pytest.mark.parametrize("command,jobs", [("paths", "1"), ("distill", "2")])
def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, command, jobs):
    outs = {}
    for threads in (None, 2):
        outs[threads] = tmp_path / f"threads-{threads}"
        args = _cli_args(tmp_path, command, CONFIGS[command], outs[threads]) + ["--jobs", jobs]
        proc = subprocess.run([sys.executable, "-m", "learnpath.cli", *args],
                              env=_env(threads), capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
    one, two = outs[None], outs[2]
    names = sorted(os.listdir(one))
    assert names == sorted(os.listdir(two))
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
