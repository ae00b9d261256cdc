"""Write the standing set: the CLI outputs a refactor must leave byte-identical.

    python tests/standing_set.py OUT_DIR
    python tests/standing_set.py --compare PARENT_DIR CHANGE_DIR

runs, with the learnpath under this checkout's src/:

  tiny-j1/<command>, tiny-j2/<command>   every command at its TINY config
                                         (criterion 11) at --jobs 1 and 2
  tiny-j1/correlate-multi, tiny-j2/...   correlate's TINY config at two
                                         baseline seeds and two noise
                                         repeats, so that row order across
                                         seeds and repeats is compared
  divergence/<command>                   both TestTeacherDivergence configs,
                                         and recovery's config of
                                         TestSingleRunDivergence, whose
                                         teacher diverges and exits 1
  workload/<name>                        the benchmark's three workloads at
                                         benchmark seed 0
  wide-k5/gen-data, wide-k5/paths        gen-data's and paths' TINY configs
                                         at num_classes = 5, input_dim = 7,
                                         so dataset.csv and paths.csv are
                                         compared at other column counts
  default/ntk-verify-seed3               ntk-verify at its defaults, --seed 3,
                                         where a check fails and the CLI
                                         exits 2, so the failing verdict is
                                         compared too
  default/gen-data                       gen-data at its defaults: every x
                                         and p* row of 10 000 at %.17g, so
                                         the row blocks p* is built in are
                                         compared bit for bit

Run it in two checkouts, say this one and one of the parent commit, and
compare with `diff -r`: an empty diff means every artifact is
byte-identical. A change that moves floats in their last digits compares
with --compare instead, which takes any two output trees: for each file
that differs it prints the largest relative difference between its
numbers, read field by field as tests/test_snapshot.py does, and it
exits 1 if any file differs in text, in an integer, in its line count,
or is missing from one side. pytest does not collect this file (it is
not test_*.py).
"""

from __future__ import annotations

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), ROOT]

from learnpath.cli import main  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from test_acceptance import TINY_CONFIGS  # noqa: E402
from test_cli import (CORRELATE_MULTI, TestSingleRunDivergence,  # noqa: E402
                      TestTeacherDivergence)
from test_snapshot import _INT, _NUMBER  # noqa: E402


def _run(out_root, name, command, text, *args, exits=0):
    out = os.path.join(out_root, name)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    cfg = out + ".cfg"
    with open(cfg, "w") as fh:
        fh.write(text)
    status = main([command, "--config", cfg, "--out", out, *args])
    os.remove(cfg)
    if status == 2:  # a failed check, which is output like any other
        with open(os.path.join(out, "summary.txt")) as fh:
            if any(line.startswith("check ") and ": FAIL (" in line for line in fh):
                return
    if status != exits:
        raise SystemExit(f"{name}: learnpath {command} exited {status}, want {exits}")


def write_standing_set(out_root):
    for jobs in (1, 2):
        for command, text in sorted(TINY_CONFIGS.items()):
            _run(out_root, f"tiny-j{jobs}/{command}", command, text, "--jobs", str(jobs))
        _run(out_root, f"tiny-j{jobs}/correlate-multi", "correlate", CORRELATE_MULTI,
             "--jobs", str(jobs))
    divergence = {"distill": TestTeacherDivergence.DISTILL,
                  "correlate": TestTeacherDivergence.CORRELATE}
    for command, text in divergence.items():
        _run(out_root, f"divergence/{command}", command, text)
    _run(out_root, "divergence/recovery", "recovery",
         TestSingleRunDivergence.RECOVERY + "max_epochs = 3\n", exits=1)
    for name, wl in sorted(WORKLOADS.items()):
        seed, config = wl.inputs(0)
        _run(out_root, f"workload/{name}", wl.command, wl.config_text(config),
             "--seed", str(seed), "--jobs", str(wl.jobs))
    for command in ("gen-data", "paths"):
        _run(out_root, f"wide-k5/{command}", command,
             TINY_CONFIGS[command] + "num_classes = 5\ninput_dim = 7\n")
    _run(out_root, "default/ntk-verify-seed3", "ntk-verify", "", "--seed", "3")
    _run(out_root, "default/gen-data", "gen-data", "")


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _drift(want: str, got: str):
    """Largest relative difference between the numbers of two texts, or
    None if they differ in text, in an integer or in their line count."""
    a, b = want.splitlines(), got.splitlines()
    if len(a) != len(b):
        return None
    worst = 0.0
    for line_a, line_b in zip(a, b):
        fa, fb = _NUMBER.split(line_a), _NUMBER.split(line_b)
        if len(fa) != len(fb):
            return None
        # re.split with one group alternates text, number, text, ...
        for j, (x, y) in enumerate(zip(fa, fb)):
            if x == y:
                continue
            if j % 2 == 0 or (_INT.fullmatch(x) and _INT.fullmatch(y)):
                return None
            u, v = float(x), float(y)
            if not (math.isfinite(u) and math.isfinite(v)):
                return None
            if u != v:
                worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
    return worst


def compare(parent_root, change_root) -> int:
    """Print how each file of change_root differs from parent_root's;
    1 if any differs in more than the digits of its floats."""
    parent, change = _files(parent_root), _files(change_root)
    status, same = 0, 0
    for name in sorted(parent ^ change):
        print(f"{name}: only in {parent_root if name in parent else change_root}")
        status = 1
    for name in sorted(parent & change):
        with open(os.path.join(parent_root, name)) as fa, \
                open(os.path.join(change_root, name)) as fb:
            want, got = fa.read(), fb.read()
        if want == got:
            same += 1
            continue
        worst = _drift(want, got)
        if worst is None:
            print(f"{name}: differs in text, an integer or its line count")
            status = 1
        else:
            print(f"{name}: largest relative difference {worst:.3g}")
    print(f"{same} of {len(parent & change)} shared files are byte-identical")
    return status


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        raise SystemExit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    write_standing_set(sys.argv[1])
