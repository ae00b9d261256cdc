"""Write the standing set: the CLI outputs a refactor must leave byte-identical.

    python tests/standing_set.py OUT_DIR

runs, with the learnpath under this checkout's src/:

  tiny-j1/<command>, tiny-j2/<command>   every command at its TINY config
                                         (criterion 11) at --jobs 1 and 2
  divergence/<command>                   both TestTeacherDivergence configs
  workload/<name>                        the benchmark's three workloads at
                                         benchmark seed 0

Run it in two checkouts, say this one and one of the parent commit, and
compare with `diff -r`: an empty diff means every artifact is
byte-identical. pytest does not collect this file (it is not test_*.py).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), ROOT]

from learnpath.cli import main  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from test_acceptance import TINY_CONFIGS  # noqa: E402
from test_cli import TestTeacherDivergence  # noqa: E402


def _run(out_root, name, command, text, *args):
    out = os.path.join(out_root, name)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    cfg = out + ".cfg"
    with open(cfg, "w") as fh:
        fh.write(text)
    if main([command, "--config", cfg, "--out", out, *args]) != 0:
        raise SystemExit(f"{name}: learnpath {command} failed")
    os.remove(cfg)


def write_standing_set(out_root):
    for jobs in (1, 2):
        for command, text in sorted(TINY_CONFIGS.items()):
            _run(out_root, f"tiny-j{jobs}/{command}", command, text, "--jobs", str(jobs))
    divergence = {"distill": TestTeacherDivergence.DISTILL,
                  "correlate": TestTeacherDivergence.CORRELATE}
    for command, text in divergence.items():
        _run(out_root, f"divergence/{command}", command, text)
    for name, wl in sorted(WORKLOADS.items()):
        seed, config = wl.inputs(0)
        _run(out_root, f"workload/{name}", wl.command, wl.config_text(config),
             "--seed", str(seed), "--jobs", str(wl.jobs))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    write_standing_set(sys.argv[1])
