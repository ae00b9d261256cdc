"""Per-visit cost of the SGD loop in two source trees, as interleaved A/B rounds.

    python tests/visit_cost.py SRC_A SRC_B [--rounds N]

SRC_A and SRC_B are the src/ directories of two learnpath checkouts, say
the parent's and this one's. Each round runs both trees, each in a fresh
subprocess with OpenBLAS on one thread, A first in even rounds and B first
in odd ones. A subprocess times every case five times and keeps the least
process CPU time, divided by the visits of one run (epochs x train rows):

  w32-R1, w32-R6, w32-R24   3 epochs of one train_stack at hidden
                            (32, 32, 32) with R = 1, 6 and 24 students
  w128-R1-paths             3 epochs of one student at (128, 128, 128)
                            with its path recorded by a PathStore sink
  teachers-R5               3 epochs of train_filterkd_teachers at hidden
                            (32, 32, 32) on 5 cells, each its own seed and
                            20 % of its train labels flipped, at distill's
                            six default alphas

The per-epoch evaluation is included; the valid split is small. For each
case it prints the median microseconds per visit of A and B, in how many
rounds B was cheaper, and a hash of every final parameter of the case's
runs (and of the teachers' tables), so a change that moves a single bit
shows as two hashes. pytest does
not collect this file (it is not test_*.py).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import statistics
import subprocess
import sys
import time

CASES = {  # name -> (hidden sizes, runs, what they are)
    "w32-R1": ((32, 32, 32), 1, "students"),
    "w32-R6": ((32, 32, 32), 6, "students"),
    "w32-R24": ((32, 32, 32), 24, "students"),
    "w128-R1-paths": ((128, 128, 128), 1, "paths"),
    "teachers-R5": ((32, 32, 32), 5, "teachers"),
}
EPOCHS, REPEATS = 3, 5
ALPHAS = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)  # distill's default alpha_grid


def measure() -> dict:
    """case -> (least CPU us per visit, parameter hash), in this process."""
    from learnpath import GaussianSpec, flip_labels, sample_dataset, split_dataset
    from learnpath.pathtrace import PathStore
    from learnpath.supervision import (TrainConfig, make_ls_targets,
                                       train_filterkd_teachers, train_stack)

    # a tree whose train_stack still takes epoch_callback takes a sink
    # object and calls its log; a later one takes the callable itself
    old_sinks = "epoch_callback" in inspect.signature(train_stack).parameters

    ds = split_dataset(sample_dataset(GaussianSpec(seed=0), 1000), (0.5, 0.05, 0.45))
    visits = EPOCHS * ds.train_indices.size
    out = {}
    for name, (hidden, runs, kind) in CASES.items():
        cfg = TrainConfig(hidden_sizes=hidden, max_epochs=EPOCHS, patience=0, seed=1)
        cells = [(flip_labels(ds, 0.2, seed=r), r) for r in range(runs)]
        tables = [make_ls_targets(ds, (r + 1) / (runs + 1)) for r in range(runs)]

        def train():
            if kind == "teachers":
                return train_filterkd_teachers(cells, cfg, ALPHAS)
            sink = None
            if kind == "paths":
                sink = PathStore(ds.train_indices, ds.num_classes)
                sink = sink if old_sinks else sink.log
            return train_stack([(ds, t, cfg.seed, sink) for t in tables], cfg)

        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.process_time()
            results = train()
            best = min(best, time.process_time() - t0)
        digest = hashlib.blake2b(digest_size=8)
        for result in results:
            if kind == "teachers":
                result, filtered = result
                for a in ALPHAS:
                    digest.update(filtered[a].rows.tobytes())
            digest.update(result.final_model.params.tobytes())
        out[name] = (best / visits * 1e6, digest.hexdigest())
    return out


def run_tree(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", help="SRC_A SRC_B")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
        return 0
    if len(args.src) != 2:
        parser.error("give two source trees, SRC_A SRC_B")
    rounds = []
    for i in range(args.rounds):
        order = args.src if i % 2 == 0 else args.src[::-1]
        got = {src: run_tree(src) for src in order}
        a, b = got[args.src[0]], got[args.src[1]]
        rounds.append((a, b))
        print(f"round {i}: " + "  ".join(f"{name} {a[name][0]:.1f}/{b[name][0]:.1f}"
                                          for name in CASES), flush=True)
    print(f"{'case':<15}{'A us':>9}{'B us':>9}  B cheaper  hashes")
    for name in CASES:
        a = [r[0][name] for r in rounds]
        b = [r[1][name] for r in rounds]
        wins = sum(y[0] < x[0] for x, y in zip(a, b))
        hashes = sorted({x[1] for x in a} | {y[1] for y in b})
        print(f"{name:<15}{statistics.median(x[0] for x in a):>9.1f}"
              f"{statistics.median(y[0] for y in b):>9.1f}  {wins:>3}/{len(rounds):<5}  "
              + " ".join(hashes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
