"""The set-up a CLI run pays before training: import, config, dataset.

    python3 perfbench/setup_probe.py COMMAND CONFIG_FILE SEED

The benchmark times this process from start to exit as setup_s.
learnpath must be importable (PYTHONPATH=src).
"""

import sys

import learnpath
from learnpath.config import load_config


def main() -> int:
    command, config_path, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    cfg = load_config(command, path=config_path, seed=seed)
    ds = learnpath.split_dataset(learnpath.sample_dataset(cfg.gaussian_spec(),
                                                          cfg.n_samples),
                                 cfg.ratios)
    return 0 if ds.n == cfg.n_samples else 1


if __name__ == "__main__":
    sys.exit(main())
