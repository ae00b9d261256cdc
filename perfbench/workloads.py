"""The benchmark's workloads: which CLI command, at which config, and what
a correct run leaves in its output directory.

Each workload runs one `learnpath` subcommand end to end. The benchmark's
--seed is forwarded to the CLI's --seed, except for workloads with a fixed
`data_seed` (see Workload.inputs); everything else is fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    jobs: int
    config: dict
    # None: the benchmark seed is the CLI's master seed, which draws the
    # dataset. Otherwise the master seed, and so the dataset, is this fixed
    # value, and the benchmark seed picks the cells' `seeds` instead: their
    # label flips and initialisations.
    data_seed: int | None = None

    def inputs(self, seed: int) -> tuple:
        """(CLI master seed, config) for the benchmark seed `seed`."""
        if self.data_seed is None:
            return seed, self.config
        k = len(self.config["seeds"])
        return self.data_seed, dict(self.config, seeds=tuple(range(k * seed, k * seed + k)))

    def config_text(self, config: dict) -> str:
        lines = [f"kind = {self.command}"]
        for key, value in config.items():
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def split_counts(self) -> tuple:
        """(n_train, n_valid, n_test); the configs below split exactly."""
        n = self.config["n_samples"]
        counts = tuple(round(n * r) for r in self.config["ratios"])
        if sum(counts) != n:
            raise ValueError(f"{self.name}: ratios do not split n_samples exactly")
        return counts

    def expected_rows(self) -> dict:
        """Artifact file name -> data rows (None: the file must exist)."""
        c = self.config
        rows = {"summary.txt": None}
        if self.command == "distill":
            alphas = set(c["alpha_grid"]) | {c["filter_alpha"]}
            students = 3 + len(alphas)  # oht, eskd, gt, one filter_kd per alpha
            rows["distill.csv"] = len(c["flip_grid"]) * len(c["seeds"]) * students
        elif self.command == "paths":
            n_train = self.split_counts()[0]
            # patience 0: every run lasts max_epochs, one visit per epoch
            rows["paths.csv"] = n_train * c["max_epochs"]
            rows["projections.csv"] = 2 * len(c["quantiles"]) * c["max_epochs"]
        elif self.command == "ntk-verify":
            n_train = self.split_counts()[0]
            rows["decomposition.csv"] = c["n_pairs"] * len(c["eta_grid"])
            rows["similarity.csv"] = min(3, n_train) * min(c["n_similarity"], n_train)
            rows["trace_evolution.csv"] = c["trace_samples"] * (c["trace_epochs"] + 1)
        return rows


WORKLOADS = {w.name: w for w in (
    Workload(
        name="distill-sweep",
        command="distill",
        jobs=2,
        config={
            "n_samples": 600,
            "ratios": (0.2, 0.05, 0.75),
            "hidden_sizes": (32, 32, 32),
            "max_epochs": 60,
            "patience": 10,
            "flip_grid": (0.2,),
            "filter_alpha": 0.2,
            "alpha_grid": (0.05, 0.5),
            "seeds": (0, 1, 2, 3),  # replaced per benchmark seed
        },
        # early stopping makes the work depend on the data: over 10 seeds the
        # SGD step count spread (IQR/median) 0.16 with the dataset drawn
        # from the seed, 0.09 with it fixed
        data_seed=0,
    ),
    Workload(
        name="paths-wide",
        command="paths",
        jobs=1,
        config={
            "n_samples": 10000,
            "ratios": (0.05, 0.05, 0.9),
            "hidden_sizes": (128, 128, 128),
            "max_epochs": 20,
            "patience": 0,
            "quantiles": (0.05, 0.5, 0.75, 0.95),
        },
    ),
    Workload(
        name="ntk-verify",
        command="ntk-verify",
        jobs=1,
        config={
            "n_samples": 4000,
            "ratios": (0.5, 0.1, 0.4),
            "hidden_sizes": (32, 32, 32),
            "n_pairs": 800,
            "n_similarity": 2000,
            "eta_grid": (0.01, 0.005, 0.0025),
            "trace_epochs": 3,
            "trace_samples": 5,
        },
    ),
)}
