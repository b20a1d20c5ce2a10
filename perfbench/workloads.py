"""Workload definitions: the `longremix train` invocations each workload runs.

A workload is a list of cells. A cell is one complete config file plus the
command-line arguments that go with it. Every config key the run depends on
is written out, so no run relies on a default of the package (the defaults
in ``TrainConfig`` and ``build_experiment`` disagree, and are due to be
unified); the metrics echo is checked against these values after each run.

Seeding. The cells use the README's and the acceptance suite's seeds
whatever base seed the benchmark is given, so every run measures the same
work and checks it against the same recorded fingerprints. Across program
seeds the work and the results vary far more than a regression bound: a
default run took 9 s to 16 s (6k to 13k EM iterations) over seeds 1-5 on a
2-core Xeon, an asym-pr cell 1.8 s to 3.1 s over seeds 1-10, and a ladder
`ce` cell's best accuracy ranges from 0.28 to 0.89. No run that fits the
time budget can average that away.
"""

from __future__ import annotations

TAU_GRID = ",".join(repr(round(0.05 * i, 2)) for i in range(21))

# Shared settings, in the canonical form the metrics echo uses.
_BLOBS_16 = {
    "dataset.kind": "blobs", "dataset.n": "2000", "dataset.test_n": "1000",
    "dataset.classes": "16", "dataset.spread": "0.15",
    "dataset.path": "", "dataset.test_path": "",
}
_TRAIN_COMMON = {
    "train.tau": "0.5", "train.zeta": "5", "train.alpha": "0.2",
    "train.lambda_u": "10.0", "train.lambda_reg": "1.0",
    "train.epochs": "60", "train.warmup": "10", "train.batch_size": "64",
    "train.lr": "0.02", "train.lr_drop": "0.1", "train.momentum": "0.8",
    "train.weight_decay": "0.0005", "train.hidden": "64,64",
    "train.normalize_losses": "true",
}
_REPORT = {
    "report.formats": "json,csv", "report.prcurve": "true",
    "report.tau_grid": TAU_GRID, "report.gmm_dump": "true",
    "report.plan_digests": "true", "report.checkpoints": "false",
}


def _seeds(data, model1, model2, plan, noise):
    return {"train.data_seed": str(data), "train.model1_seed": str(model1),
            "train.model2_seed": str(model2), "train.plan_seed": str(plan),
            "noise.seed": str(noise)}


def _master_seeds(seed):
    """The `--seed N` rewrite of the CLI, written into the file as well."""
    return _seeds(seed, seed + 11, seed + 22, seed + 33, seed + 101)


def _cell(name, config, seed=None):
    args = [] if seed is None else ["--seed", str(seed)]
    return {"name": name, "config": config, "args": args}


def train_default_cells():
    """The README run: data=1, model1=11, model2=22, plan=33, noise=102."""
    config = {**_BLOBS_16,
              "noise.kind": "symmetric", "noise.eta": "0.8", "noise.mapping": "",
              "train.mode": "full-longremix", **_TRAIN_COMMON, **_REPORT,
              **_seeds(1, 11, 22, 33, 102)}
    return [_cell("readme", config)]


def ladder_ce_cells():
    """Criterion 6's `ce` cells at seeds 1-5. `report.gmm_dump` stays false as in the
    criterion: with it on, a `ce` run exits 3 because its empty gmm.jsonl
    fails the bundle check."""
    cells = []
    for eta in ("0.8", "0.9"):
        for seed in range(1, 6):
            config = {**_BLOBS_16,
                      "noise.kind": "symmetric", "noise.eta": eta, "noise.mapping": "",
                      "train.mode": "ce", **_TRAIN_COMMON,
                      "train.tau": "0.7", "train.warmup": "20",
                      **_REPORT, "report.gmm_dump": "false",
                      "report.plan_digests": "false",
                      **_master_seeds(seed)}
            cells.append(_cell(f"eta{eta}-s{seed}", config, seed))
    return cells


def asym_pr_cells():
    """Criterion 7's setting at seeds 1-5, run end to end through both stages."""
    cells = []
    for seed in range(1, 6):
        config = {"dataset.kind": "blobs", "dataset.n": "2000", "dataset.test_n": "1000",
                  "dataset.classes": "2", "dataset.spread": "0.5",
                  "dataset.path": "", "dataset.test_path": "",
                  "noise.kind": "asymmetric", "noise.eta": "0.4", "noise.mapping": "0:1",
                  "train.mode": "full-longremix", **_TRAIN_COMMON,
                  "train.lambda_u": "0.0", "train.lambda_reg": "0.0",
                  "train.epochs": "20", "train.warmup": "5", "train.lr": "0.05",
                  **_REPORT, **_master_seeds(seed)}
        cells.append(_cell(f"s{seed}", config, seed))
    return cells


WORKLOADS = {
    "train-default": train_default_cells(),
    "ladder-ce": ladder_ce_cells(),
    "asym-pr": asym_pr_cells(),
}


def config_text(config) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config.items())


def sample_epochs(config) -> int:
    """Samples trained: n x 2 models x all warmup and selection epochs of
    every stage."""
    stages = 1 if config["train.mode"] in ("ce", "baseline", "longmix") else 2
    per_stage = int(config["train.warmup"]) + int(config["train.epochs"])
    return int(config["dataset.n"]) * 2 * stages * per_stage
