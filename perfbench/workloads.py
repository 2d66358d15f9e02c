"""Benchmark workloads: seeded inputs and the CLI call sequence each one runs.

A workload seed selects one of ``N_VARIANTS`` input variants (``seed % N_VARIANTS``);
the variant fixes every input the program sees: the ``--seed`` passed to each
experiment subcommand and the contents of the generated CSV files.  Reference
outputs for every variant live in ``reference.json``, so every run's outputs are
checked, whatever seed it was given.

Why each workload exists is documented in README.md next to this file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

N_VARIANTS = 16

# paper-sweep: the five slow trial-based subcommands run 20 trials instead of
# their default 100 so one sweep fits several times into a run; per-trial work
# is unchanged.  lipschitz keeps its default 100 trials (0.4 ms each) and
# discriminate has no trial count.
PAPER_TRIALS = 20

TRAIN_ROWS = 1000
# `train` holds out its default val_fraction (0.2) of the rows for validation
# and trains on the rest.
TRAIN_FIT_ROWS = TRAIN_ROWS - round(0.2 * TRAIN_ROWS)
PREDICT_ROWS = 4000
FEATURES = 22
TRAIN_EPOCHS = 2

# README training recipe (fixed betas, dropout, classification) at 2 epochs.
FIXED_CONFIG = {
    "learning_rate": 1e-4,
    "epochs": TRAIN_EPOCHS,
    "batch_size": 64,
    "hidden_dim": 128,
    "num_layers": 1,
    "activation": "tanh",
    "dropout": 0.7,
    "betas": [0.1, 5.0, 15.1],
    "task": "classification",
}
# Learnable betas, regression, default batch size, no dropout.
LEARNED_CONFIG = {
    "epochs": TRAIN_EPOCHS,
    "betas_learnable": True,
    "betas_init": [0, 0, 0, 0],
    "task": "regression",
}


@dataclass(frozen=True)
class Step:
    """One CLI call of a workload.

    ``label`` names the call in metrics and in the reference file.  ``trials``
    is the trial count the call runs (0 where it has none); ``rows`` is the
    number of rows the call works on per pass: the rows ``train`` fits on, or
    the rows ``predict`` labels.
    """

    label: str
    argv: tuple[str, ...]
    trials: int = 0
    rows: int = 0

    @property
    def output_dir(self) -> str:
        return self.argv[self.argv.index("--output-dir") + 1]


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _experiment(subcommand, variant, out_root, trials=None):
    label = subcommand.replace("-", "_")
    argv = [subcommand, "--seed", str(variant), "--output-dir", os.path.join(out_root, label)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    return Step(label, tuple(argv), trials=trials or 0)


def _paper_sweep(variant, work):
    out = os.path.join(work, "out")
    return [
        _experiment("stability", variant, out, PAPER_TRIALS),
        _experiment("lipschitz", variant, out, 100),
        _experiment("surrogate", variant, out, PAPER_TRIALS),
        _experiment("regression", variant, out, PAPER_TRIALS),
        _experiment("entropy-curve", variant, out, PAPER_TRIALS),
        _experiment("discriminate", variant, out),
        _experiment("betafit-demo", variant, out, PAPER_TRIALS),
    ]


def write_csv(path, rows: np.ndarray) -> None:
    """Write rows with shortest round-trip float text, so the CLI reads back the exact values."""
    with open(path, "w") as fh:
        for row in rows.tolist():
            fh.write(",".join(repr(v) for v in row) + "\n")


def supervised_data(variant: int) -> tuple[np.ndarray, np.ndarray]:
    """Training table (features + 0/1 label) and a larger feature-only table.

    Features are correlated Gaussians (a random mixing matrix with decaying
    column scales, so the covariance spectrum is spread out); the label is a
    noisy linear threshold.  Both tables come from one generator seeded by the
    variant.
    """
    rng = np.random.default_rng([20250511, variant])
    mixing = rng.standard_normal((FEATURES, FEATURES)) * np.geomspace(1.0, 0.05, FEATURES)
    weights = rng.standard_normal(FEATURES)

    def features(n):
        return rng.standard_normal((n, FEATURES)) @ mixing.T

    x_train = features(TRAIN_ROWS)
    score = x_train @ weights
    labels = (score + 0.3 * np.std(score) * rng.standard_normal(TRAIN_ROWS) > 0).astype(float)
    return np.column_stack([x_train, labels]), features(PREDICT_ROWS)


def _train_predict(variant, work):
    inputs = os.path.join(work, "inputs")
    out = os.path.join(work, "out")
    os.makedirs(inputs, exist_ok=True)
    train_table, predict_table = supervised_data(variant)
    train_csv = os.path.join(inputs, "train.csv")
    predict_csv = os.path.join(inputs, "predict.csv")
    write_csv(train_csv, train_table)
    write_csv(predict_csv, predict_table)
    configs = {}
    for name, cfg in (("fixed", FIXED_CONFIG), ("learned", LEARNED_CONFIG)):
        configs[name] = os.path.join(inputs, f"{name}.json")
        with open(configs[name], "w") as fh:
            json.dump(cfg, fh)

    def train(label, cfg):
        argv = ("train", "--input", train_csv, "--config", cfg, "--seed", str(variant),
                "--output-dir", os.path.join(out, label))
        return Step(label, argv, rows=TRAIN_FIT_ROWS)

    fixed = train("train_fixed", configs["fixed"])
    predict = Step(
        "predict",
        ("predict", "--input", predict_csv, "--model", os.path.join(fixed.output_dir, "model.json"),
         "--output-dir", os.path.join(out, "predict")),
        rows=PREDICT_ROWS,
    )
    return [fixed, train("train_learned", configs["learned"]), predict]


WORKLOADS = {
    "paper-sweep": _paper_sweep,
    "train-predict": _train_predict,
}


def build(name: str, seed: int, work: str) -> list[Step]:
    """Write the workload's inputs under ``work`` and return its CLI call sequence."""
    return WORKLOADS[name](variant_of(seed), work)
