"""Command-line entry point.

Every subcommand resolves its configuration (JSON file plus flag overrides,
flags winning), writes a run manifest, and emits machine-readable outputs
under --output-dir: results.csv (one run-table row per line), summary.json, and
for training model.json.  stdout carries only the primary result; diagnostics
go to stderr.

Exit codes: 0 success, 1 usage error, 2 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__, density, entropy, lab, network
from .betafit import fit_beta
from .covariance import (
    CovarianceMatrix,
    DataMatrix,
    read_csv_covariance,
    read_csv_data,
    sample_covariance,
    trace_normalize,
)
from .errors import ConfigError, ShapeError
from .spectral import eigh

EXPERIMENT_SUBCOMMANDS = {
    "stability": "stability",
    "lipschitz": "lipschitz",
    "surrogate": "surrogate",
    "regression": "regression",
    "entropy-curve": "entropy_curve",
    "discriminate": "discrimination",
    "betafit-demo": "betafit_demo",
}

_TRAIN_DEFAULTS = {
    "learning_rate": 1e-3,
    "epochs": 100,
    "batch_size": 32,
    "hidden_dim": 32,
    "num_layers": 1,
    "activation": "tanh",
    "head_activation": "tanh",
    "dropout": 0.0,
    "betas": None,
    "betas_learnable": False,
    "betas_init": None,
    "order": 2,
    "loss": None,
    "seed": 0,
    "task": "regression",
    "aggregation": "concatenate",
    "skip_k0": False,
    "val_fraction": 0.2,
}

_EXPERIMENT_KEYS = {f.name for f in dataclasses.fields(lab.ExperimentConfig)} | {"schema_version"}
_TRAIN_KEYS = set(_TRAIN_DEFAULTS) | {"schema_version"}


CONFIG_SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="covdensity", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, with_beta=False):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output-dir", default=".")
        p.add_argument("--config", default=None)
        if with_beta:
            p.add_argument("--beta", type=float, default=None)

    p = sub.add_parser("entropy", help="density entropy of a covariance matrix")
    common(p, with_beta=True)
    p.add_argument("--input", required=True)
    p.add_argument("--input-is-covariance", action="store_true")
    p.add_argument("--header", action="store_true")
    p.add_argument("--unit", choices=("nats", "bits"), default="bits")

    p = sub.add_parser("density", help="density operator eigenvalues")
    common(p, with_beta=True)
    p.add_argument("--input", required=True)
    p.add_argument("--input-is-covariance", action="store_true")
    p.add_argument("--header", action="store_true")

    p = sub.add_parser("fit-beta", help="fit the inverse temperature to a target spectrum")
    common(p)
    p.add_argument("--spectrum", type=_float_list, default=None)
    p.add_argument("--target", type=_float_list, default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--input-is-covariance", action="store_true")
    p.add_argument("--header", action="store_true")
    p.add_argument("--tol", type=float, default=1e-10)

    for name in EXPERIMENT_SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        common(p)
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--n-samples", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--betas", type=_float_list, default=None)
        p.add_argument("--noise-levels", type=_float_list, default=None)
        p.add_argument("--sample-grid", type=_int_list, default=None)

    p = sub.add_parser("train", help="train a model on CSV data")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--horizon", type=int, default=0)

    p = sub.add_parser("predict", help="predict with a trained model")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--model", default=None)
    p.add_argument("--horizon", type=int, default=0)

    return parser


def _load_json_config(path, allowed: set, kind: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object at /")
    for key in payload:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown {kind} key at /{key}")
    if payload.pop("schema_version", CONFIG_SCHEMA_VERSION) != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported schema_version at /schema_version")
    return payload


def _validate_train_config(cfg: dict) -> dict:
    merged = dict(_TRAIN_DEFAULTS)
    merged.update(cfg)
    if merged["epochs"] < 1:
        raise ConfigError("/epochs: must be >= 1")
    if merged["learning_rate"] < 0:
        raise ConfigError("/learning_rate: must be nonnegative")
    if merged["batch_size"] < 1:
        raise ConfigError("/batch_size: must be >= 1")
    if not 0.0 <= merged["dropout"] < 1.0:
        raise ConfigError("/dropout: must be in [0, 1)")
    if merged["num_layers"] < 1:
        raise ConfigError("/num_layers: must be >= 1")
    if merged["betas"] is None:
        if merged["betas_init"] is None:
            raise ConfigError("/betas: required unless betas_init is given")
        merged["betas"] = list(merged["betas_init"])
    if not 0.0 < merged["val_fraction"] < 1.0:
        raise ConfigError("/val_fraction: must be in (0, 1)")
    return merged


def _resolve_experiment_config(args, experiment: str) -> lab.ExperimentConfig:
    payload = {}
    if args.config:
        payload = _load_json_config(args.config, _EXPERIMENT_KEYS, "experiment config")
    payload["experiment"] = experiment
    overrides = {
        "seed": args.seed,
        "dim": args.dim,
        "n_samples": args.n_samples,
        "trials": args.trials,
        "betas": args.betas,
        "noise_levels": args.noise_levels,
        "sample_grid": args.sample_grid,
    }
    for key, value in overrides.items():
        if value is not None:
            payload[key] = value
    try:
        return lab.ExperimentConfig(**payload)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _write_manifest(output_dir, subcommand, config: dict, seed) -> None:
    manifest = {
        "artifact_version": __version__,
        "subcommand": subcommand,
        "seed": seed,
        "config": config,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(os.path.join(output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True, default=_json_default)


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (tuple, np.ndarray)):
        return list(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_summary(output_dir, payload: dict) -> None:
    with open(os.path.join(output_dir, "summary.json"), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=_json_default)


def _read_cov(args) -> CovarianceMatrix:
    if args.input_is_covariance:
        return read_csv_covariance(args.input, header=args.header)
    return sample_covariance(read_csv_data(args.input, header=args.header))


def _cmd_entropy(args) -> int:
    beta = args.beta if args.beta is not None else 1.0
    cov = _read_cov(args)
    report = entropy.cvne(cov, beta)
    naive_bits = entropy.naive_entropy(cov)
    value = report.entropy_bits if args.unit == "bits" else report.entropy_nats
    out_dir = _ensure_output_dir(args)
    _write_manifest(out_dir, "entropy", {"beta": beta, "unit": args.unit, "input": args.input}, args.seed or 0)
    metrics = {
        "entropy_nats": report.entropy_nats,
        "entropy_bits": report.entropy_bits,
        "gibbs_form_nats": report.gibbs_form_nats,
        "naive_entropy_bits": naive_bits,
        "source_dim": report.source_dim,
        "source_rank_estimate": report.source_rank_estimate,
    }
    table = lab.RunTable("entropy", args.seed or 0, {"beta": [beta]}, {k: [v] for k, v in metrics.items()})
    lab.records_to_csv(table, os.path.join(out_dir, "results.csv"))
    _write_summary(out_dir, {"entropy": {k: c[0] for k, c in table.metrics.items()}, "unit": args.unit})
    print(f"{value:.10g}")
    return 0


def _cmd_density(args) -> int:
    beta = args.beta if args.beta is not None else 1.0
    cov = _read_cov(args)
    rho = density.density_operator(cov, beta)
    z = rho.partition_function  # raises on overflow before any file is written
    out_dir = _ensure_output_dir(args)
    _write_manifest(out_dir, "density", {"beta": beta, "input": args.input}, args.seed or 0)
    table = lab.RunTable(
        "density", args.seed or 0, {"index": range(rho.dim)},
        {"source_eigenvalue": rho.source_spectrum, "density_eigenvalue": rho.density_eigenvalues},
    )
    lab.records_to_csv(table, os.path.join(out_dir, "results.csv"))
    _write_summary(out_dir, {"partition_function": z, "beta": beta, "dim": rho.dim})
    print(",".join(f"{v:.10g}" for v in rho.density_eigenvalues))
    return 0


def _cmd_fit_beta(args) -> int:
    if args.spectrum is not None:
        spectrum = np.asarray(args.spectrum, dtype=float)
    elif args.input is not None:
        spectrum = eigh(_read_cov(args).matrix).eigenvalues
    else:
        raise UsageError("fit-beta requires --spectrum or --input")
    if args.target is not None:
        target = np.asarray(args.target, dtype=float)
    else:
        clipped = np.clip(spectrum, 0.0, None)
        target = clipped / clipped.sum()
    result = fit_beta(spectrum, target, tol=args.tol)
    out_dir = _ensure_output_dir(args)
    _write_manifest(
        out_dir, "fit-beta",
        {"spectrum": list(spectrum), "target": list(target), "tol": args.tol},
        args.seed or 0,
    )
    metrics = {
        "beta_star": result.beta_star,
        "objective_value": result.objective_value,
        "gradient_at_solution": result.gradient_at_solution,
        "curvature_at_solution": result.curvature_at_solution,
        "iterations": result.iterations,
        "degenerate": result.degenerate,
    }
    table = lab.RunTable("fit_beta", args.seed or 0, {}, {k: [v] for k, v in metrics.items()})
    lab.records_to_csv(table, os.path.join(out_dir, "results.csv"))
    _write_summary(out_dir, {"fit": {k: c[0] for k, c in table.metrics.items()}})
    print(f"{result.beta_star:.10g}")
    return 0


def _cmd_experiment(args, experiment: str) -> int:
    cfg = _resolve_experiment_config(args, experiment)
    out_dir = _ensure_output_dir(args)
    _write_manifest(out_dir, args.subcommand, cfg.__dict__, cfg.seed)
    table = lab.run_experiment(cfg)
    lab.records_to_csv(table, os.path.join(out_dir, "results.csv"))
    headline = _experiment_headline(experiment, table)
    _write_summary(out_dir, {"headline": headline, "groups": lab.summarize(table)})
    print(headline)
    return 0


def _experiment_headline(experiment: str, table) -> str:
    metrics = table.metrics
    if experiment == "discrimination" and "auc_naive" in metrics:
        i = next(i for i, v in enumerate(metrics["auc_naive"]) if v is not None)
        return f"auc_naive={metrics['auc_naive'][i]:.4f} auc_vne={metrics['auc_vne'][i]:.4f}"
    if experiment == "lipschitz" and "ratio" in metrics:
        ratios = [v for v in metrics["ratio"] if v is not None]
        return f"max_ratio={max(ratios):.6f} n={len(ratios)}"
    if experiment == "surrogate":
        by_n: dict = {}
        for n, alignment in zip(table.params.get("n_samples", ()), metrics.get("alignment", ())):
            if alignment is not None:
                by_n.setdefault(n, []).append(alignment)
        parts = [f"n={int(n)}:{float(np.mean(v)):.4f}" for n, v in sorted(by_n.items())]
        return "mean_alignment " + " ".join(parts)
    return f"records={len(table)}"


def _ensure_output_dir(args) -> str:
    out_dir = args.output_dir
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _prepare_supervised(values: np.ndarray, horizon: int, task: str):
    """Feature and target arrays, one target per feature row: horizon > 0 forecasts full future rows."""
    if horizon > 0:
        if values.shape[0] <= horizon:
            raise ConfigError(f"need more than {horizon} rows for horizon {horizon}")
        return values[:-horizon], values[horizon:], values.shape[1]
    if values.shape[1] < 2:
        raise ConfigError("need at least two columns (features + target)")
    features = values[:, :-1]
    raw_targets = values[:, -1]
    if task == "classification":
        labels = raw_targets.astype(int)
        if not np.all(np.abs(raw_targets - labels) < 1e-9) or labels.min() < 0:
            raise ConfigError("classification targets must be nonnegative integers")
        return features, labels, int(labels.max()) + 1
    return features, raw_targets[:, None], 1


def _cmd_train(args) -> int:
    cfg_payload = {}
    if args.config:
        cfg_payload = _load_json_config(args.config, _TRAIN_KEYS, "train config")
    if args.seed is not None:
        cfg_payload["seed"] = args.seed
    cfg = _validate_train_config(cfg_payload)
    data = read_csv_data(args.input, header=args.header)
    features, targets, n_outputs = _prepare_supervised(data.values, args.horizon, cfg["task"])

    rng = np.random.default_rng(cfg["seed"])
    n = features.shape[0]
    order_idx = rng.permutation(n)
    n_val = max(1, int(round(cfg["val_fraction"] * n)))
    val_idx, train_idx = order_idx[:n_val], order_idx[n_val:]
    if train_idx.size < 1:
        raise ConfigError("not enough rows to split train/validation")

    xs, ys = features[train_idx], targets[train_idx]
    cov = trace_normalize(sample_covariance(DataMatrix(xs)))

    loss = cfg["loss"] or ("cross_entropy" if cfg["task"] == "classification" else "mse")
    model = network.init_model(
        dim=features.shape[1],
        n_outputs=n_outputs,
        betas=cfg["betas"],
        order=cfg["order"],
        hidden_dim=cfg["hidden_dim"],
        num_layers=cfg["num_layers"],
        activation=cfg["activation"],
        head_activation=cfg["head_activation"],
        aggregation=cfg["aggregation"],
        task=cfg["task"],
        betas_learnable=cfg["betas_learnable"],
        skip_k0=cfg["skip_k0"],
        time_points=1,
        seed=cfg["seed"],
    )
    train_cfg = network.TrainConfig(
        learning_rate=cfg["learning_rate"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        seed=cfg["seed"],
        loss=loss,
        dropout=cfg["dropout"],
    )
    result = network.train(model, cov, (xs, ys), (features[val_idx], targets[val_idx]), train_cfg)

    out_dir = _ensure_output_dir(args)
    _write_manifest(out_dir, "train", {**cfg, "horizon": args.horizon, "input": args.input}, cfg["seed"])
    network.save_model(os.path.join(out_dir, "model.json"), result.model, cov)
    table = lab.RunTable("train", cfg["seed"], {"epoch": range(len(result.history["val_loss"]))}, result.history)
    lab.records_to_csv(table, os.path.join(out_dir, "results.csv"))
    best_val = result.history["val_loss"][result.best_epoch] if result.history["val_loss"] else math.nan
    _write_summary(
        out_dir,
        {
            "best_epoch": result.best_epoch,
            "best_val_loss": best_val,
            "epochs_run": len(result.history["val_loss"]),
            "diverged": result.diverged,
            "loss": loss,
        },
    )
    print(f"{best_val:.10g}")
    return 0


def _cmd_predict(args) -> int:
    model_path = args.model or "model.json"
    model, cov_matrix = network.load_model(model_path)
    data = read_csv_data(args.input, header=args.header)
    if data.dim != cov_matrix.shape[0]:
        raise ShapeError(f"input has {data.dim} columns, model expects {cov_matrix.shape[0]}")
    decomp = eigh(cov_matrix)
    out_dir = _ensure_output_dir(args)
    _write_manifest(out_dir, "predict", {"model": model_path, "input": args.input, "horizon": args.horizon}, args.seed or 0)
    outs = network.forward_rows(model, decomp, data.values)
    if model.task == "classification":
        labels = np.argmax(outs, axis=1)
        lines = [str(label) for label in labels.tolist()]
        metrics = {"label": labels}
    else:
        lines = [",".join(f"{v:.10g}" for v in out) for out in outs]
        metrics = {f"y{j}": outs[:, j] for j in range(outs.shape[1])}
    rows = range(len(lines))
    params = {"row": rows, "target_row": range(args.horizon, len(lines) + args.horizon)} if args.horizon else {"row": rows}
    lab.records_to_csv(lab.RunTable("predict", args.seed or 0, params, metrics), os.path.join(out_dir, "results.csv"))
    _write_summary(out_dir, {"rows": len(lines), "task": model.task})
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.subcommand == "entropy":
            return _cmd_entropy(args)
        if args.subcommand == "density":
            return _cmd_density(args)
        if args.subcommand == "fit-beta":
            return _cmd_fit_beta(args)
        if args.subcommand in EXPERIMENT_SUBCOMMANDS:
            return _cmd_experiment(args, EXPERIMENT_SUBCOMMANDS[args.subcommand])
        if args.subcommand == "train":
            return _cmd_train(args)
        if args.subcommand == "predict":
            return _cmd_predict(args)
        raise UsageError(f"unknown subcommand {args.subcommand!r}")
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # runtime/numeric errors map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
