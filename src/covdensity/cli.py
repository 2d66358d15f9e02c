"""Command-line entry point.

Every subcommand resolves its configuration (JSON file plus flag overrides,
flags winning), computes, and returns its run; only then does ``_write_run``
emit the run's machine-readable outputs under --output-dir: manifest.json,
model.json (training only), results.csv (one run-table row per line) and
summary.json.  A failing subcommand writes nothing.  stdout carries only the
primary result; diagnostics go to stderr.

Exit codes: 0 success, 1 usage error, 2 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import os
import re
import sys

import numpy as np

from . import __version__, covariance, density, entropy, lab, network
from .betafit import fit_beta
from .covariance import CovarianceMatrix, read_csv_covariance, read_csv_data, sample_covariance
from .errors import ConfigError, InsufficientDataError, _keys, _read_json, _version

EXPERIMENT_SUBCOMMANDS = {
    "stability": "stability",
    "lipschitz": "lipschitz",
    "surrogate": "surrogate",
    "regression": "regression",
    "entropy-curve": "entropy_curve",
    "discriminate": "discrimination",
    "betafit-demo": "betafit_demo",
}

CONFIG_SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")  # "-1,0.5" and "-1e-3" are values, not options

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _list_of(kind, noun: str, text: str) -> tuple:
    try:
        return tuple(kind(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"expected comma-separated {noun}, got {text!r}") from exc


_float_list, _int_list = functools.partial(_list_of, float, "numbers"), functools.partial(_list_of, int, "integers")


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="covdensity", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, command, with_beta=False):
        p.set_defaults(command=command)
        p.add_argument("--output-dir", default=".")
        if with_beta:
            p.add_argument("--beta", type=float, default=1.0)

    p = sub.add_parser("entropy", help="density entropy of a covariance matrix")
    common(p, _cmd_entropy, with_beta=True)
    p.add_argument("--input", required=True)
    p.add_argument("--input-is-covariance", action="store_true")
    p.add_argument("--header", action="store_true")
    p.add_argument("--unit", choices=("nats", "bits"), default="bits")

    p = sub.add_parser("density", help="density operator eigenvalues")
    common(p, _cmd_density, with_beta=True)
    p.add_argument("--input", required=True)
    p.add_argument("--input-is-covariance", action="store_true")
    p.add_argument("--header", action="store_true")

    p = sub.add_parser("fit-beta", help="fit the inverse temperature to a target spectrum")
    common(p, _cmd_fit_beta)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spectrum", type=_float_list, default=None)
    source.add_argument("--input", default=None)
    p.add_argument("--target", type=_float_list, default=None)
    p.add_argument("--input-is-covariance", action="store_true")
    p.add_argument("--header", action="store_true")
    p.add_argument("--tol", type=float, default=1e-10)

    flags = dict(seed=int, dim=int, n_samples=int, trials=int, beta=float, betas=_float_list, noise_levels=_float_list,
                 sample_grid=_int_list)
    for name, experiment in EXPERIMENT_SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        common(p, _cmd_experiment)
        p.set_defaults(experiment=experiment)
        p.add_argument("--config", default=None)
        for field in dataclasses.fields(lab.RUNNERS[experiment][0]):  # a flag only for a key the experiment reads
            if field.name in flags:
                p.add_argument(f"--{field.name.replace('_', '-')}", type=flags[field.name], default=None)

    p = sub.add_parser("train", help="train a model on CSV data")
    common(p, _cmd_train)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--input", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--horizon", type=int, default=0)

    p = sub.add_parser("predict", help="predict with a trained model")
    common(p, _cmd_predict)
    p.add_argument("--input", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--model", default=None)
    p.add_argument("--horizon", type=int, default=0)

    return parser


def _load_json_config(path, config_class, optional=()) -> dict:
    """The JSON object at ``path``; its keys must be fields of ``config_class``, schema_version or ``optional``."""
    payload = _keys(f"{path}: /", _read_json(path), config_class, ("schema_version", *optional))
    _version(f"{path}: /schema_version", payload.pop("schema_version", CONFIG_SCHEMA_VERSION), CONFIG_SCHEMA_VERSION)
    return payload


@dataclasses.dataclass
class _Run:
    """What a subcommand computed: the manifest's config (its seed is the table's), the run table for
    results.csv, the summary.json payload, the stdout text, and for training the model for model.json."""

    config: dict
    table: lab.RunTable
    summary: dict
    stdout: str
    model: network.ModelParams | None = None


def _write_run(output_dir, subcommand: str, run: _Run) -> None:
    """Write a finished run's artifacts under ``output_dir``: manifest.json, model.json, results.csv, summary.json."""

    def dump(name, payload):
        with open(os.path.join(output_dir, name), "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True))  # json.dumps without indent runs the C encoder

    try:  # the BLAS NumPy was built against; a NumPy before 1.26 cannot report it as a dict
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    os.makedirs(output_dir, exist_ok=True)
    dump("manifest.json", {
        "artifact_version": __version__,
        "subcommand": subcommand,
        "seed": run.table.seed,
        "config": run.config,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "env": {"cpus_usable": lab._WORKERS, "python": sys.version.split()[0], "numpy": np.__version__,
                "blas": {"name": blas.get("name"), "version": blas.get("version")},
                **{key: value for key, value in os.environ.items() if key.endswith("_NUM_THREADS")}},
    })
    if run.model is not None:
        network.save_model(os.path.join(output_dir, "model.json"), run.model)
    lab.records_to_csv(run.table, os.path.join(output_dir, "results.csv"))
    dump("summary.json", run.summary)


def _read_cov(args) -> CovarianceMatrix:
    if args.input_is_covariance:
        return read_csv_covariance(args.input, header=args.header)
    return sample_covariance(read_csv_data(args.input, header=args.header))


def _cmd_entropy(args) -> _Run:
    cov = _read_cov(args)
    report = entropy.cvne(cov, args.beta)
    metrics = {
        "entropy_nats": report.entropy_nats,
        "entropy_bits": report.entropy_bits,
        "gibbs_form_nats": report.gibbs_form_nats,
        "naive_entropy_bits": entropy.naive_entropy(cov),
        "source_dim": report.source_dim,
        "source_rank_estimate": report.source_rank_estimate,
    }
    table = lab.RunTable("entropy", 0, {"beta": [args.beta]}, {k: [v] for k, v in metrics.items()})
    value = report.entropy_bits if args.unit == "bits" else report.entropy_nats
    return _Run(
        {"beta": args.beta, "unit": args.unit, "input": args.input}, table,
        {"entropy": {k: c[0] for k, c in table.metrics.items()}, "unit": args.unit}, f"{value:.10g}",
    )


def _cmd_density(args) -> _Run:
    spectrum = covariance._spectrum(_read_cov(args))
    rho, log_z = density.density_values(spectrum, (args.beta,))
    table = lab.RunTable(
        "density", 0, {"index": range(spectrum.size)}, {"source_eigenvalue": spectrum, "density_eigenvalue": rho[0]}
    )
    return _Run(
        {"beta": args.beta, "input": args.input}, table,
        {"log_partition": float(log_z[0]), "beta": args.beta, "dim": spectrum.size}, ",".join(f"{v:.10g}" for v in rho[0]),
    )


def _cmd_fit_beta(args) -> _Run:
    spectrum = (np.asarray(args.spectrum, dtype=float) if args.spectrum is not None
                else covariance._spectrum(_read_cov(args)))
    target = (np.asarray(args.target, dtype=float) if args.target is not None
              else entropy._clipped_distribution(spectrum))
    result = fit_beta(spectrum, target, tol=args.tol)
    table = lab.RunTable("fit_beta", 0, {}, {k: [v] for k, v in dataclasses.asdict(result).items()})
    return _Run(
        {"spectrum": spectrum.tolist(), "target": target.tolist(), "tol": args.tol}, table,
        {"fit": {k: c[0] for k, c in table.metrics.items()}}, f"{result.beta_star:.10g}",
    )


def _cmd_experiment(args) -> _Run:
    config_class, runner = lab.RUNNERS[args.experiment]
    payload = _load_json_config(args.config, config_class, ("experiment",)) if args.config else {}
    if (experiment := payload.pop("experiment", args.experiment)) != args.experiment:
        raise ConfigError(f"/experiment: got {experiment!r}, but {args.subcommand} runs {args.experiment!r}")
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(config_class)}  # a flag's dest is its key
    payload.update((key, value) for key, value in flags.items() if value is not None)  # every flag given wins
    cfg = config_class(**payload)
    table = runner(cfg)
    headline = table.headline or f"records={len(table)}"
    return _Run(cfg.__dict__, table, {"headline": headline, "groups": lab.summarize(table)}, headline)


def _check_horizon(horizon: int, task: str) -> None:
    if horizon < 0:
        raise ConfigError(f"--horizon must be >= 0, got {horizon}")
    if horizon > 0 and task == "classification":
        raise ConfigError(f"--horizon {horizon} forecasts full future rows, which task 'classification' cannot fit")


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
        labels = np.trunc(raw_targets)  # checked as floats: a huge label must not reach the cast or size the head
        if not np.all(raw_targets == labels) or labels.min() < 0:
            raise ConfigError("classification targets must be nonnegative integers")
        if labels.max() >= len(labels):
            raise ConfigError(f"classification targets must be below the row count {len(labels)} (n rows hold at "
                              f"most n classes), got {labels.max():g}")
        return features, labels.astype(int), int(labels.max()) + 1
    return features, raw_targets[:, None], 1


def _cmd_train(args) -> _Run:
    payload = _load_json_config(args.config, network.TrainConfig) if args.config else {}
    if args.seed is not None:
        payload["seed"] = args.seed
    cfg = network.TrainConfig(**payload)
    _check_horizon(args.horizon, cfg.task)
    data = read_csv_data(args.input, header=args.header)
    features, targets, n_outputs = _prepare_supervised(data.values, args.horizon, cfg.task)

    rng = np.random.default_rng(cfg.seed)
    n = features.shape[0]
    order_idx = rng.permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    val_idx, train_idx = order_idx[:n_val], order_idx[n_val:]
    if train_idx.size < 2:  # the model's covariance is the training rows' sample covariance
        raise InsufficientDataError(f"need at least 2 observations, got {train_idx.size}")

    xs, ys = features[train_idx], targets[train_idx]
    e = np.frexp(np.max(np.abs(xs)))[1]  # xs / 2**e is exact, and its covariance stays normal where xs's underflows
    cov = covariance._trace_normalized(covariance._covariance_array(np.ldexp(xs, -e)))[0]  # init_model's eigh checks it
    model = network.init_model(cov, n_outputs, cfg)
    result = network.train(model, (xs, ys), (features[val_idx], targets[val_idx]), cfg)

    table = lab.RunTable("train", cfg.seed, {"epoch": range(len(result.history["val_loss"]))}, result.history)
    best_val = result.history["val_loss"][result.best_epoch]
    summary = {
        "best_epoch": result.best_epoch,
        "best_val_loss": best_val,
        "epochs_run": len(result.history["val_loss"]),
        "diverged": result.diverged,
        "loss": cfg.task_loss,
    }
    config = {**dataclasses.asdict(cfg), "horizon": args.horizon, "input": args.input}
    return _Run(config, table, summary, f"{best_val:.10g}", result.model)


def _cmd_predict(args) -> _Run:
    model_path = args.model or "model.json"
    model = network.load_model(model_path)
    _check_horizon(args.horizon, model.task)
    data = read_csv_data(args.input, header=args.header)
    outs = network.forward_rows(model, data.values)
    if model.task == "classification":
        labels = np.argmax(outs, axis=1)
        lines = [str(label) for label in labels.tolist()]
        metrics = {"label": labels}
    else:
        lines = [",".join(f"{v:.10g}" for v in out) for out in outs]
        metrics = {f"y{j}": outs[:, j] for j in range(outs.shape[1])}
    rows = range(len(lines))
    params = {"row": rows, "target_row": range(args.horizon, len(lines) + args.horizon)} if args.horizon else {"row": rows}
    table = lab.RunTable("predict", 0, params, metrics)
    config = {"model": model_path, "input": args.input, "horizon": args.horizon}
    return _Run(config, table, {"rows": len(lines), "task": model.task}, "\n".join(lines))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        run = args.command(args)
        _write_run(args.output_dir, args.subcommand, run)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # runtime/numeric errors map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
