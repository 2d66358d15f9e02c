"""covdensity benchmark: run one workload through the CLI and report its metrics.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all             # every workload, untraced

Run from anywhere; the program is imported from ``src/`` of the checkout this
file lives in.  With ``--trace 0`` the run measures end-to-end metrics with
tracing off; with ``--trace 1`` it reports per-layer metrics from traced sweeps
(see README.md).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import harness
import tracer as tracing
import workloads
from checks import load_reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 7
MIN_SWEEPS = 2

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("sweep_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Wall time or throughput of each CLI call, named after its step label.  They
# apply to some workloads only, so they are reported as per-layer metrics
# (0 where the workload has no such call) and, in an untraced run, in the table.
STEP_METRICS = [
    ("stability_s", "s", "lower"),
    ("entropy_curve_s", "s", "lower"),
    ("lipschitz_s", "s", "lower"),
    ("surrogate_s", "s", "lower"),
    ("regression_s", "s", "lower"),
    ("discriminate_s", "s", "lower"),
    ("betafit_demo_s", "s", "lower"),
    ("train_fixed_samples_per_s", "1/s", "higher"),
    ("train_learned_samples_per_s", "1/s", "higher"),
    ("predict_rows_per_s", "1/s", "higher"),
]

TRACE_METRICS = [
    ("spectral.eigh.calls", "count", "lower"),
    ("spectral.eigh.self_s", "s", "lower"),
    ("spectral.operator_norm.calls", "count", "lower"),
    ("spectral.operator_norm.self_s", "s", "lower"),
    ("linalg.eigh.calls", "count", "lower"),
    ("linalg.eigvalsh.calls", "count", "lower"),
    ("lab.decomps_per_trial.stability", "count", "lower"),
    ("lab.decomps_per_trial.entropy_curve", "count", "lower"),
    ("covariance.CovarianceMatrix.calls", "count", "lower"),
    ("covariance.CovarianceMatrix.self_s", "s", "lower"),
    ("covariance.sample_covariance.self_s", "s", "lower"),
    ("covariance.read_csv_data.self_s", "s", "lower"),
    ("density.density_operator.calls", "count", "lower"),
    ("density.density_operator.self_s", "s", "lower"),
    ("density.density_error_bound.self_s", "s", "lower"),
    ("density.partition_ratio.self_s", "s", "lower"),
    ("entropy.cvne.calls", "count", "lower"),
    ("entropy.cvne.self_s", "s", "lower"),
    ("entropy.naive_entropy.self_s", "s", "lower"),
    ("betafit.fit_beta.calls", "count", "lower"),
    ("betafit.fit_beta.self_s", "s", "lower"),
    ("betafit.fit_beta.iterations", "count", "lower"),
    ("betafit.kl_to_density.self_s", "s", "lower"),
    ("filtering.frequency_response.self_s", "s", "lower"),
    ("filtering.lipschitz_alpha.self_s", "s", "lower"),
    ("network.model_gradients.calls", "count", "lower"),
    ("network.model_gradients.self_s", "s", "lower"),
    ("network.model_gradients.us_per_sample", "us", "lower"),
    ("network.evaluate_loss.self_s", "s", "lower"),
    ("network.evaluate_loss.us_per_sample", "us", "lower"),
    ("network.train.self_s", "s", "lower"),
    ("network.model_forward.calls", "count", "lower"),
    ("network.model_forward.us_per_row", "us", "lower"),
    ("network.load_model.self_s", "s", "lower"),
    ("network.save_model.self_s", "s", "lower"),
    ("lab.run_experiment.self_s", "s", "lower"),
    ("lab.run_experiment.concurrency", "ratio", "higher"),
    ("lab.records_to_csv.self_s", "s", "lower"),
    ("lab.summarize.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("tracing_overhead_s", "s", "lower"),
]

PER_LAYER = TRACE_METRICS + STEP_METRICS + [("ops_failed_ratio", "ratio", "lower")]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(load_at_start) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "threads": blas_threads,
        },
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def measure_setup(repeats: int) -> list[float]:
    """Wall time of fresh interpreters importing covdensity.cli (after one untimed import that fills .pyc caches)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import covdensity.cli"]
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return times


def step_values(session, samples) -> dict[str, list[float]]:
    """Per-sweep values of every step metric that applies to this workload."""
    values = {}
    for step in session.steps:
        seconds = [sample[step.label] for sample in samples]
        if step.argv[0] == "train":
            values[f"{step.label}_samples_per_s"] = [session.work[step.label] / s for s in seconds]
        elif step.argv[0] == "predict":
            values[f"{step.label}_rows_per_s"] = [session.work[step.label] / s for s in seconds]
        else:
            values[f"{step.label}_s"] = seconds
    return values


def layer_values(spans, extras, steps) -> dict[str, float]:
    """Per-layer values of one traced sweep."""
    stats = tracing.summarize_spans(spans)
    roots = [f"bench.{step.label}" for step in steps]
    decomps = tracing.decompositions_under(spans, roots)
    predict_rows = sum(step.rows for step in steps if step.argv[0] == "predict")
    out = {}
    for name, _, _ in TRACE_METRICS:
        fn, _, stat = name.rpartition(".")
        entry = stats.get(fn, tracing.NameStats())
        if name.startswith("lab.decomps_per_trial."):
            step = next((s for s in steps if s.label == stat), None)
            value = decomps[f"bench.{stat}"] / step.trials if step else 0
        elif stat == "calls":
            value = entry.calls
        elif stat == "self_s":
            value = entry.self_s
        elif stat == "iterations":
            value = extras.get((fn, "iterations"), 0)
        elif stat == "us_per_sample":
            samples = extras.get((fn, "samples"), 0)
            value = entry.total_s / samples * 1e6 if samples else 0.0
        elif stat == "us_per_row":
            value = entry.total_s / predict_rows * 1e6 if predict_rows else 0.0
        elif stat == "concurrency":
            value = entry.child_s / entry.total_s if entry.total_s else 0.0
        else:
            continue  # tracing_overhead_s is set by the caller
        out[name] = value
    return out


def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".iterations")) or name.startswith("lab.decomps_per_trial.")


def traced_sweeps(session, seconds):
    """Traced sweeps: counts must repeat exactly, timings are medians over sweeps."""
    tracer = tracing.Tracer()
    per_sweep = []
    tracer.install()
    try:
        def collect():
            per_sweep.append(layer_values(tracer.spans, tracer.extras, session.steps))
            tracer.reset()
        samples = harness.timed_sweeps(session, seconds, MIN_SWEEPS, tracer, collect)
    finally:
        tracer.uninstall()
    values, problems = {}, []
    for name in per_sweep[0]:
        series = [sweep[name] for sweep in per_sweep]
        if _is_count(name):
            if len(set(series)) != 1:
                problems.append(f"count {name} differs between traced sweeps: {series}")
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    return values, samples, problems


def upper(values):
    """(label, value) of the highest percentile with at least ten samples above it, else the maximum."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    pct = int(100 * (1 - 10 / n))
    return f"p{pct}", statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def print_table(rows) -> None:
    print(f"{'metric':<40} {'unit':<6} {'median':>14} {'upper':>20} {'n':>5}")
    for name, unit, values in rows:
        label, top = upper(values)
        print(f"{name:<40} {unit:<6} {statistics.median(values):>14.6g} {label + ' ' + format(top, '.6g'):>20} {len(values):>5}")


def run_workload(args, load_at_start) -> int:
    sys.path.insert(0, SRC)
    import covdensity.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: covdensity imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(load_at_start), sort_keys=True))
    setup = [] if args.trace else measure_setup(SETUP_REPEATS)
    reference = load_reference()["workloads"][args.workload].get(str(workloads.variant_of(args.seed)))
    if reference is None:
        print(f"error: no reference values for seed {args.seed}", file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        session = harness.Session(cli, workloads.build(args.workload, args.seed, work), reference)
        session.run_sweep()  # warm-up: lazy imports and caches; outputs checked against the reference
        plain_seconds = args.seconds / 2 if args.trace else args.seconds
        samples = harness.timed_sweeps(session, plain_seconds, MIN_SWEEPS)
        if args.trace:
            layers, traced, trace_problems = traced_sweeps(session, args.seconds / 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sweeps = [sample["sweep"] for sample in samples]
    steps = step_values(session, samples)
    failed_ratio = session.failed / session.attempted
    problems = list(session.problems)
    if args.trace:
        problems += trace_problems
        layers["tracing_overhead_s"] = statistics.median(s["sweep"] for s in traced) - statistics.median(sweeps)
        for name, _, _ in STEP_METRICS:
            layers[name] = statistics.median(steps[name]) if name in steps else 0.0
        layers["ops_failed_ratio"] = failed_ratio
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
        for name, unit, _ in PER_LAYER:
            print(f"{name:<40} {unit:<6} {layers[name]!r}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        series = {"setup_s": setup, "sweep_s": sweeps, "peak_rss_mb": [peak_rss_mb], **steps}
        units = {name: unit for name, unit, _ in END_TO_END + STEP_METRICS}
        print_table([(name, units[name], series[name]) for name in units if name in series])
        print(f"{'ops_failed_ratio':<40} {'ratio':<6} {failed_ratio:>14.6g} "
              f"({session.failed} failed of {session.attempted} calls)")
        metrics = {name: {"value": statistics.median(series[name]), "unit": unit} for name, unit, _ in END_TO_END}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": session.attempted, "failed": session.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, so each reports its own peak memory."""
    worst = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "covdensity", "__init__.py")):
        print(f"error: no covdensity sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, load_at_start)


if __name__ == "__main__":
    sys.exit(main())
