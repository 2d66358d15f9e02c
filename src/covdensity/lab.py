"""Seeded desk-scale experiments producing trial records.

Each experiment is a pure function of its config: per-trial RNGs are derived
from (seed, trial index, ...) so trials are independent, order-insensitive,
and reproducible bit for bit.  Records serialize to CSV losslessly: float
cells are written with repr, so ``float`` reads each one back exactly.

Trend claims (monotonicity, dominance) are properties of trial MEANS, not of
individual draws; the test suite asserts them over the configured trial
counts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import density, entropy, filtering, spectral
from .betafit import fit_beta, kl_to_density
from .covariance import (
    CovarianceMatrix,
    DataMatrix,
    gen_gaussian_data,
    gen_graph_stationary,
    sample_covariance,
    shift_regularize,
    trace_normalize,
)
from .errors import ConfigError

@dataclass(frozen=True)
class ExperimentConfig:
    """Common knobs for the lab experiments; unused fields are ignored per run."""

    experiment: str
    dim: int = 20
    n_samples: int = 40
    sample_grid: tuple[int, ...] = ()
    betas: tuple[float, ...] = ()
    noise_levels: tuple[float, ...] = ()
    trials: int = 100
    seed: int = 0
    # stability / discrimination extras
    window: int = 128
    n_windows: int = 500
    regime_scale: tuple[float, ...] = (1.3, 1.2, 1.1)
    base_spectrum: tuple[float, ...] = (1.0, 1.0, 0.0)
    # surrogate extras
    edge_prob: float = 0.5
    filter_coeffs: tuple[float, ...] = (1.0, 0.5)
    # entropy-curve extras
    families: tuple[str, ...] = ("gaussian", "exponential", "gamma")
    # regression extras
    n_informative: int = 5
    n_train: int = 100
    n_test: int = 500
    ridge: float = 2e-4
    weight_scale: float = 0.7
    # lipschitz extras
    max_filter_order: int = 5
    beta_range: tuple[float, float] = (-3.0, 3.0)
    eigenvalue_range: tuple[float, float] = (0.0, 10.0)

    def __post_init__(self):
        if self.experiment not in RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}, expected one of {tuple(RUNNERS)}")
        if self.dim < 1 or self.trials < 1:
            raise ConfigError("dim and trials must be positive")
        if self.n_samples < 2:
            raise ConfigError("n_samples must be >= 2")
        for name in ("betas", "noise_levels", "regime_scale", "base_spectrum",
                     "filter_coeffs", "families", "sample_grid"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


def _canon(value):
    if isinstance(value, (bool, np.bool_)):
        return float(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    return str(value)


@dataclass(frozen=True)
class TrialRecord:
    experiment: str
    seed: int
    params: dict
    metrics: dict

    def __post_init__(self):
        object.__setattr__(self, "params", {k: _canon(v) for k, v in self.params.items()})
        metrics = {k: float(v) for k, v in self.metrics.items()}
        for key, value in metrics.items():
            if not math.isfinite(value):
                raise ValueError(f"metric {key!r} is not finite: {value!r}")
        object.__setattr__(self, "metrics", metrics)


def records_to_csv(records, path) -> None:
    """One record per row; params/metrics become prefixed columns."""
    records = list(records)
    p_keys = sorted(set().union(*(r.params for r in records)))
    m_keys = sorted(set().union(*(r.metrics for r in records)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "seed"] + [f"p:{k}" for k in p_keys] + [f"m:{k}" for k in m_keys])
        writer.writerows(
            [r.experiment, repr(r.seed)]
            + [_cell(r.params.get(k)) for k in p_keys]
            + [_cell(r.metrics.get(k)) for k in m_keys]
            for r in records
        )


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summarize(records) -> dict:
    """Group records by their param tuples and average each metric."""
    groups: dict = {}
    for r in records:
        key = tuple(sorted(r.params.items()))
        groups.setdefault(key, []).append(r)
    summary = {}
    for key, rows in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        label = ",".join(f"{k}={v}" for k, v in key) or "all"
        if len(rows) == 1:
            # np.mean of one value is the value + 0.0, bit for bit (-0.0 becomes 0.0).
            metrics = rows[0].metrics
            summary[label] = {m: metrics[m] + 0.0 for m in sorted(metrics)}
        else:
            metric_keys = sorted({m for r in rows for m in r.metrics})
            summary[label] = {
                m: float(np.mean([r.metrics[m] for r in rows if m in r.metrics])) for m in metric_keys
            }
        summary[label]["n_records"] = len(rows)
    return summary


def _symmetric_noise(rng, dim: int, norm: float) -> np.ndarray:
    e = rng.standard_normal((dim, dim))
    e = (e + e.T) / 2.0
    scale = spectral.operator_norm(e)
    if scale == 0.0:
        return np.zeros((dim, dim))
    return norm * e / scale


def run_stability(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Perturbation response of density operators vs the trace-normalized baseline.

    Per (trial, noise level): one symmetric perturbation with exact operator
    norm equal to the noise level, applied to a Gaussian sample covariance;
    records the density response per beta (with the error bound and measured
    partition ratio R) plus the trace-normalized covariance response.  The
    regularized matrix is decomposed once per trial and its perturbation once
    per noise level; every beta's density comes from those two spectra.  A noise
    level's operator norms (dC and every response) come from one stacked ``eigvalsh``.
    """
    betas = cfg.betas or (-1.0, -0.1, 0.0, 0.1, 1.0, 5.0)
    noise_levels = cfg.noise_levels or (0.01, 0.05, 0.1, 0.2, 0.5)

    def one_trial(t: int) -> list[TrialRecord]:
        rng = np.random.default_rng([cfg.seed, t])
        data = gen_gaussian_data(cfg.dim, cfg.n_samples, "gaussian", seed=[cfg.seed, t, 1])
        cov = sample_covariance(data)
        # Density operators are invariant to uniform spectral shifts, so working
        # on the shift-regularized matrix changes none of the measured responses
        # while keeping Z >= 1, which is what makes the error bound valid.
        reg = shift_regularize(cov)
        base = spectral.eigh(reg.matrix)
        values_base, log_z_base = density._guarded_values(base.eigenvalues, betas)
        rho_base = spectral.spectral_matrix(base, values_base)
        norm_base = density._norm(base.eigenvalues)
        tn_base = cov.matrix / np.trace(cov.matrix)
        records = []
        for eps in noise_levels:
            dc = _symmetric_noise(rng, cfg.dim, eps)
            perturbed = cov.matrix + dc
            pert = spectral.eigh(reg.matrix + dc)
            rho_pert, log_z_pert = density._guarded_values(pert.eigenvalues, betas)
            norm_pert = density._norm(pert.eigenvalues)
            deltas = [dc, perturbed / np.trace(perturbed) - tn_base]
            deltas.extend(spectral.spectral_matrix(pert, rho_pert) - rho_base)
            norm_dc, norm_tn, *norm_rho = density._norm(np.linalg.eigvalsh(deltas))
            records.append(
                TrialRecord(
                    experiment="stability",
                    seed=cfg.seed,
                    params={"trial": t, "noise": eps, "method": "trace_normalized"},
                    metrics={"delta_c_norm": norm_dc, "delta_rho_norm": norm_tn},
                )
            )
            for i, beta in enumerate(betas):
                bound = density._error_bound(
                    beta, cfg.dim, norm_base, norm_pert, norm_dc, log_z_base[i], log_z_pert[i]
                )
                records.append(
                    TrialRecord(
                        experiment="stability",
                        seed=cfg.seed,
                        params={"trial": t, "noise": eps, "method": "density", "beta": beta},
                        metrics={
                            "delta_c_norm": norm_dc,
                            "delta_rho_norm": norm_rho[i],
                            "bound_value": bound,
                            "r_ratio": math.exp(log_z_pert[i] - log_z_base[i]),
                        },
                    )
                )
        return records

    return [record for t in range(cfg.trials) for record in one_trial(t)]


def run_lipschitz(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Empirical check of |response difference| <= alpha |eigenvalue difference|.

    Each trial draws an eigenvalue pair and a random filter, evaluates both
    responses with a shared partition function from the two-point spectrum, and
    records the ratio against the Lipschitz constant; near-identical pairs and
    zero-alpha filters are skipped (0/0).
    """
    lo, hi = cfg.eigenvalue_range

    def one_trial(t: int) -> list[TrialRecord]:
        rng = np.random.default_rng([cfg.seed, t])
        lam1, lam2 = rng.uniform(lo, hi, size=2)
        order = int(rng.integers(1, cfg.max_filter_order + 1))
        coeffs = rng.standard_normal(order + 1)
        beta = float(rng.uniform(*cfg.beta_range))
        spec = filtering.FilterSpec(coeffs=coeffs, beta=beta)
        alpha = filtering.lipschitz_alpha(spec)
        gap = abs(lam2 - lam1)
        if gap < 1e-12 or alpha == 0.0:
            return []
        log_z = density._log_partition(np.sort([lam1, lam2]), beta)
        diff = abs(
            filtering._log_frequency_response(spec, lam2, log_z)
            - filtering._log_frequency_response(spec, lam1, log_z)
        )
        return [
            TrialRecord(
                experiment="lipschitz",
                seed=cfg.seed,
                params={"trial": t},
                metrics={
                    "lambda1": lam1,
                    "lambda2": lam2,
                    "beta": beta,
                    "alpha": alpha,
                    "response_diff": diff,
                    "ratio": diff / (alpha * gap),
                },
            )
        ]

    return [record for t in range(cfg.trials) for record in one_trial(t)]


def matched_alignment(sample_cov: CovarianceMatrix, laplacian: np.ndarray, coeffs) -> tuple[float, bool]:
    """Mean |<u_i, v_i>| between covariance and Laplacian eigenvectors.

    Pairs are matched through the population map: the Laplacian eigenpair with
    the j-th smallest g(lambda)^2 corresponds to the j-th smallest sample
    covariance eigenvalue (this reverses the order automatically when g is
    decreasing).  Returns (alignment, degenerate); degenerate flags population
    eigenvalue ties, where the matching is ill-defined.
    """
    dl = spectral.eigh(laplacian)
    dc = spectral.eigh(sample_cov.matrix)
    g = filtering.polynomial_response(filtering.FilterSpec(coeffs=coeffs, beta=0.0), dl.eigenvalues)
    scores = g**2
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    scale = max(1.0, float(np.max(np.abs(scores))))
    degenerate = bool(np.any(np.diff(sorted_scores) < 1e-9 * scale))
    u = dl.eigenvectors[:, order]
    v = dc.eigenvectors
    alignment = float(np.mean(np.abs(np.sum(u * v, axis=0))))
    return alignment, degenerate


def run_surrogate(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Eigenvector convergence of the sample covariance to the graph Laplacian."""
    grid = cfg.sample_grid or (100, 2000, 20000)

    def one_trial(t: int) -> list[TrialRecord]:
        records = []
        for n in grid:
            data, laplacian = gen_graph_stationary(
                cfg.dim, n, cfg.edge_prob, cfg.filter_coeffs, seed=[cfg.seed, t, n]
            )
            alignment, degenerate = matched_alignment(sample_covariance(data), laplacian, cfg.filter_coeffs)
            metrics = {"degenerate": float(degenerate)}
            if not degenerate:
                metrics["alignment"] = alignment
            records.append(
                TrialRecord(
                    experiment="surrogate",
                    seed=cfg.seed,
                    params={"trial": t, "n_samples": n},
                    metrics=metrics,
                )
            )
        return records

    return [record for t in range(cfg.trials) for record in one_trial(t)]


def shifted_feature_transform(cov_tn, beta: float) -> np.ndarray:
    """Feature map of the density regression: rho(C) - I/Z on a unit-trace C.

    Applying it to a signal x gives rho x - x/Z, which removes the identity
    component so only the covariance-dependent part of the density drives the
    features.  ``cov_tn`` may be a CovarianceMatrix or its SpectralDecomposition.
    """
    decomp = density._as_decomposition(cov_tn)
    rho, log_z = density.density_values(decomp.eigenvalues, (beta,))
    return spectral.spectral_matrix(decomp, rho[0] - math.exp(-log_z[0]))


def _ridge_fit_mae(z_train, y_train, z_test, y_test, ridge: float) -> float:
    n, d = z_train.shape
    y_bar = float(np.mean(y_train))
    gram = z_train.T @ z_train + ridge * n * np.eye(d)
    coef = np.linalg.solve(gram, z_train.T @ (y_train - y_bar))
    pred = z_test @ coef + y_bar
    return float(np.mean(np.abs(pred - y_test)))


def run_regression(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Stability of density-shifted linear regression to covariance sample size.

    Per trial: fixed train/test sets with sparse standard-normal-feature
    ground truth and Gaussian label noise; the covariance is estimated from a
    separate nested pool whose size sweeps ``sample_grid``.  Each method maps
    features through its transform (density shift per beta, or the
    trace-normalized covariance itself) and fits the same ridge readout; MAE is
    measured against noisy test labels.  The ridge floor is what separates the
    methods; an exact least-squares refit would be invariant to any invertible
    feature map.
    """
    betas = cfg.betas or (0.1, 1.0, 5.0, 15.0)
    noise_levels = cfg.noise_levels or (0.0, 5.0)
    grid = cfg.sample_grid or (25, 50, 100, 250, 1000)
    pool_size = max(max(grid), cfg.dim + 1)

    def one_trial(t: int) -> list[TrialRecord]:
        records = []
        for noise in noise_levels:
            rng = np.random.default_rng([cfg.seed, t, int(round(noise * 1000))])
            weights = np.zeros(cfg.dim)
            support = rng.choice(cfg.dim, cfg.n_informative, replace=False)
            weights[support] = rng.normal(0.0, cfg.weight_scale, cfg.n_informative)
            x_train = rng.standard_normal((cfg.n_train, cfg.dim))
            y_train = x_train @ weights + rng.normal(0.0, noise, cfg.n_train)
            x_test = rng.standard_normal((cfg.n_test, cfg.dim))
            y_test = x_test @ weights + rng.normal(0.0, noise, cfg.n_test)
            pool = rng.standard_normal((pool_size, cfg.dim))
            baseline = float(np.mean(np.abs(y_test - np.mean(y_train))))
            for n_cov in grid:
                cov_tn = trace_normalize(sample_covariance(DataMatrix(pool[:n_cov])))
                decomp = spectral.eigh(cov_tn.matrix)
                methods = {"raw_covariance": cov_tn.matrix}
                for beta in betas:
                    methods[f"density_beta_{beta:g}"] = shifted_feature_transform(decomp, beta)
                for name, transform in methods.items():
                    mae = _ridge_fit_mae(
                        x_train @ transform, y_train, x_test @ transform, y_test, cfg.ridge
                    )
                    records.append(
                        TrialRecord(
                            experiment="regression",
                            seed=cfg.seed,
                            params={"trial": t, "noise": noise, "n_cov": n_cov, "method": name},
                            metrics={"mae": mae, "baseline_mae": baseline},
                        )
                    )
        return records

    return [record for t in range(cfg.trials) for record in one_trial(t)]


def run_entropy_curve(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Density entropy over a beta grid for Gaussian/Exponential/Gamma covariances."""
    beta_grid = cfg.betas or tuple(np.linspace(0.0, 15.0, 16))

    def one_trial(t: int) -> list[TrialRecord]:
        records = []
        for fam_idx, family in enumerate(cfg.families):
            data = gen_gaussian_data(cfg.dim, cfg.n_samples, family, seed=[cfg.seed, t, fam_idx])
            # The shifted matrix's PSD check already holds its spectrum (eigvalsh order).
            eigenvalues = shift_regularize(sample_covariance(data))._eigenvalues
            rho, _ = density._guarded_values(eigenvalues, beta_grid)
            for beta, nats in zip(beta_grid, entropy._shannon_nats(rho)):
                records.append(
                    TrialRecord(
                        experiment="entropy_curve",
                        seed=cfg.seed,
                        params={"trial": t, "family": family, "beta": beta},
                        metrics={"entropy_nats": nats, "entropy_bits": nats / math.log(2.0)},
                    )
                )
        return records

    return [record for t in range(cfg.trials) for record in one_trial(t)]


def run_discrimination(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Wrap the windowed entropy discrimination experiment as trial records."""
    result = entropy.discrimination_experiment(
        window=cfg.window,
        n_windows=cfg.n_windows,
        beta=cfg.betas[0] if cfg.betas else 2.0,
        regime_scale=cfg.regime_scale,
        base_spectrum=cfg.base_spectrum,
        seed=cfg.seed,
    )
    records = [
        TrialRecord(
            experiment="discrimination",
            seed=cfg.seed,
            params={"window_index": w.window_index, "regime": w.regime},
            metrics={"s_naive_bits": w.s_naive_bits, "s_vne_bits": w.s_vne_bits},
        )
        for w in result.windows
    ]
    records.append(
        TrialRecord(
            experiment="discrimination",
            seed=cfg.seed,
            params={"summary": "auc"},
            metrics={"auc_naive": result.auc_naive, "auc_vne": result.auc_vne},
        )
    )
    return records


def run_betafit_demo(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Recover the inverse temperature matching a noisy spectrum to a clean one.

    Per trial: a Gaussian sample covariance is perturbed by symmetric noise;
    the fitted beta matches the noisy spectrum's density distribution to the
    trace-normalized clean spectrum, and the KL at the fit is compared with a
    grid of alternative betas.
    """
    noise_levels = cfg.noise_levels or (0.1,)

    def one_trial(t: int) -> list[TrialRecord]:
        records = []
        rng = np.random.default_rng([cfg.seed, t])
        data = gen_gaussian_data(cfg.dim, cfg.n_samples, "gaussian", seed=[cfg.seed, t, 2])
        cov = sample_covariance(data)
        lam_true = cov._eigenvalues
        target = np.clip(lam_true, 0.0, None)
        target = target / target.sum()
        for eps in noise_levels:
            noisy = cov.matrix + _symmetric_noise(rng, cfg.dim, eps)
            lam_noisy = np.linalg.eigvalsh(noisy)
            result = fit_beta(lam_noisy, target)
            kl_star = kl_to_density(lam_noisy, target, result.beta_star)
            others = rng.uniform(result.beta_star - 5.0, result.beta_star + 5.0, size=50)
            kl_others = float(np.min(kl_to_density(lam_noisy, target, others)))
            records.append(
                TrialRecord(
                    experiment="betafit_demo",
                    seed=cfg.seed,
                    params={"trial": t, "noise": eps},
                    metrics={
                        "beta_star": result.beta_star,
                        "kl_at_fit": kl_star,
                        "kl_best_alternative": kl_others,
                        "gradient": result.gradient_at_solution,
                        "iterations": result.iterations,
                    },
                )
            )
        return records

    return [record for t in range(cfg.trials) for record in one_trial(t)]


RUNNERS = {
    "stability": run_stability,
    "lipschitz": run_lipschitz,
    "surrogate": run_surrogate,
    "regression": run_regression,
    "entropy_curve": run_entropy_curve,
    "discrimination": run_discrimination,
    "betafit_demo": run_betafit_demo,
}


def run_experiment(cfg: ExperimentConfig) -> list[TrialRecord]:
    return RUNNERS[cfg.experiment](cfg)
