"""Seeded desk-scale experiments producing run tables.

Each experiment is a pure function of its config: per-trial RNGs are derived
from (seed, trial index, ...) so trials are independent, order-insensitive,
and reproducible bit for bit.  A run comes back as a :class:`RunTable`, one
column per param and per metric, and is written from those columns: float
cells are written with repr, so ``float`` reads each one back exactly.

Stages with a stackable axis run once over it rather than once per item:
within a trial, the stability perturbations and the regression covariances;
across the whole run, every entropy-curve covariance and every discrimination
window.  Stacks whose items carry a full matrix per beta stay per trial, which
bounds their memory.  When a stacked check fails, the items are re-run one at a
time, so the first failing item raises its own error.

Trend claims (monotonicity, dominance) are properties of trial MEANS, not of
individual draws; the test suite asserts them over the configured trial
counts.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import covariance, density, entropy, filtering, spectral
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
from .errors import ConfigError, DegenerateCovarianceError, ShapeError, _check_fields

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
        # A sample_grid entry is named with its bound, whether its type or its size is wrong.
        for n in self.sample_grid if isinstance(self.sample_grid, (tuple, list, np.ndarray)) else ():
            if not (isinstance(n, (int, np.integer)) and n >= 2):
                raise ConfigError(f"sample_grid entries must be integers >= 2, got {n!r}")
        _check_fields(self)
        if self.experiment not in RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}, expected one of {tuple(RUNNERS)}")
        if self.dim < 1 or self.trials < 1:
            raise ConfigError("dim and trials must be positive")
        if self.n_samples < 2:
            raise ConfigError("n_samples must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")


def _canon(value):
    if isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating)):
        return float(value)
    return None if value is None else str(value)


def _metric_column(values) -> list:
    return [None if v is None else float(v) for v in (values.tolist() if isinstance(values, np.ndarray) else values)]


def _first_non_finite(column: list):
    """Index of the column's first non-finite cell, or None; a lacking cell (None) reads as NaN and is skipped."""
    bad = np.flatnonzero(~np.isfinite(np.array(column, dtype=float))).tolist()
    return next((i for i in bad if column[i] is not None), None)


@dataclass(frozen=True)
class RunTable:
    """One run's rows held as columns: a list per param and a list per metric.

    Every column has one cell per row, in row order; a row that lacks a param
    or metric holds None there, and a column that no row has is dropped.  Param
    cells become floats (numbers and bools) or strings and metric cells floats;
    a metric cell that is not finite raises ValueError naming the first one, in
    row order and then column order, as a row-by-row check meets them.
    """

    experiment: str
    seed: int
    params: dict
    metrics: dict

    def __post_init__(self):
        params = {k: [_canon(v) for v in c] for k, c in self.params.items()}
        metrics = {k: _metric_column(c) for k, c in self.metrics.items()}
        if len({len(c) for c in (*params.values(), *metrics.values())}) > 1:
            raise ShapeError("run table columns differ in length")
        bad = [(row, key) for key, c in metrics.items() if (row := _first_non_finite(c)) is not None]
        if bad:
            row, key = min(bad, key=lambda cell: cell[0])
            raise ValueError(f"metric {key!r} is not finite: {metrics[key][row]!r}")
        object.__setattr__(self, "params", {k: c for k, c in params.items() if any(v is not None for v in c)})
        object.__setattr__(self, "metrics", {k: c for k, c in metrics.items() if any(v is not None for v in c)})

    def __len__(self) -> int:
        return max(map(len, (*self.params.values(), *self.metrics.values())), default=0)


def _columns(names, rows) -> dict:
    """Columns named ``names`` of an iterable of row tuples (none when there are no rows)."""
    return dict(zip(names, zip(*rows)))


def records_to_csv(table: RunTable, path) -> None:
    """One CSV row per table row; params/metrics become prefixed columns.  The csv module
    writes a float cell with repr and a lacking (None) cell as empty."""
    p_keys, m_keys = sorted(table.params), sorted(table.metrics)
    n = len(table)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "seed"] + [f"p:{k}" for k in p_keys] + [f"m:{k}" for k in m_keys])
        writer.writerows(zip(
            [table.experiment] * n, [repr(table.seed)] * n,
            *(table.params[k] for k in p_keys), *(table.metrics[k] for k in m_keys),
        ))


def summarize(table: RunTable) -> dict:
    """Group rows by their param tuples and average each metric."""
    names = sorted(table.params)
    groups: dict = {}
    for i, values in enumerate(zip(*(table.params[k] for k in names)) if names else [()] * len(table)):
        groups.setdefault(tuple((k, v) for k, v in zip(names, values) if v is not None), []).append(i)
    metrics = sorted(table.metrics.items())
    summary = {}
    for key, rows in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        label = ",".join(f"{k}={v}" for k, v in key) or "all"
        if len(rows) == 1:
            # np.mean of one value is the value + 0.0, bit for bit (-0.0 becomes 0.0).
            summary[label] = {m: c[rows[0]] + 0.0 for m, c in metrics if c[rows[0]] is not None}
        else:
            cells = {m: [c[i] for i in rows if c[i] is not None] for m, c in metrics}
            summary[label] = {m: float(np.mean(v)) for m, v in cells.items() if v}
        summary[label]["n_records"] = len(rows)
    return summary


def _symmetric_noise(rng, dim: int, norms) -> np.ndarray:
    """Symmetric perturbations with exact operator norms ``norms``, from one ``(len(norms), dim, dim)`` draw."""
    e = rng.standard_normal((len(norms), dim, dim))
    e = (e + np.swapaxes(e, -1, -2)) / 2.0
    scale = np.linalg.norm(e, 2, axis=(-2, -1))
    # An all-zero draw has norm 0 and stays zero.
    return np.asarray(norms, dtype=float)[:, None, None] * e / np.where(scale == 0.0, 1.0, scale)[:, None, None]


def _stability_responses(cov, reg, dc, betas) -> tuple[np.ndarray, list, list]:
    """Norms ``(K, 2 + n_beta)`` of dC, the trace-normalized and each beta's response to K perturbations,
    then bounds and R ratios listed per perturbation (None first, for the trace-normalized row), from
    one stacked ``eigh`` of ``reg`` and its perturbations, one ``density_values`` and one ``eigvalsh``."""
    lam, v = spectral._eigh(np.concatenate([reg.matrix[None], reg.matrix + dc]))
    rho, log_z = density.density_values(lam, betas)
    rho = spectral._spectral_matrix(v[:, None], rho)
    perturbed = cov.matrix + dc
    tn_delta = perturbed / np.trace(perturbed, axis1=-2, axis2=-1)[:, None, None] - cov.matrix / np.trace(cov.matrix)
    norms = density._norm(np.linalg.eigvalsh(np.concatenate([dc[:, None], tn_delta[:, None], rho[1:] - rho[0]], axis=1)))
    norm_c, log_z = density._norm(lam).tolist(), log_z.tolist()
    bounds, ratios = [], []
    for k, norm_dc in enumerate(norms[:, 0].tolist(), 1):
        bounds += [None] + [
            density._error_bound(beta, reg.dim, norm_c[0], norm_c[k], norm_dc, log_z[0][i], log_z[k][i])
            for i, beta in enumerate(betas)
        ]
        ratios += [None] + [math.exp(log_z[k][i] - log_z[0][i]) for i in range(len(betas))]
    return norms, bounds, ratios


def run_stability(cfg: ExperimentConfig) -> RunTable:
    """Perturbation response of density operators vs the trace-normalized baseline.

    Per (trial, noise level): one symmetric perturbation with exact operator
    norm equal to the noise level, applied to a Gaussian sample covariance;
    records the density response per beta (with the error bound and measured
    partition ratio R) plus the trace-normalized covariance response.  A trial's
    perturbations come from one draw and are evaluated as one stack.
    """
    betas = cfg.betas or (-1.0, -0.1, 0.0, 0.1, 1.0, 5.0)
    noise_levels = cfg.noise_levels or (0.01, 0.05, 0.1, 0.2, 0.5)

    norms, bounds, ratios = [], [], []
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, t])
        data = gen_gaussian_data(cfg.dim, cfg.n_samples, "gaussian", seed=[cfg.seed, t, 1])
        cov = sample_covariance(data)
        # Density operators are invariant to uniform spectral shifts, so working
        # on the shift-regularized matrix changes none of the measured responses
        # while keeping Z >= 1, which is what makes the error bound valid.
        reg = shift_regularize(cov)
        dc = _symmetric_noise(rng, cfg.dim, noise_levels)
        try:
            trial_norms, trial_bounds, trial_ratios = _stability_responses(cov, reg, dc, betas)
        except ValueError:
            for k in range(len(dc)):
                _stability_responses(cov, reg, dc[k : k + 1], betas)
            raise
        norms.append(trial_norms)
        bounds += trial_bounds
        ratios += trial_ratios
    norms = np.array(norms)
    rows = [("trace_normalized", None)] + [("density", beta) for beta in betas]
    params = _columns(("trial", "noise", "row"), itertools.product(range(cfg.trials), noise_levels, rows))
    params["method"], params["beta"] = zip(*params.pop("row"))
    metrics = {
        "delta_c_norm": np.repeat(norms[..., 0], len(rows)),
        "delta_rho_norm": norms[..., 1:].ravel(),
        "bound_value": bounds,
        "r_ratio": ratios,
    }
    return RunTable("stability", cfg.seed, params, metrics)


def run_lipschitz(cfg: ExperimentConfig) -> RunTable:
    """Empirical check of |response difference| <= alpha |eigenvalue difference|.

    Each trial draws an eigenvalue pair and a random filter, evaluates both
    responses with a shared partition function from the two-point spectrum, and
    records the ratio against the Lipschitz constant; near-identical pairs and
    zero-alpha filters are skipped (0/0).
    """
    if cfg.max_filter_order < 1:
        raise ConfigError(f"/max_filter_order: must be >= 1, got {cfg.max_filter_order}")
    lo, hi = cfg.eigenvalue_range

    trials, rows = [], []
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, t])
        lam1, lam2 = rng.uniform(lo, hi, size=2)
        order = int(rng.integers(1, cfg.max_filter_order + 1))
        coeffs = rng.standard_normal(order + 1)
        beta = float(rng.uniform(*cfg.beta_range))
        spec = filtering.FilterSpec(coeffs=coeffs, beta=beta)
        alpha = filtering.lipschitz_alpha(spec)
        gap = abs(lam2 - lam1)
        if gap < 1e-12 or alpha == 0.0:
            continue
        log_z = density._log_partition(np.sort([lam1, lam2]), beta)
        diff = abs(
            filtering._log_frequency_response(spec, lam2, log_z)
            - filtering._log_frequency_response(spec, lam1, log_z)
        )
        trials.append(t)
        rows.append((lam1, lam2, beta, alpha, diff, diff / (alpha * gap)))
    metrics = _columns(("lambda1", "lambda2", "beta", "alpha", "response_diff", "ratio"), rows)
    return RunTable("lipschitz", cfg.seed, {"trial": trials}, metrics)


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


def run_surrogate(cfg: ExperimentConfig) -> RunTable:
    """Eigenvector convergence of the sample covariance to the graph Laplacian."""
    grid = cfg.sample_grid or (100, 2000, 20000)

    rows = []
    for t in range(cfg.trials):
        for n in grid:
            data, laplacian = gen_graph_stationary(
                cfg.dim, n, cfg.edge_prob, cfg.filter_coeffs, seed=[cfg.seed, t, n]
            )
            alignment, degenerate = matched_alignment(sample_covariance(data), laplacian, cfg.filter_coeffs)
            rows.append((float(degenerate), None if degenerate else alignment))
    params = _columns(("trial", "n_samples"), itertools.product(range(cfg.trials), grid))
    return RunTable("surrogate", cfg.seed, params, _columns(("degenerate", "alignment"), rows))


def _trace_normalized_eigh(pools: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(lambda[k, g], V[k, g])`` of trace_normalize(sample_covariance(pools[k, :grid[g]])).

    One stacked ``eigh`` with every check of the per-matrix path (the raw covariance's
    PSD check reads eigenvalues times trace); a failure reruns that path so the first
    failing matrix raises its own error.
    """
    try:
        covs = np.stack([covariance._covariance_array(pools[:, :n]) for n in grid], axis=1)
        traces = np.trace(covs, axis1=-2, axis2=-1)
        if not np.all(traces > 1e-14):
            raise DegenerateCovarianceError("zero-trace covariance")
        normalized = covs / traces[..., None, None]
        eigenvalues, eigenvectors = spectral._eigh(normalized)
        covariance._check_psd(eigenvalues * traces[..., None])
        covariance._check_psd(eigenvalues)
        if np.any(np.abs(np.trace(normalized, axis1=-2, axis2=-1) - 1.0) > 1e-10):
            raise ValueError("trace-normalized matrix must have unit trace")
    except ValueError:
        for pool in pools:
            for n in grid:
                trace_normalize(sample_covariance(DataMatrix(pool[:n])))
        raise
    return eigenvalues, eigenvectors


def run_regression(cfg: ExperimentConfig) -> RunTable:
    """Stability of density-shifted linear regression to covariance sample size.

    Per trial: fixed train/test sets with sparse standard-normal-feature ground
    truth and Gaussian label noise; the covariance is estimated from a separate
    nested pool whose size sweeps ``sample_grid``.  Each method maps features X
    through its transform and fits the same ridge readout; MAE is measured
    against noisy test labels.  The ridge floor is what separates the methods;
    an exact least-squares refit would be invariant to any invertible feature map.

    Every transform is V diag(f) V^T over the covariance's one eigenbasis V
    (f = rho - 1/Z per beta, or lambda for the trace-normalized covariance), so
    each fit is solved in that basis, (F A F + ridge n I) c = F V^T X^T (y - y_bar)
    with A = V^T X^T X V, and predicts through V F c; V's column signs cancel.  Per
    trial, one stacked ``eigh`` decomposes every covariance, one batched solve fits all.
    """
    if not 0 <= cfg.n_informative <= cfg.dim:
        raise ConfigError(f"/n_informative: must be in [0, dim = {cfg.dim}], got {cfg.n_informative}")
    for key in ("n_train", "n_test"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"/{key}: must be >= 1, got {getattr(cfg, key)}")
    betas = cfg.betas or (0.1, 1.0, 5.0, 15.0)
    noise_levels = cfg.noise_levels or (0.0, 5.0)
    grid = cfg.sample_grid or (25, 50, 100, 250, 1000)
    pool_size = max(max(grid), cfg.dim + 1)
    methods = ["raw_covariance"] + [f"density_beta_{beta:g}" for beta in betas]

    def draws(t: int, noise: float):
        rng = np.random.default_rng([cfg.seed, t, int(round(noise * 1000))])
        weights = np.zeros(cfg.dim)
        support = rng.choice(cfg.dim, cfg.n_informative, replace=False)
        weights[support] = rng.normal(0.0, cfg.weight_scale, cfg.n_informative)
        x_train = rng.standard_normal((cfg.n_train, cfg.dim))
        y_train = x_train @ weights + rng.normal(0.0, noise, cfg.n_train)
        x_test = rng.standard_normal((cfg.n_test, cfg.dim))
        y_test = x_test @ weights + rng.normal(0.0, noise, cfg.n_test)
        return x_train, y_train, x_test, y_test, rng.standard_normal((pool_size, cfg.dim))

    mae, baselines = [], []
    for t in range(cfg.trials):
        # Arrays stacked on a leading noise-level axis.
        x_train, y_train, x_test, y_test, pools = map(np.array, zip(*(draws(t, e) for e in noise_levels)))
        y_bar = np.mean(y_train, axis=-1)
        baselines.append(np.mean(np.abs(y_test - y_bar[:, None]), axis=-1))
        lam, v = _trace_normalized_eigh(pools, grid)
        rho, log_z = density.density_values(lam, betas)
        f = np.concatenate([lam[..., None, :], rho - np.exp(-log_z)[..., None]], axis=-2)
        v_t = np.swapaxes(v, -1, -2)
        a = v_t @ (np.swapaxes(x_train, -1, -2) @ x_train)[:, None] @ v
        b = v_t @ (np.swapaxes(x_train, -1, -2) @ (y_train - y_bar[:, None])[..., None])[:, None]
        system = f[..., :, None] * a[:, :, None] * f[..., None, :] + cfg.ridge * cfg.n_train * np.eye(cfg.dim)
        w = v[:, :, None] @ (f[..., None] * np.linalg.solve(system, f[..., None] * b[:, :, None]))
        pred = np.reshape(w, (len(noise_levels), -1, cfg.dim)) @ np.swapaxes(x_test, -1, -2)
        mae.append(np.mean(np.abs(pred + y_bar[:, None, None] - y_test[:, None]), axis=-1))
    params = _columns(
        ("trial", "noise", "n_cov", "method"), itertools.product(range(cfg.trials), noise_levels, grid, methods)
    )
    metrics = {"mae": np.ravel(mae), "baseline_mae": np.repeat(baselines, len(grid) * len(methods))}
    return RunTable("regression", cfg.seed, params, metrics)


def run_entropy_curve(cfg: ExperimentConfig) -> RunTable:
    """Density entropy over a beta grid for Gaussian/Exponential/Gamma covariances.

    Every (trial, family) sample covariance of the run is checked, shifted and
    checked again as one stack; the shifted matrices' PSD check already holds
    their spectra (eigvalsh order), which one ``density_values`` call maps.
    """
    if not cfg.families:
        raise ConfigError("/families: must be non-empty, got []")
    beta_grid = cfg.betas or tuple(np.linspace(0.0, 15.0, 16))
    items = list(itertools.product(range(cfg.trials), enumerate(cfg.families)))

    def data(t, f, family):
        return gen_gaussian_data(cfg.dim, cfg.n_samples, family, seed=[cfg.seed, t, f])

    try:
        samples = np.array([data(t, f, family).values for t, (f, family) in items])
        c, spectra = covariance._checked_spectra(covariance._covariance_array(samples))
        shifted = c - spectra.min(axis=-1)[..., None, None] * np.eye(cfg.dim)
        _, spectra = covariance._checked_spectra(shifted, covariance.Regularization.SHIFTED_MIN_EIG_ZERO)
        rho, _ = density.density_values(spectra, beta_grid)
    except ValueError:
        for t, (f, family) in items:
            density.density_values(shift_regularize(sample_covariance(data(t, f, family)))._eigenvalues, beta_grid)
        raise
    nats = entropy._shannon_nats(rho).ravel()
    params = _columns(("trial", "family", "beta"), itertools.product(range(cfg.trials), cfg.families, beta_grid))
    return RunTable("entropy_curve", cfg.seed, params, {"entropy_nats": nats, "entropy_bits": nats / math.log(2.0)})


def run_discrimination(cfg: ExperimentConfig) -> RunTable:
    """Two-regime entropy discrimination on windowed sample covariances.

    Regime 0 draws Gaussian windows with the base diagonal spectrum (singular by default,
    where log-det entropies diverge); regime 1 scales it elementwise by ``regime_scale``.
    Each window's sample covariance is scored by the trace-normalized entropy and by the
    density entropy at ``betas[0]`` (default 2.0), and each score's two regimes are
    separated by a best-direction threshold sweep (AUC): near-global scalings leave the
    naive score at chance while the density entropy tracks the absolute spectrum.

    Each window has its own seeded stream; one ``eigvalsh`` of the stacked covariances gives
    both scores and every check, so the density entropy reads ``eigvalsh`` eigenvalues where
    :func:`entropy.cvne` reads ``eigh`` ones (they can differ in the last bits).
    """
    beta = cfg.betas[0] if cfg.betas else 2.0
    base = np.asarray(cfg.base_spectrum, dtype=float)
    scale = np.asarray(cfg.regime_scale, dtype=float)
    if scale.shape != base.shape:
        raise ShapeError("regime_scale must match the base spectrum length")
    n, window, dim = cfg.n_windows, cfg.window, base.size
    if window < dim + 1:
        raise ValueError(f"window {window} too small for dim {dim} (need >= dim + 1)")
    if n < 1:
        raise ConfigError(f"/n_windows: must be >= 1, got {n}")
    samples = np.empty((2, n, window, dim))
    for regime, w in itertools.product((0, 1), range(n)):
        np.random.default_rng([cfg.seed, regime, w]).standard_normal(out=samples[regime, w])
    # A negative spectrum entry draws NaN, which the finiteness check names.
    with np.errstate(invalid="ignore"):
        samples *= np.sqrt(np.stack([base, base * scale]))[:, None, None, :]
    try:
        if not np.all(np.isfinite(samples)):
            raise ValueError("data matrix contains non-finite entries")
        s_naive, s_vne = entropy._window_entropies(covariance._covariance_array(samples), beta)
    except ValueError:
        for values in samples.reshape(-1, window, dim):
            entropy._window_entropies(covariance._covariance_array(DataMatrix(values=values).values), beta)
        raise
    # Rows: every regime-0 window, every regime-1 window, then the AUC row.
    pad = [None] * (2 * n)
    params = {"regime": [0] * n + [1] * n + [None], "window_index": [*range(n)] * 2 + [None], "summary": pad + ["auc"]}
    metrics = {
        "s_naive_bits": [*s_naive.ravel().tolist(), None],
        "s_vne_bits": [*s_vne.ravel().tolist(), None],
        "auc_naive": pad + [entropy.threshold_auc(*s_naive)],
        "auc_vne": pad + [entropy.threshold_auc(*s_vne)],
    }
    return RunTable("discrimination", cfg.seed, params, metrics)


def run_betafit_demo(cfg: ExperimentConfig) -> RunTable:
    """Recover the inverse temperature matching a noisy spectrum to a clean one.

    Per trial: a Gaussian sample covariance is perturbed by symmetric noise;
    the fitted beta matches the noisy spectrum's density distribution to the
    trace-normalized clean spectrum, and the KL at the fit is compared with a
    grid of alternative betas.
    """
    noise_levels = cfg.noise_levels or (0.1,)

    rows = []
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, t])
        data = gen_gaussian_data(cfg.dim, cfg.n_samples, "gaussian", seed=[cfg.seed, t, 2])
        cov = sample_covariance(data)
        lam_true = cov._eigenvalues
        target = np.clip(lam_true, 0.0, None)
        target = target / target.sum()
        for eps in noise_levels:
            noisy = cov.matrix + _symmetric_noise(rng, cfg.dim, (eps,))[0]
            lam_noisy = np.linalg.eigvalsh(noisy)
            result = fit_beta(lam_noisy, target)
            kl_star = kl_to_density(lam_noisy, target, result.beta_star)
            others = rng.uniform(result.beta_star - 5.0, result.beta_star + 5.0, size=50)
            kl_others = float(np.min(kl_to_density(lam_noisy, target, others)))
            rows.append((result.beta_star, kl_star, kl_others, result.gradient_at_solution, result.iterations))
    params = _columns(("trial", "noise"), itertools.product(range(cfg.trials), noise_levels))
    metrics = _columns(("beta_star", "kl_at_fit", "kl_best_alternative", "gradient", "iterations"), rows)
    return RunTable("betafit_demo", cfg.seed, params, metrics)


RUNNERS = {
    "stability": run_stability,
    "lipschitz": run_lipschitz,
    "surrogate": run_surrogate,
    "regression": run_regression,
    "entropy_curve": run_entropy_curve,
    "discrimination": run_discrimination,
    "betafit_demo": run_betafit_demo,
}


def run_experiment(cfg: ExperimentConfig) -> RunTable:
    return RUNNERS[cfg.experiment](cfg)
