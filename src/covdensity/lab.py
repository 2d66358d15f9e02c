"""Seeded desk-scale experiments producing run tables.

Each experiment is a pure function of its config: per-trial RNGs are derived
from (seed, trial index, ...) so trials are independent, order-insensitive,
and reproducible bit for bit.  A run comes back as a :class:`RunTable`, one
column per param and per metric, and is written from those columns: float
cells are written with repr, so ``float`` reads each one back exactly.

Stages with a stackable axis run once over it rather than once per item: within a trial, the stability perturbations,
the regression covariances, the surrogate Laplacians and then its covariances; across the whole run, every
entropy-curve and every discrimination covariance.  Stacks whose items carry a full matrix per beta or per sample size
stay per trial, and a draw that grows with a sample size passes through a block of at most ``_DRAW_BLOCK`` doubles
that it allocates itself, so a running trial holds one such block at a time.  The surrogate's trials, whose draws and
LAPACK calls release the GIL, run ``_WORKERS`` at a time on threads, each trial on its own.  A GIL-bound trial-by-trial
loop runs each trial in a helper whose arrays are freed before the next trial draws, and the stacked kernels (density
values, sample covariances, symmetrization) each work in one array in place.  A stacked stage runs each check over the
whole stack, and the first check that fails raises for its first failing item.

Trend claims (monotonicity, dominance) are properties of trial MEANS, not of
individual draws; the test suite asserts them over the configured trial
counts.
"""

from __future__ import annotations

import contextvars
import csv
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import covariance, density, entropy, filtering, spectral
from .betafit import fit_beta, kl_to_density
from .covariance import gen_gaussian_data, sample_covariance
from .errors import BetaRangeError, ConfigError, ShapeError, _Config

_DRAW_BLOCK = 2**16  # doubles (512 KB): the most of a draw that grows with a sample size one trial holds at once
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1  # usable cores


def _concurrent_trials(trial, trials: int):
    """``trial(t)`` for every t: trial 0 here, trials 1 to ``_WORKERS - 1`` on threads in copies of this context (its
    ``np.errstate``), then each thread's next trial.  No trial starts above a failed one; the lowest one re-raises."""
    results, errors, order = [None] * trials, {}, itertools.count(min(_WORKERS, trials))

    def work(t):
        while t < min(errors, default=trials):  # the int keys' min runs under the GIL in one step
            try:
                results[t] = trial(t)
            except Exception as exc:
                errors[t] = exc
            t = next(order)

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work, t))
               for t in range(1, min(_WORKERS, trials))]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return results


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

    Every column has one cell per row, in row order; a row that lacks a param or metric holds None there, and a column
    that no row has is dropped.  Param cells become floats (numbers and bools) or non-empty strings and metric cells
    floats; a metric cell that is not finite raises ValueError naming the first one, in row order and then column
    order, as a row-by-row check meets them.  ``headline`` is the runner's one result line, or None.
    """

    experiment: str
    seed: int
    params: dict
    metrics: dict
    headline: str | None = None

    def __post_init__(self):
        params = {k: [_canon(v) for v in c] for k, c in self.params.items()}
        metrics = {k: _metric_column(c) for k, c in self.metrics.items()}
        if any(v == "" for c in params.values() for v in c):
            raise ValueError("a param cell is the empty string, which results.csv cannot tell from a lacking cell")
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
    """Group rows by their param label ("k=v,..." over the row's given params, or "all") and average each metric."""
    names = sorted(table.params)
    groups: dict = {}
    for i, values in enumerate(zip(*(table.params[k] for k in names)) if names else [()] * len(table)):
        label = ",".join(f"{k}={v}" for k, v in zip(names, values) if v is not None)
        groups.setdefault(label or "all", []).append(i)
    metrics = sorted(table.metrics.items())
    summary = {}
    for label, rows in groups.items():
        if len(rows) == 1:
            # np.mean of one value is the value + 0.0, bit for bit (-0.0 becomes 0.0).
            summary[label] = {m: c[rows[0]] + 0.0 for m, c in metrics if c[rows[0]] is not None}
        else:
            cells = {m: [c[i] for i in rows if c[i] is not None] for m, c in metrics}
            summary[label] = {m: float(np.mean(v)) for m, v in cells.items() if v}
        summary[label]["n_records"] = len(rows)
    return summary


def _symmetric_noise(rng, dim: int, norms) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric perturbations scaled to operator norms ``norms``, from one ``(len(norms), dim, dim)`` draw, and the
    norms they were built with.  Each draw's norm is its largest |eigenvalue| (``eigvalsh``); an all-zero draw stays
    zero, with norm 0."""
    e = rng.standard_normal((len(norms), dim, dim))
    e = (e + np.swapaxes(e, -1, -2)) / 2.0
    scale = spectral._norm(np.linalg.eigvalsh(e))
    norms = np.where(scale == 0.0, 0.0, norms)
    factor, scale = norms[:, None, None], np.where(scale == 0.0, 1.0, scale)[:, None, None]
    # Near the largest double norms * e can overflow where the entry is finite; only there use norms * (e / scale).
    with np.errstate(over="ignore"):
        noise = factor * e / scale
    return np.where(np.isfinite(noise), noise, factor * (e / scale)), norms


def _stability_responses(c, dc, norms_dc, betas) -> tuple[np.ndarray, list, list]:
    """Norms ``(K, 1 + n_beta)`` of the trace-normalized and each beta's response of C to K perturbations ``dc`` of
    operator norms ``norms_dc``, then bounds and R ratios listed per perturbation (None first, for the trace-normalized
    row), from one stacked ``eigh`` of C and C + dC, one ``density_values`` and one ``eigvalsh``.  C's spectrum is
    checked as a CovarianceMatrix checks it, then every spectrum is shifted by lambda_min(C): rho_beta and Z'/Z do not
    change under C -> C - s I, and the bound reads the norms of C - lambda_min I and C + dC - lambda_min I."""
    perturbed = c + dc
    lam, v = spectral._eigh(np.concatenate([c[None], perturbed]))
    covariance._check_psd(lam[0])
    lam -= lam[0, 0]
    rho, log_z = density.density_values(lam, betas)
    rho = spectral._spectral_matrix(v[:, None], rho)
    tn_delta = perturbed / np.trace(perturbed, axis1=-2, axis2=-1)[:, None, None] - c / np.trace(c)
    norms = spectral._norm(np.linalg.eigvalsh(np.concatenate([tn_delta[:, None], rho[1:] - rho[0]], axis=1)))
    norm_c, log_z = spectral._norm(lam).tolist(), log_z.tolist()
    bounds, ratios = [], []
    for k, norm_dc in enumerate(norms_dc.tolist(), 1):
        bounds.append(None)
        ratios.append(None)
        for i, beta in enumerate(betas):
            ratios.append(density._exp("Z'/Z", log_z[k][i] - log_z[0][i]))
            bounds.append(density._error_bound(beta, c.shape[-1], norm_c[0], norm_c[k], norm_dc, ratios[-1]))
    return norms, bounds, ratios


@dataclass(frozen=True)
class StabilityConfig(_Config):
    dim: int = 20
    n_samples: int = 40
    betas: tuple[float, ...] = (-1.0, -0.1, 0.0, 0.1, 1.0, 5.0)
    noise_levels: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2, 0.5)
    trials: int = 100


def run_stability(cfg: StabilityConfig) -> RunTable:
    """Perturbation response of density operators vs the trace-normalized baseline.

    Per (trial, noise level): one symmetric perturbation scaled to operator
    norm equal to the noise level, applied to a Gaussian sample covariance;
    records the density response per beta (with the error bound and measured
    partition ratio R) plus the trace-normalized covariance response.  A trial's
    perturbations come from one draw and are evaluated as one stack.
    """
    def trial(t: int):  # its arrays die when it returns, before the next trial draws
        data = gen_gaussian_data(cfg.dim, cfg.n_samples, "gaussian", seed=[cfg.seed, t, 1])
        c = covariance._covariance_array(data.values)
        noise, norms_dc = _symmetric_noise(np.random.default_rng([cfg.seed, t]), cfg.dim, cfg.noise_levels)
        # The error bound can miss for beta > 0 once C + dC is indefinite (see density._error_bound).
        return norms_dc, *_stability_responses(c, noise, norms_dc, cfg.betas)

    norms_dc, norms, bounds, ratios = zip(*map(trial, range(cfg.trials)))
    rows = [("trace_normalized", None)] + [("density", beta) for beta in cfg.betas]
    params = _columns(("trial", "noise", "row"), itertools.product(range(cfg.trials), cfg.noise_levels, rows))
    params["method"], params["beta"] = zip(*params.pop("row"))
    metrics = {
        "delta_c_norm": np.repeat(norms_dc, len(rows)),
        "delta_rho_norm": np.ravel(norms),
        "bound_value": itertools.chain(*bounds),
        "r_ratio": itertools.chain(*ratios),
    }
    return RunTable("stability", cfg.seed, params, metrics)


@dataclass(frozen=True)
class LipschitzConfig(_Config):
    trials: int = 100
    max_filter_order: int = 5
    beta_range: tuple[float, float] = (-3.0, 3.0)
    eigenvalue_range: tuple[float, float] = (0.0, 10.0)


def run_lipschitz(cfg: LipschitzConfig) -> RunTable:
    """Empirical check of |response difference| <= alpha |eigenvalue difference|.

    Each trial draws an eigenvalue pair and a random filter, evaluates both responses at the density eigenvalues of
    the two-point spectrum, and records the ratio against the Lipschitz constant.  Zero-alpha filters and pairs whose
    gap is at most 1e-12 of their larger |eigenvalue| (ties included) are skipped, as 0/0 or a quotient of rounding
    errors; with no absolute floor, eigenvalues times 2**k and betas times 2**-k keep the same trials.  The headline
    is the largest ratio over the kept trials and their count, None where no trial is kept.
    """
    trials, rows = [], []
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, t])
        lam1, lam2 = rng.uniform(*cfg.eigenvalue_range, size=2)
        order = int(rng.integers(1, cfg.max_filter_order + 1))
        coeffs = rng.standard_normal(order + 1)
        beta = float(rng.uniform(*cfg.beta_range))
        spec = filtering.FilterSpec(coeffs=coeffs, beta=beta)
        with np.errstate(over="ignore"):
            alpha = filtering.lipschitz_alpha(spec)
        gap = float(abs(lam2 - lam1))
        if gap <= 1e-12 * max(abs(lam1), abs(lam2)) or alpha == 0.0:
            continue
        if math.isinf(alpha):
            raise ConfigError(f"/beta_range: alpha = sum_k |h_k| |beta k| overflows a double at beta = {beta:.6g}")
        try:
            rho = density.density_values([lam1, lam2], (beta,))[0][0]
        except BetaRangeError as exc:  # beta * lambda overflows: name the range of the larger factor
            raise ConfigError(f"/{'eigenvalue' if max(abs(lam1), abs(lam2)) > abs(beta) else 'beta'}_range: {exc}")
        r = filtering.polynomial_response(spec, rho)
        diff = abs(float(r[1] - r[0]))
        trials.append(t)
        bound = alpha * gap  # past the largest double, the ratio is formed in two steps
        rows.append((lam1, lam2, beta, alpha, diff, diff / bound if math.isfinite(bound) else diff / alpha / gap))
    metrics = _columns(("lambda1", "lambda2", "beta", "alpha", "response_diff", "ratio"), rows)
    headline = f"max_ratio={max(row[-1] for row in rows):.6f} n={len(rows)}" if rows else None
    return RunTable("lipschitz", cfg.seed, {"trial": trials}, metrics, headline)


def matched_alignment(scores, w):
    """Mean |<u_i, v_i>| between matched covariance and Laplacian eigenvectors, and a degenerate flag, per item.

    ``scores`` is g(lambda)^2, the population covariance's eigenvalues, at each Laplacian's ascending eigenvalues, ``w``
    the covariance's ascending eigenvectors in that Laplacian's eigenbasis (<u_i, v_j> = w[i, j]).  The j-th smallest
    score is matched to the j-th smallest covariance eigenvalue (reversed when g decreases); degenerate flags population
    ties, where matching is ill-defined: adjacent scores within 1e-9 * max|score|, no floor, an exact tie included.
    """
    order = np.argsort(scores, axis=-1, kind="stable")
    scale = np.max(np.abs(scores), axis=-1, keepdims=True)
    degenerate = np.any(np.diff(np.take_along_axis(scores, order, axis=-1), axis=-1) <= 1e-9 * scale, axis=-1)
    return np.mean(np.abs(np.take_along_axis(w, order[..., None, :], axis=-2)[..., 0, :]), axis=-1), degenerate


def _white_covariance(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Centred covariance (divisor n) of n standard normal rows of width ``dim`` drawn into a block of at most
    ``_DRAW_BLOCK`` doubles that it allocates, which consumes ``rng`` as one ``(n, dim)`` draw does: S_w = G / n -
    mu mu^T from the blocks' summed Grams and column sums n mu.  White |mu| = O(n^-1/2), so nothing cancels."""
    block, gram, total = np.empty((min(max(1, _DRAW_BLOCK // dim), n), dim)), np.zeros((dim, dim)), np.zeros(dim)
    for count in range(0, n, len(block)):
        w = rng.standard_normal(out=block[: n - count])
        gram += w.T @ w
        total += w.sum(axis=0)
    return gram / n - np.outer(total / n, total / n)


@dataclass(frozen=True)
class SurrogateConfig(_Config):
    dim: int = 20
    sample_grid: tuple[int, ...] = (100, 2000, 20000)
    trials: int = 100
    edge_prob: float = 0.5
    filter_coeffs: tuple[float, ...] = (1.0, 0.5)


def run_surrogate(cfg: SurrogateConfig) -> RunTable:
    """Eigenvector convergence of the sample covariance to the graph Laplacian.

    Each (trial, n) draws its graph, then white noise w, folded into S_w block by block; the data x = g(L) w is
    never formed, nor is its covariance C = g(L) S_w g(L)^T = V C' V^T with C' = diag(g) V^T S_w V diag(g), since
    g(L) shares L's eigenbasis V.  Per trial, one stacked ``eigh`` decomposes the Laplacians, g is evaluated once
    on their spectra, and a second stacked ``eigh`` decomposes the C', whose eigenvectors are C's in the basis V.

    A row is flagged degenerate, with no alignment, where the matching is ill-defined: at population eigenvalue
    ties (see :func:`matched_alignment`), and at n <= dim, where the centred sample covariance has rank at most
    n - 1 and rounding alone picks the eigenvectors of its null space.  The headline is the mean alignment per n over
    the rows that have one ("none" where every row at that n is degenerate).
    """
    spec = filtering.FilterSpec(coeffs=cfg.filter_coeffs, beta=0.0)

    def trial(t: int) -> list:
        laplacians, s_w = (np.empty((len(cfg.sample_grid), cfg.dim, cfg.dim)) for _ in range(2))
        for i, n in enumerate(cfg.sample_grid):
            rng = np.random.default_rng([cfg.seed, t, n])
            laplacians[i] = covariance._connected_laplacian(cfg.dim, cfg.edge_prob, rng)
            s_w[i] = _white_covariance(rng, n, cfg.dim)
        lam, v = spectral._eigh(laplacians)
        with np.errstate(over="ignore", invalid="ignore"):
            g = filtering.polynomial_response(spec, lam)
            scores = np.square(g)  # the population covariance's eigenvalues
            covs = (np.swapaxes(v, -1, -2) @ s_w @ v) * g[..., :, None] * g[..., None, :]  # g_i g_j alone can overflow
        if not np.all(np.isfinite(g)):
            raise ValueError(f"filter_coeffs: the filter g(L) overflows a double, got {spec.coeffs.tolist()}")
        if not np.all(np.isfinite(scores)):
            raise ValueError(f"filter_coeffs: the population covariance g(L)^2 overflows a double, "
                             f"got {list(cfg.filter_coeffs)}")
        if not np.all(np.isfinite(covs)):
            raise ValueError("sample covariance overflows a double")
        mu, w = spectral._eigh(covs)
        covariance._check_psd(mu)
        alignment, degenerate = matched_alignment(scores, w)
        degenerate |= np.array(cfg.sample_grid) <= cfg.dim
        return [(float(d), None if d else a) for a, d in zip(alignment.tolist(), degenerate.tolist())]

    rows = [row for trial_rows in _concurrent_trials(trial, cfg.trials) for row in trial_rows]
    by_n = {n: [] for n in sorted(cfg.sample_grid)}
    for n, (_, alignment) in zip(itertools.cycle(cfg.sample_grid), rows):
        if alignment is not None:
            by_n[n].append(alignment)
    headline = "mean_alignment " + " ".join(f"n={n}:{np.mean(v):.4f}" if v else f"n={n}:none" for n, v in by_n.items())
    params = _columns(("trial", "n_samples"), itertools.product(range(cfg.trials), cfg.sample_grid))
    return RunTable("surrogate", cfg.seed, params, _columns(("degenerate", "alignment"), rows), headline)


@dataclass(frozen=True)
class RegressionConfig(_Config):
    dim: int = 20
    sample_grid: tuple[int, ...] = (25, 50, 100, 250, 1000)
    betas: tuple[float, ...] = (0.1, 1.0, 5.0, 15.0)
    noise_levels: tuple[float, ...] = (0.0, 5.0)
    trials: int = 100
    n_informative: int = 5
    n_train: int = 100
    n_test: int = 500
    ridge: float = 2e-4
    weight_scale: float = 0.7

    def _rules(self):
        yield "n_informative", 0 <= self.n_informative <= self.dim, (
            f"must be in [0, dim = {self.dim}], got {self.n_informative}")
        yield "n_train", self.n_train <= sys.float_info.max, f"must be a count a double holds, got {self.n_train}"
        yield "ridge", math.isfinite(float(self.ridge) * self.n_train), (  # the ridge term of every fit's system
            f"ridge * n_train must be finite, got {self.ridge!r} * {self.n_train}")
        yield "noise_levels", all(math.isfinite(float(e) * 1000) for e in self.noise_levels), (  # each level's seed
            f"entries * 1000 must be finite to seed the draws, got {list(self.noise_levels)}")


def run_regression(cfg: RegressionConfig) -> RunTable:
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
    betas, noise_levels, grid = cfg.betas, cfg.noise_levels, cfg.sample_grid
    pool_size = max(max(grid), cfg.dim + 1)
    methods = [("raw_covariance", None)] + [("density", beta) for beta in betas]

    def draws(t: int, noise: float):
        rng = np.random.default_rng([cfg.seed, t, int(round(noise * 1000))])
        weights = np.zeros(cfg.dim)
        support = rng.choice(cfg.dim, cfg.n_informative, replace=False)
        weights[support] = rng.normal(0.0, cfg.weight_scale, cfg.n_informative)
        x_train = rng.standard_normal((cfg.n_train, cfg.dim))
        with np.errstate(over="ignore", invalid="ignore"):  # a label that overflows reaches both metrics, checked below
            y_train = x_train @ weights + rng.normal(0.0, noise, cfg.n_train)
            x_test = rng.standard_normal((cfg.n_test, cfg.dim))
            y_test = x_test @ weights + rng.normal(0.0, noise, cfg.n_test)
        return x_train, y_train, x_test, y_test, rng.standard_normal((pool_size, cfg.dim))

    def trial(t: int):  # its arrays die when it returns, before the next trial draws
        # Arrays stacked on a leading noise-level axis.
        x_train, y_train, x_test, y_test, pools = map(np.array, zip(*(draws(t, e) for e in noise_levels)))
        covs = np.stack([covariance._covariance_array(pools[:, :n]) for n in grid], axis=1)
        covs, traces = covariance._trace_normalized(covs)
        lam, v = spectral._eigh(covs)
        covariance._check_psd(lam * traces[..., None])
        rho, log_z = density.density_values(lam, betas)
        density._exp("/betas: 1/Z", float(np.max(-log_z)))  # a beta whose 1/Z overflows is a range error
        f = np.concatenate([lam[..., None, :], rho - np.exp(-log_z)[..., None]], axis=-2)
        v_t = np.swapaxes(v, -1, -2)
        a = v_t @ (np.swapaxes(x_train, -1, -2) @ x_train)[:, None] @ v
        system = f[..., :, None] * a[:, :, None] * f[..., None, :] + cfg.ridge * cfg.n_train * np.eye(cfg.dim)
        # Finite labels can overflow in their sums and in the fit; the non-finite values reach both metrics
        # (np.linalg.solve raises only for a singular system, and the system holds no label).
        with np.errstate(over="ignore", invalid="ignore"):
            y_bar = np.mean(y_train, axis=-1)
            baseline = np.mean(np.abs(y_test - y_bar[:, None]), axis=-1)
            b = v_t @ (np.swapaxes(x_train, -1, -2) @ (y_train - y_bar[:, None])[..., None])[:, None]
            w = v[:, :, None] @ (f[..., None] * np.linalg.solve(system, f[..., None] * b[:, :, None]))
            pred = np.reshape(w, (len(noise_levels), -1, cfg.dim)) @ np.swapaxes(x_test, -1, -2)
            pred += y_bar[:, None, None]
            pred -= y_test[:, None]
            trial_mae = np.mean(np.abs(pred, out=pred), axis=-1)
        if not (np.all(np.isfinite(baseline)) and np.all(np.isfinite(trial_mae))):
            raise ConfigError(f"/weight_scale: the labels overflow a double, got {cfg.weight_scale!r}")
        return trial_mae, baseline

    mae, baselines = zip(*map(trial, range(cfg.trials)))
    params = _columns(
        ("trial", "noise", "n_cov", "row"), itertools.product(range(cfg.trials), noise_levels, grid, methods)
    )
    params["method"], params["beta"] = zip(*params.pop("row"))
    metrics = {"mae": np.ravel(mae), "baseline_mae": np.repeat(baselines, len(grid) * len(methods))}
    return RunTable("regression", cfg.seed, params, metrics)


@dataclass(frozen=True)
class EntropyCurveConfig(_Config):
    dim: int = 20
    n_samples: int = 40
    betas: tuple[float, ...] = tuple(np.linspace(0.0, 15.0, 16).tolist())
    trials: int = 100
    families: tuple[str, ...] = ("gaussian", "exponential", "gamma")

    def _rules(self):
        yield "families", set(self.families) <= set(covariance._FAMILIES), (
            f"entries must be {' or '.join(map(repr, covariance._FAMILIES))}, got {list(self.families)}")


def run_entropy_curve(cfg: EntropyCurveConfig) -> RunTable:
    """Density entropy over a beta grid for Gaussian/Exponential/Gamma covariances.

    Every (trial, family) sample covariance of the run is checked as one stack,
    whose PSD check already holds their spectra (eigvalsh order), which one
    ``density_values`` call maps.
    """
    items = list(itertools.product(range(cfg.trials), enumerate(cfg.families)))

    samples = np.empty((len(items), cfg.n_samples, cfg.dim))
    for out, (t, (f, family)) in zip(samples, items):
        out[...] = gen_gaussian_data(cfg.dim, cfg.n_samples, family, seed=[cfg.seed, t, f]).values
    _, spectra = covariance._checked_spectra(covariance._covariance_array(samples))
    rho, _ = density.density_values(spectra, cfg.betas)
    nats = entropy._shannon_nats(rho).ravel()
    params = _columns(("trial", "family", "beta"), itertools.product(range(cfg.trials), cfg.families, cfg.betas))
    return RunTable("entropy_curve", cfg.seed, params, {"entropy_nats": nats, "entropy_bits": nats / math.log(2.0)})


@dataclass(frozen=True)
class DiscriminationConfig(_Config):
    beta: float = 2.0
    window: int = 128
    n_windows: int = 500
    regime_scale: tuple[float, ...] = (1.3, 1.2, 1.1)
    base_spectrum: tuple[float, ...] = (1.0, 1.0, 0.0)

    def _rules(self):
        dim = len(self.base_spectrum)
        yield "regime_scale", len(self.regime_scale) == dim, f"must match the base spectrum length {dim}"
        yield "window", self.window >= dim + 1, f"too small for dim {dim} (need >= dim + 1), got {self.window}"
        yield "regime_scale", all(math.isfinite(float(b) * s) for b, s in zip(self.base_spectrum, self.regime_scale)), (
            f"base_spectrum * regime_scale must be finite, got {list(self.base_spectrum)} * {list(self.regime_scale)}")


def run_discrimination(cfg: DiscriminationConfig) -> RunTable:
    """Two-regime entropy discrimination on windowed sample covariances.

    Regime 0 draws Gaussian windows with the base diagonal spectrum (singular by default, where log-det entropies
    diverge); regime 1 scales it elementwise by ``regime_scale``.  Each window's sample covariance is scored by the
    trace-normalized entropy and by the density entropy at ``beta``, and each score's two regimes are separated by a
    best-direction threshold sweep (AUC): near-global scalings leave the naive score at chance while the density
    entropy tracks the absolute spectrum.  The headline is the two AUCs, the table's last row.

    Each window has its own seeded stream; windows are drawn into covariances a chunk of at most ``_DRAW_BLOCK``
    doubles at a time.  One ``eigvalsh`` of the stacked covariances gives both scores and every check.
    """
    sd = np.sqrt(np.array([cfg.base_spectrum, cfg.regime_scale], dtype=float).cumprod(axis=0))  # base, base * scale
    n, window, dim = cfg.n_windows, cfg.window, sd.shape[1]
    chunk = max(1, _DRAW_BLOCK // (window * dim))
    covs, block = np.empty((2, n, dim, dim)), np.empty((min(chunk, n), window, dim))
    for regime, start in itertools.product((0, 1), range(0, n, chunk)):
        samples = block[: n - start]
        for w, out in enumerate(samples, start):
            np.random.default_rng([cfg.seed, regime, w]).standard_normal(out=out)
        samples *= sd[regime]
        covs[regime, start : start + len(samples)] = covariance._covariance_array(samples)
    s_naive, s_vne = entropy._window_entropies(covs, cfg.beta)
    # Rows: every regime-0 window, every regime-1 window, then the AUC row.
    auc_naive, auc_vne = entropy.threshold_auc(*s_naive), entropy.threshold_auc(*s_vne)
    pad = [None] * (2 * n)
    params = {"regime": [0] * n + [1] * n + [None], "window_index": [*range(n)] * 2 + [None], "summary": pad + ["auc"]}
    metrics = {
        "s_naive_bits": [*s_naive.ravel().tolist(), None],
        "s_vne_bits": [*s_vne.ravel().tolist(), None],
        "auc_naive": pad + [auc_naive],
        "auc_vne": pad + [auc_vne],
    }
    headline = f"auc_naive={auc_naive:.4f} auc_vne={auc_vne:.4f}"
    return RunTable("discrimination", cfg.seed, params, metrics, headline)


@dataclass(frozen=True)
class BetafitDemoConfig(_Config):
    dim: int = 20
    n_samples: int = 40
    noise_levels: tuple[float, ...] = (0.1,)
    trials: int = 100


def run_betafit_demo(cfg: BetafitDemoConfig) -> RunTable:
    """Recover the inverse temperature matching a noisy spectrum to a clean one.

    Per trial: a Gaussian sample covariance is perturbed by symmetric noise;
    the fitted beta matches the noisy spectrum's density distribution to the
    trace-normalized clean spectrum, and the KL at the fit is compared with a
    grid of alternative betas.
    """
    def trial(t: int):  # its arrays die once it is exhausted, before the next trial draws
        rng = np.random.default_rng([cfg.seed, t])
        cov = sample_covariance(gen_gaussian_data(cfg.dim, cfg.n_samples, "gaussian", seed=[cfg.seed, t, 2]))
        target = entropy._clipped_distribution(cov._eigenvalues)
        for eps in cfg.noise_levels:
            lam_noisy = np.linalg.eigvalsh(cov.matrix + _symmetric_noise(rng, cfg.dim, (eps,))[0][0])
            result = fit_beta(lam_noisy, target)
            kl_star = kl_to_density(lam_noisy, target, result.beta_star)
            others = rng.uniform(result.beta_star - 5.0, result.beta_star + 5.0, size=50)
            kl_others = float(np.min(kl_to_density(lam_noisy, target, others)))
            yield result.beta_star, kl_star, kl_others, result.gradient_at_solution, result.iterations

    rows = [row for t in range(cfg.trials) for row in trial(t)]
    params = _columns(("trial", "noise"), itertools.product(range(cfg.trials), cfg.noise_levels))
    metrics = _columns(("beta_star", "kl_at_fit", "kl_best_alternative", "gradient", "iterations"), rows)
    return RunTable("betafit_demo", cfg.seed, params, metrics)


RUNNERS = {  # experiment name: (its config, its runner)
    "stability": (StabilityConfig, run_stability),
    "lipschitz": (LipschitzConfig, run_lipschitz),
    "surrogate": (SurrogateConfig, run_surrogate),
    "regression": (RegressionConfig, run_regression),
    "entropy_curve": (EntropyCurveConfig, run_entropy_curve),
    "discrimination": (DiscriminationConfig, run_discrimination),
    "betafit_demo": (BetafitDemoConfig, run_betafit_demo),
}
