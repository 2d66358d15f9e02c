import math
from types import SimpleNamespace

import numpy as np
import pytest

from covdensity.covariance import CovarianceMatrix, DataMatrix, sample_covariance
from covdensity.entropy import cvne, naive_entropy
from covdensity.lab import ExperimentConfig, run_discrimination
from covdensity.spectral import SpectralDecomposition


def random_psd(rng, dim, n_factor=5) -> CovarianceMatrix:
    """Wishart-style random PSD matrix with plenty of samples (full rank)."""
    data = rng.standard_normal((n_factor * dim, dim))
    return sample_covariance(DataMatrix(values=data))


def random_low_rank(rng, dim, rank) -> CovarianceMatrix:
    """Gram matrix of a rank-deficient factor."""
    factor = rng.standard_normal((dim, rank))
    return CovarianceMatrix(matrix=factor @ factor.T)


class LinalgCalls(list):
    """Input shapes of the recorded calls, in call order."""

    @property
    def matrices(self) -> int:
        """Matrices decomposed: each call's leading dims multiplied out, summed over calls."""
        return sum(math.prod(shape[:-2]) for shape in self)


def count_linalg_calls(monkeypatch, name):
    """Replace np.linalg.<name> with a wrapper that records each call's input shape."""
    calls = LinalgCalls()
    original = getattr(np.linalg, name)

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def table_rows(table):
    """A run table's rows, each with ``params`` and ``metrics`` dicts that leave out the names it lacks."""
    def cells(columns, i):
        return {k: c[i] for k, c in columns.items() if c[i] is not None}

    return [SimpleNamespace(params=cells(table.params, i), metrics=cells(table.metrics, i)) for i in range(len(table))]


def discrimination_scores(beta=2.0, **fields):
    """run_discrimination on ExperimentConfig(experiment="discrimination", betas=(beta,), **fields), read back
    from its table: the table, the (2, n_windows) naive and density scores by regime, and the two AUCs."""
    table = run_discrimination(ExperimentConfig(experiment="discrimination", betas=(beta,), **fields))
    rows = table_rows(table)
    naive, vne = (
        np.array([[r.metrics[name] for r in rows if r.params.get("regime") == regime] for regime in (0, 1)])
        for name in ("s_naive_bits", "s_vne_bits")
    )
    auc = next(r.metrics for r in rows if r.params.get("summary") == "auc")
    return SimpleNamespace(table=table, naive=naive, vne=vne, auc_naive=auc["auc_naive"], auc_vne=auc["auc_vne"])


def window_by_window(window, n_windows, beta, regime_scale, base_spectrum, seed):
    """The discrimination experiment as one public-API evaluation per window.

    Returns the naive scores, the density scores from cvne (which decomposes
    with eigh) and the density scores from cvne fed eigvalsh eigenvalues, each
    shaped (2, n_windows).
    """
    base = np.asarray(base_spectrum, dtype=float)
    spectra = (base, base * np.asarray(regime_scale, dtype=float))
    naive, vne_eigh, vne_eigvalsh = (np.empty((2, n_windows)) for _ in range(3))
    for regime in (0, 1):
        for w in range(n_windows):
            rng = np.random.default_rng([seed, regime, w])
            with np.errstate(invalid="ignore"):  # a negative entry draws NaN, which DataMatrix rejects
                samples = rng.standard_normal((window, base.size)) * np.sqrt(spectra[regime])
            cov = sample_covariance(DataMatrix(values=samples))
            naive[regime, w] = naive_entropy(cov)
            vne_eigh[regime, w] = cvne(cov, beta).entropy_bits
            spectrum = SpectralDecomposition(np.linalg.eigvalsh(cov.matrix), np.eye(base.size))
            vne_eigvalsh[regime, w] = cvne(spectrum, beta).entropy_bits
    return naive, vne_eigh, vne_eigvalsh
