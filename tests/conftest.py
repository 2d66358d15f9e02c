import numpy as np
import pytest

from covdensity.covariance import CovarianceMatrix, DataMatrix, sample_covariance


def random_psd(rng, dim, n_factor=5) -> CovarianceMatrix:
    """Wishart-style random PSD matrix with plenty of samples (full rank)."""
    data = rng.standard_normal((n_factor * dim, dim))
    return sample_covariance(DataMatrix(values=data))


def random_low_rank(rng, dim, rank) -> CovarianceMatrix:
    """Gram matrix of a rank-deficient factor."""
    factor = rng.standard_normal((dim, rank))
    return CovarianceMatrix(matrix=factor @ factor.T)


def count_linalg_calls(monkeypatch, name):
    """Replace np.linalg.<name> with a wrapper that records each call's input shape."""
    calls = []
    original = getattr(np.linalg, name)

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
