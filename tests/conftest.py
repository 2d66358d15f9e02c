import math
from types import SimpleNamespace

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
