"""Sample covariance estimation, regularizations, and synthetic data generators.

The estimator divides by ``n`` (not ``n - 1``); downstream formulas assume that
convention.  Two regularizations are provided: subtracting the minimum
eigenvalue (so min lambda = 0, which leaves density operators and their
entropies unchanged) and trace normalization (used as the plain-covariance
baseline in experiments).

All generators take an explicit seed and never touch global RNG state, so
trials can run in parallel and reproduce exactly.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import spectral
from .errors import (
    DegenerateCovarianceError,
    GraphGenerationError,
    InsufficientDataError,
    ShapeError,
)

# PSD tolerance: min eigenvalue may undershoot zero by this fraction of ||C||.
PSD_RTOL = 1e-8

_CONNECTED_RETRY_BUDGET = 100


class Regularization(str, Enum):
    RAW = "raw"
    SHIFTED_MIN_EIG_ZERO = "shifted_min_eig_zero"
    TRACE_NORMALIZED = "trace_normalized"


@dataclass(frozen=True)
class DataMatrix:
    """Observations by variables: rows are samples, columns are variables."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ShapeError(f"data matrix must be 2-D, got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ShapeError(f"data matrix must be non-empty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("data matrix contains non-finite entries")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric PSD matrix with its regularization provenance.

    ``min_eig_shift`` records the uniform shift applied by
    :func:`shift_regularize` (0 for anything else).
    """

    matrix: np.ndarray
    regularization: Regularization = Regularization.RAW
    min_eig_shift: float = 0.0
    # The spectrum the PSD check computed, kept so shift_regularize need not recompute it.
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, eigenvalues = _checked_spectra(spectral._as_square_array(self.matrix), self.regularization)
        m.flags.writeable = False
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_eigenvalues", eigenvalues)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_psd(eigenvalues: np.ndarray):
    """Raise unless each ascending spectrum (last axis) has min eigenvalue >= -tolerance.

    The tolerance, PSD_RTOL * max(1, ||C||) per spectrum, is returned.
    """
    tolerance = PSD_RTOL * np.maximum(1.0, np.max(np.abs(eigenvalues), axis=-1))
    failing = np.flatnonzero(eigenvalues[..., 0] < -tolerance)
    if failing.size:
        min_eig = float(np.ravel(eigenvalues[..., 0])[failing[0]])
        raise ValueError(f"matrix is not PSD within tolerance: min eigenvalue {min_eig:.3e}")
    return tolerance


def _checked_spectra(matrices: np.ndarray, regularization=Regularization.RAW):
    """Symmetrize a finite stack of matrices and check each as CovarianceMatrix checks one.

    Returns the symmetrized stack and its ``eigvalsh`` spectra; a failure names the first failing matrix.
    """
    m = spectral._symmetrize(matrices)
    eigenvalues = np.linalg.eigvalsh(m)
    tolerance = _check_psd(eigenvalues)
    if regularization == Regularization.SHIFTED_MIN_EIG_ZERO:
        failing = np.flatnonzero(np.abs(eigenvalues[..., 0]) > tolerance)
        if failing.size:
            min_eig = float(np.ravel(eigenvalues[..., 0])[failing[0]])
            raise ValueError(f"shift-regularized matrix has min eigenvalue {min_eig:.3e}, expected 0")
    if regularization == Regularization.TRACE_NORMALIZED:
        if np.any(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0) > 1e-10):
            raise ValueError("trace-normalized matrix must have unit trace")
    return m, eigenvalues


def as_matrix(c) -> np.ndarray:
    """Accept a CovarianceMatrix or a plain symmetric array; return the array."""
    if isinstance(c, CovarianceMatrix):
        return c.matrix
    return spectral.symmetrize(c)


def sample_covariance(data: DataMatrix) -> CovarianceMatrix:
    """Centered sample covariance with divisor n.

    Raises:
        InsufficientDataError: fewer than two observations.
    """
    if data.n_samples < 2:
        raise InsufficientDataError(
            f"need at least 2 observations, got {data.n_samples}"
        )
    return CovarianceMatrix(matrix=_covariance_array(data.values))


def _covariance_array(x: np.ndarray) -> np.ndarray:
    """The symmetric centered sample covariance (divisor n) of an observations-by-variables array.

    Arrays stacked on leading axes give a stack of covariances, each bit for bit as a 2-D call.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=-2, keepdims=True)
        c = np.swapaxes(centered, -1, -2) @ centered / x.shape[-2]
    if not np.all(np.isfinite(c)):
        raise ValueError("sample covariance overflows a double")
    return (c + np.swapaxes(c, -1, -2)) / 2.0


def shift_regularize(cov: CovarianceMatrix) -> CovarianceMatrix:
    """Subtract (min eigenvalue) * I so the smallest eigenvalue is zero.

    The shift leaves the density operator and its entropy unchanged while
    guaranteeing a partition function >= 1 for beta > 0.  The minimum is read
    from the spectrum ``cov``'s PSD check computed.
    """
    m = cov.matrix
    shift = float(np.min(cov._eigenvalues))
    out = m - shift * np.eye(cov.dim)
    return CovarianceMatrix(
        matrix=out,
        regularization=Regularization.SHIFTED_MIN_EIG_ZERO,
        min_eig_shift=shift,
    )


def trace_normalize(cov: CovarianceMatrix) -> CovarianceMatrix:
    """Divide by the trace so the result has unit trace.

    Raises:
        DegenerateCovarianceError: trace is (numerically) zero.
    """
    tr = float(np.trace(cov.matrix))
    if tr <= 1e-14:
        raise DegenerateCovarianceError(f"trace {tr:.3e} too small to normalize")
    return CovarianceMatrix(
        matrix=cov.matrix / tr, regularization=Regularization.TRACE_NORMALIZED
    )


_FAMILIES = ("gaussian", "exponential", "gamma")


def gen_gaussian_data(
    dim: int, n_samples: int, spectrum_family: str = "gaussian", seed: int = 0
) -> DataMatrix:
    """I.i.d. draws with unit-parameter defaults per family.

    gaussian: standard normal; exponential: rate 1; gamma: shape 2, scale 1.
    """
    if spectrum_family not in _FAMILIES:
        raise ValueError(f"unknown family {spectrum_family!r}, expected one of {_FAMILIES}")
    if dim < 1 or n_samples < 2:
        raise ValueError("need dim >= 1 and n_samples >= 2")
    rng = np.random.default_rng(seed)
    if spectrum_family == "gaussian":
        values = rng.standard_normal((n_samples, dim))
    elif spectrum_family == "exponential":
        values = rng.exponential(scale=1.0, size=(n_samples, dim))
    else:
        values = rng.gamma(shape=2.0, scale=1.0, size=(n_samples, dim))
    return DataMatrix(values=values)


def _erdos_renyi_laplacian(dim: int, edge_prob: float, rng: np.random.Generator):
    adjacency = np.zeros((dim, dim))
    iu = np.triu_indices(dim, k=1)
    edges = rng.random(len(iu[0])) < edge_prob
    adjacency[iu] = edges.astype(float)
    adjacency += adjacency.T
    degree = np.diag(adjacency.sum(axis=1))
    return degree - adjacency, adjacency


def _is_connected(adjacency: np.ndarray) -> bool:
    dim = adjacency.shape[0]
    if dim <= 1:
        return True
    seen = np.zeros(dim, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        node = stack.pop()
        for nbr in np.nonzero(adjacency[node] > 0)[0]:
            if not seen[nbr]:
                seen[nbr] = True
                stack.append(int(nbr))
    return bool(seen.all())


def gen_graph_stationary(
    dim: int,
    n_samples: int,
    edge_prob: float,
    filter_coeffs,
    seed: int = 0,
) -> tuple[DataMatrix, np.ndarray]:
    """Graph-stationary signals: x = sum_k a_k L^k w with w ~ N(0, I).

    Draws a connected Erdos-Renyi graph (up to 100 attempts), builds its
    combinatorial Laplacian L = D - A, and filters white noise through the
    polynomial g(L).  Returns the data and the Laplacian; the population
    covariance g(L)^2 shares L's eigenvectors.

    Raises:
        GraphGenerationError: no connected graph within the retry budget.
    """
    if not 0.0 < edge_prob <= 1.0:
        raise ValueError(f"edge_prob must be in (0, 1], got {edge_prob}")
    coeffs = np.asarray(filter_coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("filter_coeffs must be a non-empty 1-D sequence")
    rng = np.random.default_rng(seed)
    laplacian = None
    for _ in range(_CONNECTED_RETRY_BUDGET):
        candidate, adjacency = _erdos_renyi_laplacian(dim, edge_prob, rng)
        if _is_connected(adjacency):
            laplacian = candidate
            break
    if laplacian is None:
        raise GraphGenerationError(
            f"no connected graph in {_CONNECTED_RETRY_BUDGET} attempts "
            f"(dim={dim}, edge_prob={edge_prob})"
        )
    g = np.zeros_like(laplacian)
    power = np.eye(dim)
    for a_k in coeffs:
        g += a_k * power
        power = power @ laplacian
    w = rng.standard_normal((n_samples, dim))
    values = w @ g.T
    return DataMatrix(values=values), laplacian


def read_csv_data(path, header: bool = False) -> DataMatrix:
    """Read a comma-separated data matrix (rows = observations).

    Raises:
        ShapeError: no data rows, or ragged rows.
    """
    return DataMatrix(values=_read_csv_array(path, header))


def read_csv_covariance(path, header: bool = False) -> CovarianceMatrix:
    """Read a precomputed symmetric covariance matrix from CSV."""
    return CovarianceMatrix(matrix=_read_csv_array(path, header))


def _read_csv_array(path, header: bool) -> np.ndarray:
    """Parse a numeric CSV into a float array.

    NumPy's C parser reads the file.  Where it rejects the input or finds no
    rows, the csv-module reader parses it again and decides, so every input
    gets that reader's values and errors: blank lines skipped, quoted cells and
    Python float syntax (``1_0``, Unicode digits) accepted, empty or ragged
    input rejected with ShapeError.  The header is skipped as one csv-module
    record either way.  A stream that cannot seek back goes to the csv-module
    reader directly.
    """
    with open(path, newline="") as fh:
        if fh.seekable():
            if header:
                next(csv.reader(fh), None)
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore", message="loadtxt: input contained no data", category=UserWarning
                    )
                    values = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
            except ValueError:
                values = np.empty((0, 0))
            if len(values):
                return values
            fh.seek(0)
        return np.array(_csv_module_rows(fh, header, path), dtype=float)


def _csv_module_rows(fh, header: bool, path) -> list[list[float]]:
    rows = []
    for i, row in enumerate(csv.reader(fh)):
        if header and i == 0:
            continue
        if not row:
            continue
        rows.append([float(cell) for cell in row])
    if not rows:
        raise ShapeError(f"no data rows in {path}")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ShapeError(f"ragged CSV: row {i} has {len(row)} cells, expected {width}")
    return rows
