"""Sample covariance estimation, trace normalization, and synthetic data and graph generators.

The estimator divides by ``n`` (not ``n - 1``); downstream formulas assume that
convention.  Trace normalization is a kernel over stacked arrays, shared by the
regression experiment and ``train``, with no public function.  A checked
:class:`CovarianceMatrix` keeps the spectrum its PSD check computed, which the
entropies and the CLI read instead of decomposing the matrix again.

All generators take an explicit seed and never touch global RNG state, so
trials can run in parallel and reproduce exactly.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CovarianceMatrix:
    """A finite, symmetric (within tolerance, then symmetrized) and PSD matrix."""

    matrix: np.ndarray
    # The spectrum the PSD check computed (eigvalsh's), kept so what reads only the spectrum need not decompose again.
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, eigenvalues = _checked_spectra(spectral._as_square_array(self.matrix))
        m.flags.writeable = False
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_eigenvalues", eigenvalues)


def _check_psd(eigenvalues: np.ndarray):
    """Raise unless each ascending spectrum (last axis) has min eigenvalue >= -PSD_RTOL * ||C||, read from it, no floor
    (C * 2**k is judged as C is; a zero matrix is PSD); the first failing spectrum is named."""
    tolerance = PSD_RTOL * spectral._norm(eigenvalues)
    min_eig = np.min(eigenvalues, axis=-1, initial=0.0)  # an empty matrix is PSD
    failing = np.flatnonzero(min_eig < -tolerance)
    if failing.size:
        raise ValueError(f"matrix is not PSD within tolerance: min eigenvalue {np.ravel(min_eig)[failing[0]]:.3e}")


def _checked_spectra(matrices: np.ndarray):
    """Symmetrize a finite stack of matrices and check each as CovarianceMatrix checks one.

    Returns the symmetrized stack and its ``eigvalsh`` spectra; a failure names the first failing matrix.
    """
    m = spectral._symmetrize(matrices)
    eigenvalues = np.linalg.eigvalsh(m)
    _check_psd(eigenvalues)
    return m, eigenvalues


def as_matrix(c) -> np.ndarray:
    """Accept a CovarianceMatrix or a plain symmetric array; return the array."""
    if isinstance(c, CovarianceMatrix):
        return c.matrix
    return spectral._symmetrize(spectral._as_square_array(c))


def _spectrum(c) -> np.ndarray:
    """Ascending eigenvalues of ``c``: those a CovarianceMatrix's check or a SpectralDecomposition holds (ValueError
    naming the first that is not finite), else ``eigvalsh``'s of a plain symmetric array."""
    if isinstance(c, CovarianceMatrix):
        return c._eigenvalues
    if isinstance(c, spectral.SpectralDecomposition):
        if not np.all(finite := np.isfinite(c.eigenvalues)):
            raise ValueError(f"eigenvalues must be finite, got {float(c.eigenvalues[~finite][0])!r}")
        return c.eigenvalues
    return np.linalg.eigvalsh(as_matrix(c))


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
        c = np.swapaxes(centered, -1, -2) @ centered
        c /= x.shape[-2]
    if not np.all(np.isfinite(c)):
        raise ValueError("sample covariance overflows a double")
    c /= 2.0  # as spectral._symmetrize forms the mean, halving each entry first
    return c + np.swapaxes(c, -1, -2)


def _trace_normalized(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m / tr(m) for each matrix of a stack, and the traces; DegenerateCovarianceError names the first trace that is not a
    positive normal double (>= ``np.finfo(float).tiny``), the one limit: a subnormal trace has lost its precision."""
    traces = np.trace(m, axis1=-2, axis2=-1)
    if not np.all(normal := traces >= np.finfo(float).tiny):
        raise DegenerateCovarianceError(f"trace {traces[~normal][0]:.3e} too small to normalize")
    return m / traces[..., None, None], traces


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


def _connected_laplacian(dim: int, edge_prob: float, rng: np.random.Generator) -> np.ndarray:
    """The combinatorial Laplacian L = D - A of a connected Erdos-Renyi graph drawn from ``rng`` (up to 100 attempts):
    each attempt draws A's upper triangle in one ``rng.random`` call and tests reachability from vertex 0 in ``dim``
    matrix-vector steps, and only the accepted graph's L is formed.

    Raises:
        GraphGenerationError: no connected graph within the retry budget.
    """
    upper = np.triu_indices(dim, k=1)
    for _ in range(_CONNECTED_RETRY_BUDGET):
        adjacency = np.zeros((dim, dim))
        adjacency[upper] = rng.random(len(upper[0])) < edge_prob
        adjacency += adjacency.T
        reached = np.arange(dim) == 0
        for _ in range(dim):
            reached = adjacency @ reached + reached > 0
        if reached.all():
            return np.diag(adjacency.sum(axis=1)) - adjacency
    raise GraphGenerationError(f"no connected graph in {_CONNECTED_RETRY_BUDGET} attempts (dim={dim}, "
                               f"edge_prob={edge_prob})")


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
