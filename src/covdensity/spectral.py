"""Dense symmetric-matrix spectral tools.

Everything downstream (density operators, filters, entropies) is built on the
eigendecomposition produced here.  Eigenvalues ascend and eigenvectors are
orthonormal; each eigenvector's sign is whatever LAPACK returns, which every
quantity built on the basis (V f(lambda) V^T, |<u, v>|) cancels.  Repeat calls
on the same input give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SymmetryError

# Asymmetry below this (relative) tolerance is treated as roundoff and symmetrized away.
SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Orthonormal eigenbasis of a symmetric matrix.

    Attributes:
        eigenvalues: ascending, length ``dim``.
        eigenvectors: ``dim x dim``; column ``i`` is the unit eigenvector for
            ``eigenvalues[i]``, with the sign LAPACK returns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def _as_square_array(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M^T)/2 over the last two axes of a finite stack; an asymmetry over SYMMETRY_RTOL * max|M|, no floor, names
    its first matrix: M * 2**k is judged as M is, and a zero matrix is symmetric."""
    m_t = np.swapaxes(m, -1, -2)
    work = np.abs(m)  # the one working array: |m|, then |m - m_t|, then m / 2
    tolerance = SYMMETRY_RTOL * work.max(axis=(-2, -1), initial=0.0)
    asym = np.abs(np.subtract(m, m_t, out=work), out=work).max(axis=(-2, -1), initial=0.0)
    if (asym > tolerance).any():
        k = np.flatnonzero(asym > tolerance)[0]
        raise SymmetryError(
            f"matrix asymmetry {np.ravel(asym)[k]:.3e} exceeds tolerance {np.ravel(tolerance)[k]:.3e}"
        )
    # Halving first keeps the mean of two entries near the largest double finite; it equals
    # (m + m_t) / 2 bit for bit wherever no halved entry is subnormal.
    half = np.divide(m, 2.0, out=work)
    return half + np.swapaxes(half, -1, -2)


def eigh(matrix) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix: ascending eigenvalues, orthonormal eigenvectors with LAPACK's signs.

    Repeat calls on the same input return bit-identical arrays.

    Raises:
        ShapeError: if the input is not square.
        ValueError: if an entry is NaN or infinite.
        SymmetryError: if asymmetry exceeds the relative tolerance.
    """
    eigenvalues, eigenvectors = _eigh(_as_square_array(matrix))
    eigenvalues.flags.writeable = False
    eigenvectors.flags.writeable = False
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh over the last two axes of a finite stack: ascending eigenvalues, LAPACK's eigenvectors."""
    return np.linalg.eigh(_symmetrize(m))


def _norm(eigenvalues: np.ndarray):
    """Operator norm of symmetric matrices from their eigenvalues (last axis); 0 for an empty spectrum."""
    return np.max(np.abs(eigenvalues), axis=-1, initial=0.0)


def _spectral_matrix(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^T for a stack of bases ``v`` (..., m, m) broadcast against ``values`` (..., m)."""
    return (v * values[..., None, :]) @ np.swapaxes(v, -1, -2)
