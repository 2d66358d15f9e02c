"""Dense symmetric-matrix spectral tools.

Everything downstream (density operators, filters, entropies) is built on the
eigendecomposition produced here.  Decompositions are deterministic: eigenvalues
ascend and each eigenvector's first nonzero entry is positive, so repeated runs
on the same input give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SymmetryError

# Asymmetry below this (relative) tolerance is treated as roundoff and symmetrized away.
SYMMETRY_RTOL = 1e-10

_SIGN_EPS = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Orthonormal eigenbasis of a symmetric matrix.

    Attributes:
        eigenvalues: ascending, length ``dim``.
        eigenvectors: ``dim x dim``; column ``i`` is the unit eigenvector for
            ``eigenvalues[i]``, sign-fixed so its first nonzero entry is positive.
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


def symmetrize(matrix) -> np.ndarray:
    """Return (M + M^T)/2 after checking M is symmetric within tolerance."""
    return _symmetrize(_as_square_array(matrix))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """symmetrize over the last two axes of a finite stack; the first failing matrix is named."""
    m_t = np.swapaxes(m, -1, -2)
    tolerance = SYMMETRY_RTOL * np.abs(m).max(axis=(-2, -1), initial=1.0)
    asym = np.abs(m - m_t).max(axis=(-2, -1), initial=0.0)
    if (asym > tolerance).any():
        k = np.flatnonzero(asym > tolerance)[0]
        raise SymmetryError(
            f"matrix asymmetry {np.ravel(asym)[k]:.3e} exceeds tolerance {np.ravel(tolerance)[k]:.3e}"
        )
    # Halving first keeps the mean of two entries near the largest double finite; it equals
    # (m + m_t) / 2 bit for bit wherever no halved entry is subnormal.
    return m / 2.0 + m_t / 2.0


def eigh(matrix) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix with a reproducible sign convention.

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
    """eigh over the last two axes of a finite stack: ascending eigenvalues, sign-fixed eigenvectors."""
    eigenvalues, eigenvectors = np.linalg.eigh(_symmetrize(m))
    return eigenvalues, _fix_signs(eigenvectors)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first entry above _SIGN_EPS in magnitude (else its first) is positive."""
    if vectors.size == 0:
        return vectors.copy()
    # argmax over booleans finds the first True, and row 0 when a column has none.
    anchors = (np.abs(vectors) > _SIGN_EPS).argmax(axis=-2, keepdims=True)
    leading = np.take_along_axis(vectors, anchors, axis=-2)
    return vectors * np.where(leading < 0, -1.0, 1.0)


def _spectral_matrix(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^T for a stack of bases ``v`` (..., m, m) broadcast against ``values`` (..., m)."""
    return (v * values[..., None, :]) @ np.swapaxes(v, -1, -2)
