"""Dense symmetric-matrix spectral tools.

Everything downstream (density operators, filters, entropies) is built on the
eigendecomposition produced here.  Decompositions are deterministic: eigenvalues
ascend and each eigenvector's first nonzero entry is positive, so repeated runs
on the same input give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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

    def reconstruct(self) -> np.ndarray:
        """Return V diag(lambda) V^T."""
        return spectral_matrix(self, self.eigenvalues)


def _as_square_array(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def symmetrize(matrix) -> np.ndarray:
    """Return (M + M^T)/2 after checking M is symmetric within tolerance."""
    m = _as_square_array(matrix)
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > SYMMETRY_RTOL * scale:
        raise SymmetryError(
            f"matrix asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_RTOL * scale:.3e}"
        )
    return (m + m.T) / 2.0


def eigh(matrix) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix with a reproducible sign convention.

    Raises:
        ShapeError: if the input is not square.
        SymmetryError: if asymmetry exceeds the relative tolerance.
    """
    m = symmetrize(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    eigenvectors = _fix_signs(eigenvectors)
    eigenvalues.flags.writeable = False
    eigenvectors.flags.writeable = False
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first entry above _SIGN_EPS in magnitude (else its first) is positive."""
    if vectors.size == 0:
        return vectors.copy()
    # argmax over booleans finds the first True, and row 0 when a column has none.
    anchors = np.argmax(np.abs(vectors) > _SIGN_EPS, axis=0)
    leading = vectors[anchors, np.arange(vectors.shape[1])]
    return vectors * np.where(leading < 0, -1.0, 1.0)


def spectral_matrix(decomp: SpectralDecomposition, values) -> np.ndarray:
    """Assemble V diag(values) V^T for per-eigenvalue scalars ``values``."""
    values = np.asarray(values, dtype=float)
    if values.shape != (decomp.dim,):
        raise ShapeError(f"expected {decomp.dim} spectral values, got shape {values.shape}")
    v = decomp.eigenvectors
    return (v * values) @ v.T


def apply_spectral_function(
    decomp: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray], x
) -> np.ndarray:
    """Apply the matrix function f(M) to a vector: V diag(f(lambda)) V^T x.

    ``f`` maps eigenvalues to eigenvalues; it may be vectorized or scalar.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (decomp.dim,):
        raise ShapeError(f"vector length {x.shape} does not match dim {decomp.dim}")
    try:
        fl = np.asarray(f(decomp.eigenvalues), dtype=float)
        if fl.shape != decomp.eigenvalues.shape:
            raise TypeError("scalar map")
    except (TypeError, ValueError):
        fl = np.array([float(f(lam)) for lam in decomp.eigenvalues])
    v = decomp.eigenvectors
    return v @ (fl * (v.T @ x))


def operator_norm(matrix) -> float:
    """Largest singular value; equals max |eigenvalue| for symmetric input."""
    m = _as_square_array(matrix)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))
