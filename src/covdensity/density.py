"""Density operators over covariance matrices.

The map C -> exp(-beta C) / Tr(exp(-beta C)) turns any symmetric matrix into a
unit-trace, strictly positive-definite operator that shares C's eigenvectors.
Positive beta compresses high-variance directions (their density eigenvalues
shrink); negative beta reverses the roles; beta = 0 gives the uniform density
I/m regardless of C.

Operators are stored spectrally (basis plus eigenvalue vector) rather than as
dense matrix exponentials, so powers and matrix-vector products are exact in
the eigenbasis and cost O(m^2).  Every density map goes through one kernel,
:func:`density_values`, which evaluates any number of betas over one spectrum,
so a beta sweep needs a single eigendecomposition.  The kernel reduces over the
last axis, so spectra stacked on leading axes (one per window, trial or noise
level) are mapped by one call.  It subtracts the maximum exponent before
exponentiating and returns ln Z rather than Z.  |beta| * ||C|| is capped at 700
to stay inside double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .covariance import as_matrix
from .errors import BetaRangeError, ShapeError

OVERFLOW_GUARD = 700.0

# Below this |beta * a| the (e^a - 1)/a factor is replaced by its series limit.
_F_SERIES_EPS = 1e-8


@dataclass(frozen=True)
class DensityOperator:
    """Spectral form of exp(-beta C) / Z.

    ``density_eigenvalues[i]`` is exp(-beta * lambda_i) / Z aligned with
    ``basis`` (source eigenvalues ascending).  All density eigenvalues are
    strictly positive and sum to one, even when C is singular.
    ``log_partition`` is ln Z.
    """

    beta: float
    basis: spectral.SpectralDecomposition
    density_eigenvalues: np.ndarray
    log_partition: float

    @property
    def partition_function(self) -> float:
        return math.exp(self.log_partition)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def source_spectrum(self) -> np.ndarray:
        return self.basis.eigenvalues

    def matrix(self) -> np.ndarray:
        """Dense rho (rarely needed; most callers stay spectral)."""
        return spectral.spectral_matrix(self.basis, self.density_eigenvalues)


def _as_decomposition(c) -> spectral.SpectralDecomposition:
    """Return ``c`` if it is already a SpectralDecomposition, else eigendecompose it."""
    if isinstance(c, spectral.SpectralDecomposition):
        return c
    return spectral.eigh(as_matrix(c))


def _norm(eigenvalues: np.ndarray):
    """Operator norm of symmetric matrices from their eigenvalues (last axis)."""
    return np.max(np.abs(eigenvalues), axis=-1, initial=0.0)


def _check_guard(betas, eigenvalues: np.ndarray):
    """Raise for the first spectrum and beta, in order, with |beta| * ||C|| past the guard."""
    products = np.ravel(_norm(eigenvalues)[..., None] * np.abs(np.ravel(betas)))
    over = np.flatnonzero(products > OVERFLOW_GUARD)
    if over.size:
        raise BetaRangeError(
            f"|beta| * ||C|| = {products[over[0]]:.3e} exceeds the overflow guard {OVERFLOW_GUARD}"
        )


def density_values(eigenvalues, betas) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of -beta * lambda per beta: ``(rho[..., n_beta, m], log_z[..., n_beta])``.

    ``eigenvalues`` holds one spectrum on its last axis, or several stacked on
    leading axes; each spectrum's rows are computed exactly as a 1-D call would.
    Each row's exponents are shifted by their maximum before exponentiating, so
    every entry is finite and ln Z stays finite even where Z itself would overflow.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    exponents = -(np.ravel(betas)[:, None] * lam[..., None, :])
    shift = exponents.max(axis=-1)
    weights = np.exp(exponents - shift[..., None])
    total = weights.sum(axis=-1)
    return weights / total[..., None], shift + np.log(total)


def _guarded_values(eigenvalues, betas) -> tuple[np.ndarray, np.ndarray]:
    """density_values after the overflow guard has passed every spectrum and beta."""
    _check_guard(betas, eigenvalues)
    return density_values(eigenvalues, betas)


def density_operator(c, beta: float) -> DensityOperator:
    """Build the density operator of a symmetric matrix at inverse temperature beta.

    Accepts a CovarianceMatrix, a plain symmetric array, or a
    SpectralDecomposition (which is used as is, without decomposing again).

    Raises:
        BetaRangeError: |beta| * ||C|| exceeds the overflow guard.
    """
    decomp = _as_decomposition(c)
    rho, log_z = _guarded_values(decomp.eigenvalues, (beta,))
    rho.flags.writeable = False
    return DensityOperator(
        beta=float(beta),
        basis=decomp,
        density_eigenvalues=rho[0],
        log_partition=float(log_z[0]),
    )


def _log_partition(eigenvalues: np.ndarray, beta: float) -> float:
    return float(_guarded_values(eigenvalues, (beta,))[1][0])


def partition_function(c, beta: float) -> float:
    """Z = sum_i exp(-beta * lambda_i)."""
    return math.exp(_log_partition(np.linalg.eigvalsh(as_matrix(c)), beta))


def f_factor(beta: float, norm_c: float, norm_c_plus_dc: float) -> float:
    """Perturbation amplification factor from the density error bound.

    Equals 1 for beta >= 0.  For beta < 0 it is
    exp(|beta| ||C||) * (exp(|beta| a) - 1) / (|beta| a) with
    a = ||C + dC|| - ||C||; the removable singularity at a -> 0 is filled with
    the series limit.  Continuous at beta -> 0 with limit 1.
    """
    if norm_c < 0 or norm_c_plus_dc < 0:
        raise ValueError("norms must be nonnegative")
    if beta >= 0:
        return 1.0
    amp = math.exp(abs(beta) * norm_c)
    a = norm_c_plus_dc - norm_c
    arg = abs(beta) * a
    if abs(arg) < _F_SERIES_EPS:
        return amp
    return amp * math.expm1(arg) / arg


def _error_bound(beta, dim, norm_c, norm_perturbed, norm_dc, log_z, log_z_perturbed) -> float:
    """The density error bound from operator norms and the two log partition functions."""
    ratio = math.exp(log_z_perturbed - log_z)
    factor = f_factor(beta, norm_c, norm_perturbed)
    tail = 1.0 + dim * math.exp(abs(beta) * norm_c if beta < 0 else 0.0)
    return float(abs(beta) * norm_dc * factor / ratio * tail)


def density_error_bound(c, dc, beta: float) -> float:
    """Upper bound on ||rho(C + dC) - rho(C)|| in operator norm.

    R = Z'/Z is measured from the two partition functions rather than assumed;
    the bound is only guaranteed when Z >= 1 (e.g. after shift regularization),
    which callers that need the guarantee should arrange.
    """
    c = as_matrix(c)
    dc = np.asarray(dc, dtype=float)
    if dc.shape != c.shape:
        raise ShapeError(f"perturbation shape {dc.shape} != matrix shape {c.shape}")
    lam = np.linalg.eigvalsh(c)
    log_z = _log_partition(lam, beta)
    lam_perturbed = np.linalg.eigvalsh(as_matrix(c + dc))
    log_z_perturbed = _log_partition(lam_perturbed, beta)
    return _error_bound(
        beta, c.shape[0], _norm(lam), _norm(lam_perturbed), spectral.operator_norm(dc),
        log_z, log_z_perturbed,
    )


def partition_ratio(c, dc, beta: float) -> float:
    """R = Z(C + dC) / Z(C), the measured partition-function ratio."""
    c = as_matrix(c)
    log_z_perturbed = _log_partition(np.linalg.eigvalsh(as_matrix(c + np.asarray(dc, dtype=float))), beta)
    return math.exp(log_z_perturbed - _log_partition(np.linalg.eigvalsh(c), beta))
