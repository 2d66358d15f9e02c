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
exponentiating and returns ln Z rather than Z, so any finite beta maps any C;
a range error is raised only where a double really overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .covariance import as_matrix
from .errors import BetaRangeError, ShapeError

_LOG_DBL_MAX = math.log(np.finfo(float).max)

# Below this |beta * a| the (e^a - 1)/a factor is replaced by its series limit.
_F_SERIES_EPS = 1e-8


@dataclass(frozen=True)
class DensityOperator:
    """Spectral form of exp(-beta C) / Z.

    ``density_eigenvalues[i]`` is exp(-beta * lambda_i) / Z aligned with
    ``basis`` (source eigenvalues ascending).  They sum to one and are positive
    even when C is singular, but one with |beta| |lambda_i - lambda_top| >~ 745,
    lambda_top the eigenvalue of largest density, underflows to 0.0 (cvne counts
    it as 0 ln 0).  ``log_partition`` is ln Z.
    """

    beta: float
    basis: spectral.SpectralDecomposition
    density_eigenvalues: np.ndarray
    log_partition: float

    @property
    def partition_function(self) -> float:
        return _exp("Z", self.log_partition)

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


def _exp(name: str, exponent: float, exp=math.exp) -> float:
    """``exp(exponent)`` of a log-domain quantity; BetaRangeError where that double overflows."""
    if exponent > _LOG_DBL_MAX:
        raise BetaRangeError(f"{name} = exp({exponent:.6g}) overflows a double")
    return exp(exponent)


def density_values(eigenvalues, betas) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of -beta * lambda per beta: ``(rho[..., n_beta, m], log_z[..., n_beta])``.

    ``eigenvalues`` holds one spectrum on its last axis, or several stacked on
    leading axes; each spectrum's rows are computed exactly as a 1-D call would.
    Each row's exponents are shifted by their maximum before exponentiating, so
    every entry is finite and ln Z stays finite even where Z itself would overflow.
    Raises ValueError for a NaN or infinite beta, BetaRangeError where beta * lambda overflows.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    betas = np.ravel(betas)
    # An overflowed product that is not a row maximum only underflows its weight to 0.0.
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = -(betas[:, None] * lam[..., None, :])
        shift = exponents.max(axis=-1)
    if not np.all(np.isfinite(shift)):
        if not np.all(np.isfinite(betas)):
            raise ValueError("beta must be finite")
        # Name the first failing spectrum and beta, in order, as a one-by-one evaluation meets them.
        k = np.flatnonzero(~np.isfinite(shift))[0]
        beta, norm = betas[k % betas.size], np.ravel(_norm(lam))[k // betas.size]
        raise BetaRangeError(f"beta * lambda overflows a double at beta = {beta:.6g}, ||C|| = {norm:.6g}")
    weights = np.exp(exponents - shift[..., None])
    total = weights.sum(axis=-1)
    return weights / total[..., None], shift + np.log(total)


def density_operator(c, beta: float) -> DensityOperator:
    """Build the density operator of a symmetric matrix at inverse temperature beta.

    Accepts a CovarianceMatrix, a plain symmetric array, or a
    SpectralDecomposition (which is used as is, without decomposing again).

    Raises:
        ValueError, BetaRangeError: as :func:`density_values`.
    """
    decomp = _as_decomposition(c)
    rho, log_z = density_values(decomp.eigenvalues, (beta,))
    rho.flags.writeable = False
    return DensityOperator(
        beta=float(beta),
        basis=decomp,
        density_eigenvalues=rho[0],
        log_partition=float(log_z[0]),
    )


def _log_partition(eigenvalues: np.ndarray, beta: float) -> float:
    return float(density_values(eigenvalues, (beta,))[1][0])


def partition_function(c, beta: float) -> float:
    """Z = sum_i exp(-beta * lambda_i); BetaRangeError where Z overflows a double."""
    return _exp("Z", _log_partition(np.linalg.eigvalsh(as_matrix(c)), beta))


def f_factor(beta: float, norm_c: float, norm_c_plus_dc: float) -> float:
    """Perturbation amplification factor from the density error bound.

    Equals 1 for beta >= 0.  For beta < 0 it is
    exp(|beta| ||C||) * (exp(|beta| a) - 1) / (|beta| a) with
    a = ||C + dC|| - ||C||; the removable singularity at a -> 0 is filled with
    the series limit.  Continuous at beta -> 0 with limit 1.  Raises
    BetaRangeError where exp(|beta| ||C||) or exp(|beta| a) overflows a double.
    """
    if norm_c < 0 or norm_c_plus_dc < 0:
        raise ValueError("norms must be nonnegative")
    if beta >= 0:
        return 1.0
    amp = _exp("exp(|beta| ||C||)", abs(beta) * norm_c)
    a = norm_c_plus_dc - norm_c
    arg = abs(beta) * a
    if abs(arg) < _F_SERIES_EPS:
        return amp
    return amp * _exp("exp(|beta| a)", arg, math.expm1) / arg


def _error_bound(beta, dim, norm_c, norm_perturbed, norm_dc, log_z, log_z_perturbed) -> float:
    """The density error bound from operator norms and the two log partition functions (BetaRangeError on overflow)."""
    ratio = _exp("Z'/Z", log_z_perturbed - log_z)
    factor = f_factor(beta, norm_c, norm_perturbed)
    tail = 1.0 + dim * math.exp(abs(beta) * norm_c if beta < 0 else 0.0)
    bound = abs(float(beta)) * float(norm_dc) * float(factor) / ratio * tail
    if math.isinf(bound):
        raise BetaRangeError(f"density error bound overflows a double at beta = {beta:.6g}, ||C|| = {norm_c:.6g}")
    return bound


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
    return _exp("Z'/Z", log_z_perturbed - _log_partition(np.linalg.eigvalsh(c), beta))
