"""Density operators over covariance matrices.

The map C -> exp(-beta C) / Tr(exp(-beta C)) turns any symmetric matrix into a
unit-trace operator that shares C's eigenvectors, positive-definite in exact
arithmetic (DensityOperator says where a double rounds a weight to 0).  Positive
beta compresses high-variance directions (their density eigenvalues shrink);
negative beta reverses the roles; beta = 0 gives the uniform density I/m.

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
from .covariance import _spectrum, as_matrix
from .errors import BetaRangeError

_LOG_DBL_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class DensityOperator:
    """Spectral form of exp(-beta C) / Z.

    ``density_eigenvalues[i]`` is exp(-beta * lambda_i) / Z aligned with
    ``basis`` (source eigenvalues ascending).  They sum to one and are positive
    in exact arithmetic, even when C is singular.  In doubles the i-th stays
    positive while |beta| |lambda_i - lambda_top| + ln m < 745.13 (lambda_top the
    eigenvalue of largest density) and may round to 0.0 past that, which cvne
    counts as 0 ln 0.  ``log_partition`` is ln Z.
    """

    beta: float
    basis: spectral.SpectralDecomposition
    density_eigenvalues: np.ndarray
    log_partition: float

    @property
    def dim(self) -> int:
        return self.basis.dim


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
    Raises ValueError where a non-finite beta or eigenvalue breaks it, BetaRangeError where beta * lambda overflows.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    betas = np.asarray(betas, dtype=float).ravel()  # a JSON int past int64 would make an object array
    # A product or shifted exponent that overflows and is not a row maximum only underflows its weight to 0.0.  The
    # one array of products is negated, shifted, exponentiated and normalized in place.
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = betas[:, None] * lam[..., None, :]
        np.negative(exponents, out=exponents)
        shift = exponents.max(axis=-1)
        exponents -= shift[..., None]
    if not np.all(np.isfinite(shift)):
        if not np.all(np.isfinite(betas)):
            raise ValueError("beta must be finite")
        if not np.all(finite := np.isfinite(lam)):
            raise ValueError(f"eigenvalues must be finite, got {float(lam[~finite][0])!r}")
        # Name the first failing spectrum and beta, in order, as a one-by-one evaluation meets them.
        k = np.flatnonzero(~np.isfinite(shift))[0]
        beta, norm = betas[k % betas.size], np.ravel(spectral._norm(lam))[k // betas.size]
        raise BetaRangeError(f"beta * lambda overflows a double at beta = {beta:.6g}, ||C|| = {norm:.6g}")
    weights = np.exp(exponents, out=exponents)
    total = weights.sum(axis=-1)
    weights /= total[..., None]
    return weights, shift + np.log(total)


def density_operator(c, beta: float) -> DensityOperator:
    """Build the density operator of a symmetric matrix at inverse temperature beta.

    Accepts a CovarianceMatrix, a plain symmetric array, or a
    SpectralDecomposition (which is used as is, without decomposing again).

    Raises:
        ValueError, BetaRangeError: as :func:`density_values`, and ValueError for any non-finite eigenvalue.
    """
    decomp = c if isinstance(c, spectral.SpectralDecomposition) else spectral.eigh(as_matrix(c))
    rho, log_z = density_values(_spectrum(decomp), (beta,))
    rho.flags.writeable = False
    return DensityOperator(
        beta=float(beta),
        basis=decomp,
        density_eigenvalues=rho[0],
        log_partition=float(log_z[0]),
    )


def f_factor(beta: float, norm_c: float, norm_c_plus_dc: float) -> float:
    """Perturbation amplification factor from the density error bound.

    Equals 1 for beta >= 0.  For beta < 0 it is
    exp(|beta| ||C||) * (exp(|beta| a) - 1) / (|beta| a) with a = ||C + dC|| - ||C||,
    and its limit exp(|beta| ||C||) at a = 0 only (expm1(x) / x is accurate for
    every other x).  Continuous at beta -> 0 with limit 1.  Raises
    BetaRangeError where exp(|beta| ||C||) or exp(|beta| a) overflows a double.
    """
    beta, norm_c, norm_c_plus_dc = float(beta), float(norm_c), float(norm_c_plus_dc)  # NumPy scalars warn on overflow
    if norm_c < 0 or norm_c_plus_dc < 0:
        raise ValueError("norms must be nonnegative")
    if beta >= 0:
        return 1.0
    amp = _exp("exp(|beta| ||C||)", abs(beta) * norm_c)
    a = norm_c_plus_dc - norm_c
    arg = abs(beta) * a
    if arg == 0.0:
        return amp
    return amp * _exp("exp(|beta| a)", arg, math.expm1) / arg


def _error_bound(beta, dim, norm_c, norm_perturbed, norm_dc, ratio) -> float:
    """The paper's bound on ||rho(C + dC) - rho(C)|| from operator norms and the measured partition ratio R = Z'/Z.

    It does not hold for every perturbation.  For beta > 0 the factor 1 needs ||exp(-beta (C + t dC))|| <= 1
    along the path, which fails once C + dC is indefinite: every miss random probes found had beta > 0 and an
    indefinite C + dC.  BetaRangeError where it overflows a double or R = Z'/Z is 0.0.
    """
    factor = f_factor(beta, norm_c, norm_perturbed)
    tail = 1.0 + dim * math.exp(abs(beta) * norm_c if beta < 0 else 0.0)
    bound = abs(float(beta)) * float(norm_dc) * float(factor) / ratio * tail if ratio else math.inf
    if math.isinf(bound):
        raise BetaRangeError(f"density error bound overflows a double at beta = {beta:.6g}, ||C|| = {norm_c:.6g}")
    return bound
