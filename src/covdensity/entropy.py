"""Multiscale von Neumann entropy for covariance matrices.

The entropy of a covariance matrix at inverse temperature beta is the Shannon
entropy of its density operator's eigenvalue distribution.  Because those
eigenvalues are positive even when C is singular, the entropy is finite for
rank-deficient matrices where log-det formulas diverge, and unlike the
trace-normalized surrogate it responds to global scale changes.  (In doubles, a
density eigenvalue with |beta| |lambda_i - lambda_top| >~ 745, lambda_top the
eigenvalue of largest density, underflows to 0.0 and counts as 0 ln 0.)

Internal unit is nats; bits are carried alongside for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import (
    CovarianceMatrix,
    _check_psd,
    as_matrix,
    shift_regularize,
)
from .density import density_operator, density_values
from .errors import DegenerateCovarianceError, ShapeError

_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class EntropyReport:
    beta: float
    entropy_nats: float
    entropy_bits: float
    gibbs_form_nats: float
    source_dim: int
    source_rank_estimate: int


def cvne(c, beta: float) -> EntropyReport:
    """Entropy report for a PSD matrix at inverse temperature beta.

    ``c`` may be a CovarianceMatrix, a plain array, or a SpectralDecomposition
    (only its eigenvalues are read), so a beta sweep decomposes once.
    entropy_nats is -sum_i rho_i ln rho_i; gibbs_form_nats evaluates the same
    quantity as beta Tr[C rho] + ln Z (the two agree to roundoff and both are
    reported as a cross-check).
    """
    rho = density_operator(c, beta)
    nats = float(_shannon_nats(rho.density_eigenvalues))
    spectrum = rho.source_spectrum
    scale = float(np.max(np.abs(spectrum))) if spectrum.size else 0.0
    rank = int(np.sum(np.abs(spectrum) > _RANK_RTOL * max(1.0, scale)))
    return EntropyReport(
        beta=float(beta),
        entropy_nats=nats,
        entropy_bits=nats / math.log(2.0),
        gibbs_form_nats=_gibbs_from_operator(rho),
        source_dim=rho.dim,
        source_rank_estimate=rank,
    )


def _shannon_nats(values: np.ndarray):
    """-sum p ln p of each distribution on the last axis, floored at zero; 0 ln 0 counts as 0."""
    # An entry that underflowed to 0 contributes 0 ln 1 = 0 instead of 0 * -inf = NaN.
    terms = values * np.log(np.where(values > 0.0, values, 1.0))
    # fmax(0, x) keeps 0.0 where x is -0.0, exactly as max(0.0, x) does.
    return np.fmax(0.0, -np.sum(terms, axis=-1))


def _gibbs_from_operator(rho) -> float:
    energy = float(np.sum(rho.source_spectrum * rho.density_eigenvalues))
    return rho.beta * energy + rho.log_partition


def naive_entropy(c) -> float:
    """Trace-normalized spectral entropy in bits: -sum pi log2 pi, pi = lambda_i / tr C.

    Blind to global scale by construction.  Eigenvalues that are negative at
    roundoff level are clipped to zero and 0 log 0 counts as 0.

    Raises:
        DegenerateCovarianceError: trace is (numerically) zero.
    """
    return float(_naive_bits(np.linalg.eigvalsh(as_matrix(c))))


def _naive_bits(eigenvalues: np.ndarray):
    """naive_entropy of each ascending spectrum on the last axis."""
    weights = np.clip(eigenvalues, 0.0, None)
    total = np.sum(weights, axis=-1)
    if np.any(total <= 1e-14):
        raise DegenerateCovarianceError("zero-trace matrix has no normalized spectrum")
    p = (weights / total[..., None]).reshape(-1, weights.shape[-1])
    # Spectra ascend, so the zero weights of a row lead it.  Summing each row's
    # positive tail adds the same terms in the same order as a 1-D sum over p[p > 0].
    leading_zeros = np.sum(~(p > 0.0), axis=-1)
    bits = np.empty(len(p))
    for k in set(leading_zeros.tolist()):
        rows = leading_zeros == k
        tail = p[rows, k:]
        bits[rows] = -np.sum(tail * np.log2(tail), axis=-1)
    return bits.reshape(total.shape)


class SubadditivityCheck(NamedTuple):
    lhs_nats: float
    rhs_nats: float
    holds: bool
    shifts: tuple[float, ...]


def check_subadditivity(covariances, beta: float, tol: float = 1e-9) -> SubadditivityCheck:
    """Compare S(sum C_j) against sum S(C_j) after shift regularization.

    Each input is shifted so its minimum eigenvalue is zero before evaluation
    (the shift leaves each entropy unchanged but keeps every partition function
    at least 1); the sum is shifted the same way.  Returns the two sides, the
    verdict lhs <= rhs + tol, and the shifts that were applied.
    """
    mats = [as_matrix(c) for c in covariances]
    if len(mats) < 2:
        raise ShapeError("need at least two matrices")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ShapeError("all matrices must share the same dimension")
    regularized = [shift_regularize(CovarianceMatrix(matrix=m)) for m in mats]
    shifts = tuple(r.min_eig_shift for r in regularized)
    total = np.sum([r.matrix for r in regularized], axis=0)
    total_reg = shift_regularize(CovarianceMatrix(matrix=total))
    lhs = cvne(total_reg, beta).entropy_nats
    rhs = float(sum(cvne(r, beta).entropy_nats for r in regularized))
    return SubadditivityCheck(lhs_nats=lhs, rhs_nats=rhs, holds=lhs <= rhs + tol, shifts=shifts)


def threshold_auc(scores_a, scores_b) -> float:
    """Best-direction AUC of a scalar score separating group a from group b.

    Equivalent to sweeping every threshold on the 1-D score and taking the
    better of the two sign conventions; ties count half.
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both groups must be non-empty")
    # Average 1-based ranks: a run of ties ending at sorted position `end` spans
    # end - count + 1 .. end, whose mean is end - (count - 1) / 2.
    _, inverse, counts = np.unique(np.concatenate([a, b]), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rank_sum_b = float(ranks[a.size :].sum())
    auc = (rank_sum_b - b.size * (b.size + 1) / 2.0) / (a.size * b.size)
    return max(auc, 1.0 - auc)


def _window_entropies(covariances: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Naive and density entropies (bits) of stacked finite sample covariances, with every
    other check of CovarianceMatrix, naive_entropy and cvne, from one ``eigvalsh``."""
    eigenvalues = np.linalg.eigvalsh(covariances)
    _check_psd(eigenvalues)
    naive = _naive_bits(eigenvalues)
    rho, _ = density_values(eigenvalues, (beta,))
    return naive, _shannon_nats(rho[..., 0, :]) / math.log(2.0)

