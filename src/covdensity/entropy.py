"""Multiscale von Neumann entropy for covariance matrices.

The entropy of a covariance matrix at inverse temperature beta is the Shannon
entropy of its density operator's eigenvalue distribution.  Because those
eigenvalues are positive (in exact arithmetic) even when C is singular, the
entropy is finite for rank-deficient matrices where log-det formulas diverge,
and unlike the trace-normalized surrogate it responds to global scale changes.
A density eigenvalue that a double rounds to 0.0, once |beta| |lambda_i -
lambda_top| + ln m passes about 745.13, counts as 0 ln 0 (see DensityOperator).

Internal unit is nats; bits are carried alongside for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import _check_psd, _spectrum
from .density import density_operator, density_values  # noqa: F401 (perfbench's tracer test patches this binding)
from .errors import DegenerateCovarianceError
from .spectral import _norm

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

    ``c`` may be a CovarianceMatrix (its check's spectrum is read), a plain
    array, or a SpectralDecomposition (only its eigenvalues are read), so a beta
    sweep decomposes once.  entropy_nats is -sum_i rho_i ln rho_i;
    gibbs_form_nats evaluates the same quantity as beta Tr[C rho] + ln Z (the
    two agree to roundoff and both are reported as a cross-check).
    """
    spectrum = _spectrum(c)
    rho, log_z = density_values(spectrum, (beta,))
    nats = float(_shannon_nats(rho[0]))
    rank = int(np.sum(np.abs(spectrum) > _RANK_RTOL * max(1.0, float(_norm(spectrum)))))
    return EntropyReport(
        beta=float(beta),
        entropy_nats=nats,
        entropy_bits=nats / math.log(2.0),
        gibbs_form_nats=float(beta) * float(np.sum(spectrum * rho[0])) + float(log_z[0]),
        source_dim=spectrum.size,
        source_rank_estimate=rank,
    )


def _shannon_nats(values: np.ndarray):
    """-sum p ln p of each distribution on the last axis, floored at zero; 0 ln 0 counts as 0."""
    # An entry that underflowed to 0 contributes 0 ln 1 = 0 instead of 0 * -inf = NaN.
    terms = values * np.log(np.where(values > 0.0, values, 1.0))
    # fmax(0, x) keeps 0.0 where x is -0.0, exactly as max(0.0, x) does.
    return np.fmax(0.0, -np.sum(terms, axis=-1))


def naive_entropy(c) -> float:
    """Trace-normalized spectral entropy in bits: -sum pi log2 pi, pi = lambda_i / tr C.

    Blind to global scale by construction, at every scale a double holds.  Eigenvalues
    that are negative at roundoff level are clipped to zero and 0 log 0 counts as 0.

    Raises:
        DegenerateCovarianceError: no eigenvalue is positive.
    """
    return float(_naive_bits(_spectrum(c)))


def _clipped_distribution(eigenvalues: np.ndarray) -> np.ndarray:
    """Each spectrum on the last axis clipped at 0 and divided by its sum; DegenerateCovarianceError where no entry is
    positive.  Only a sum that overflows a double is formed after dividing by the spectrum's largest entry, so a finite
    sum divides exactly as ``w / w.sum()``.  A non-finite entry gives NaN, without a warning, for the caller to name."""
    weights = np.clip(eigenvalues, 0.0, None)
    if np.any(np.all(weights == 0.0, axis=-1)):
        raise DegenerateCovarianceError("spectrum has no positive eigenvalue to normalize")
    with np.errstate(over="ignore", invalid="ignore"):  # invalid: inf / inf
        total = np.sum(weights, axis=-1, keepdims=True)
        if np.any(overflowed := np.isinf(total)):
            weights = np.where(overflowed, weights / np.max(weights, axis=-1, keepdims=True), weights)
            total = np.sum(weights, axis=-1, keepdims=True)
    return weights / total


def _naive_bits(eigenvalues: np.ndarray):
    """naive_entropy of each ascending spectrum on the last axis."""
    distributions = _clipped_distribution(eigenvalues)
    p = distributions.reshape(-1, distributions.shape[-1])
    # Spectra ascend, so the zero weights of a row lead it.  Summing each row's
    # positive tail adds the same terms in the same order as a 1-D sum over p[p > 0].
    leading_zeros = np.sum(~(p > 0.0), axis=-1)
    bits = np.empty(len(p))
    for k in set(leading_zeros.tolist()):
        rows = leading_zeros == k
        tail = p[rows, k:]
        bits[rows] = -np.sum(tail * np.log2(tail), axis=-1)
    return bits.reshape(distributions.shape[:-1])


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
    other check of CovarianceMatrix, from one ``eigvalsh``: each entry bit for bit what
    naive_entropy and cvne give for that covariance's CovarianceMatrix."""
    eigenvalues = np.linalg.eigvalsh(covariances)
    _check_psd(eigenvalues)
    naive = _naive_bits(eigenvalues)
    rho, _ = density_values(eigenvalues, (beta,))
    return naive, _shannon_nats(rho[..., 0, :]) / math.log(2.0)

