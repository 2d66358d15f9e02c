import math
from types import SimpleNamespace

import numpy as np
import pytest

from covdensity import betafit, covariance, spectral
from covdensity.covariance import CovarianceMatrix, DataMatrix, as_matrix, sample_covariance
from covdensity.density import density_operator
from covdensity.entropy import cvne, naive_entropy
from covdensity.filtering import filter_apply
from covdensity.lab import DiscriminationConfig, _stability_responses, run_discrimination


def spectral_matrix(decomp, values):
    """V diag(values) V^T over ``decomp``'s basis for values on the last axis; stacked values give stacked matrices."""
    return spectral._spectral_matrix(decomp.eigenvectors, np.asarray(values, dtype=float))


def dense_rho(rho):
    """The dense matrix of a DensityOperator, V diag(density eigenvalues) V^T."""
    return spectral_matrix(rho.basis, rho.density_eigenvalues)


def log_domain_response(spec, lam, log_z):
    """Oracle: the filter's response at source eigenvalue ``lam`` given ln Z of the operating spectrum,
    sum_k h_k exp(-beta lam k - k ln Z), which stays in range where Z^k would overflow."""
    return sum(spec.coeffs[k] * math.exp(-spec.beta * lam * k - k * log_z) for k in range(spec.k_start, spec.order + 1))


def random_psd(rng, dim, n_factor=5) -> CovarianceMatrix:
    """Wishart-style random PSD matrix with plenty of samples (full rank)."""
    data = rng.standard_normal((n_factor * dim, dim))
    return sample_covariance(DataMatrix(values=data))


def min_shifted(c) -> CovarianceMatrix:
    """C - lambda_min I as a checked CovarianceMatrix, lambda_min the smallest eigenvalue C's own check computed.

    The shift leaves density operators and their entropies unchanged and makes every partition function
    at beta > 0 at least 1.
    """
    c = c if isinstance(c, CovarianceMatrix) else CovarianceMatrix(matrix=c)
    return CovarianceMatrix(matrix=c.matrix - np.min(c._eigenvalues) * np.eye(c.dim))


def random_low_rank(rng, dim, rank) -> CovarianceMatrix:
    """Gram matrix of a rank-deficient factor."""
    factor = rng.standard_normal((dim, rank))
    return CovarianceMatrix(matrix=factor @ factor.T)


class LinalgCalls(list):
    """Input shapes of the recorded calls, in call order."""

    @property
    def matrices(self) -> int:
        """Matrices decomposed: each call's leading dims multiplied out, summed over calls."""
        return sum(math.prod(shape[:-2]) for shape in self)


def count_linalg_calls(monkeypatch, name):
    """Replace np.linalg.<name> with a wrapper that records each call's input shape."""
    calls = LinalgCalls()
    original = getattr(np.linalg, name)

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def table_rows(table):
    """A run table's rows, each with ``params`` and ``metrics`` dicts that leave out the names it lacks."""
    def cells(columns, i):
        return {k: c[i] for k, c in columns.items() if c[i] is not None}

    return [SimpleNamespace(params=cells(table.params, i), metrics=cells(table.metrics, i)) for i in range(len(table))]


def discrimination_scores(beta=2.0, **fields):
    """run_discrimination on DiscriminationConfig(beta=beta, **fields), read back
    from its table: the table, the (2, n_windows) naive and density scores by regime, and the two AUCs."""
    table = run_discrimination(DiscriminationConfig(beta=beta, **fields))
    rows = table_rows(table)
    naive, vne = (
        np.array([[r.metrics[name] for r in rows if r.params.get("regime") == regime] for regime in (0, 1)])
        for name in ("s_naive_bits", "s_vne_bits")
    )
    auc = next(r.metrics for r in rows if r.params.get("summary") == "auc")
    return SimpleNamespace(table=table, naive=naive, vne=vne, auc_naive=auc["auc_naive"], auc_vne=auc["auc_vne"])


def window_by_window(window, n_windows, beta, regime_scale, base_spectrum, seed):
    """The discrimination experiment as one public-API evaluation per window.

    Returns the naive scores and the density scores from cvne, each shaped (2, n_windows).
    """
    base = np.asarray(base_spectrum, dtype=float)
    spectra = (base, base * np.asarray(regime_scale, dtype=float))
    naive, vne = np.empty((2, n_windows)), np.empty((2, n_windows))
    for regime in (0, 1):
        for w in range(n_windows):
            rng = np.random.default_rng([seed, regime, w])
            with np.errstate(invalid="ignore"):  # a negative entry draws NaN, which DataMatrix rejects
                samples = rng.standard_normal((window, base.size)) * np.sqrt(spectra[regime])
            cov = sample_covariance(DataMatrix(values=samples))
            naive[regime, w] = naive_entropy(cov)
            vne[regime, w] = cvne(cov, beta).entropy_bits
    return naive, vne


def gen_graph_stationary(dim, n_samples, edge_prob, filter_coeffs, seed=0):
    """Graph-stationary data x = g(L) w, w ~ N(0, I), and the Laplacian L, drawn as run_surrogate draws them.

    The filter is formed here as the matrix polynomial g(L) = sum_k a_k L^k, independently of the
    library's evaluation of g on L's spectrum, so that the oracles built on this data check it.
    """
    rng = np.random.default_rng(seed)
    laplacian = covariance._connected_laplacian(dim, edge_prob, rng)
    g, power = np.zeros_like(laplacian), np.eye(dim)
    for a_k in filter_coeffs:
        g += a_k * power
        power = power @ laplacian
    return DataMatrix(values=rng.standard_normal((n_samples, dim)) @ g.T), laplacian


def bound_and_ratio(cov, dc, beta):
    """The density error bound and the partition ratio R = Z'/Z that run_stability records
    for the CovarianceMatrix ``cov`` perturbed by ``dc`` at ``beta``; dC's norm is its largest |eigenvalue|."""
    dc = np.asarray(dc, dtype=float)[None]
    _, bounds, ratios = _stability_responses(cov.matrix, dc, spectral._norm(np.linalg.eigvalsh(dc)), (beta,))
    return bounds[1], ratios[1]


def permutation_residual(spec, c, x, perm):
    """Max-abs residual of H(rho(P C P^T)) P x - P H(rho(C)) x for the index permutation ``perm``.

    Both sides go through filter_apply, which forms V diag(p(rho)) V^T.  That matrix does not
    depend on the choice of basis, so it holds on (near-)repeated eigenvalues too.
    """
    c, x = as_matrix(c), np.asarray(x, dtype=float)
    permuted = filter_apply(spec, density_operator(c[np.ix_(perm, perm)], spec.beta), x[perm])
    return float(np.max(np.abs(permuted - filter_apply(spec, density_operator(c, spec.beta), x)[perm])))


def subadditivity(covariances, beta):
    """Both sides of S(sum C_j) <= sum S(C_j) in nats, and each C_j's shift (its smallest eigenvalue).

    Each C_j is shifted to a zero smallest eigenvalue (which leaves its entropy unchanged but keeps
    every partition function at least 1), and so is the sum of the shifted matrices.
    """
    covs = [CovarianceMatrix(matrix=as_matrix(c)) for c in covariances]
    regularized = [min_shifted(c) for c in covs]
    total = min_shifted(np.sum([r.matrix for r in regularized], axis=0))
    rhs = float(sum(cvne(r, beta).entropy_nats for r in regularized))
    return cvne(total, beta).entropy_nats, rhs, tuple(float(np.min(c._eigenvalues)) for c in covs)


def moment_derivatives(spectrum, target_p, beta):
    """(f', f''): the moment objective's gradient <p, lambda> - E_q[lambda] and curvature Var_q[lambda],
    as fit_beta evaluates them."""
    lam, p = betafit._validate(spectrum, target_p)
    return betafit._moments(lam, float(np.dot(p, lam)), beta)[1:]
