"""Invariants of the density map and its entropy, through public functions, on generated PSD matrices.

Each matrix is Q diag(lambda) Q^T with a random orthogonal Q: dimension m in 1..8, a random rank
(so zero and low-rank matrices occur), at most three distinct nonzero eigenvalue levels (so
eigenvalues repeat; one level is 1), scaled by 10^k for k in -8..8.  beta is 0 or +-b / scale
with b in [1e-3, 1e3], so |beta| ||C|| runs from 1e-3 to 1e3: from nearly uniform densities to
ones whose smallest eigenvalues underflow; b in [650, 745] puts the smallest density eigenvalues
just above the underflow edge.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from covdensity.density import density_operator
from covdensity.entropy import cvne

EPS = np.finfo(float).eps


@st.composite
def psd_and_beta(draw):
    m = draw(st.integers(1, 8))
    rank = draw(st.integers(0, m))
    levels = [1.0] + draw(st.lists(st.floats(0.01, 1.0), max_size=2))
    scale = 10.0 ** draw(st.integers(-8, 8))
    spectrum = scale * np.array([draw(st.sampled_from(levels)) for _ in range(rank)] + [0.0] * (m - rank))
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((m, m)))
    c = (q * spectrum) @ q.T
    b = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(650.0, 745.0)))
    b *= draw(st.sampled_from([1.0, -1.0]))
    return (c + c.T) / 2.0, b / scale


@settings(max_examples=200, deadline=None)
@given(psd_and_beta())
def test_density_matrix_has_unit_trace_and_is_positive_where_no_weight_underflows(case):
    c, beta = case
    rho = density_operator(c, beta)
    m = rho.dim
    # tr(V diag(rho) V^T) = sum_k rho_k ||v_k||^2.  Normalizing the weights leaves sum_k rho_k
    # within (m + 1) eps of 1, whatever beta ||C|| is (each rho_k <= 1); assembling the matrix
    # and summing its diagonal add m eps each, and eigh's columns are orthonormal to a small
    # multiple of m eps.  8 m eps covers the sum.
    assert abs(np.trace(rho.matrix()) - 1.0) <= 8 * m * EPS
    values = rho.density_eigenvalues
    assert np.all(values >= 0.0)
    # rho_i = exp(-beta (lambda_i - lambda_top)) / T with 1 <= T <= m, so rho_i >= exp(-(|beta| spread
    # + ln m)).  A double holds that as a positive number while the exponent is above ln of half the
    # smallest subnormal, -745.13; the exponents' rounding is far below the remaining 0.13.  With
    # |beta| spread alone below 745, m >= 2 nearly equal top weights can still round rho_i to 0.
    spread = float(np.ptp(rho.source_spectrum))
    if abs(beta) * spread + math.log(m) < 745.0:
        assert np.all(values > 0.0)


@settings(max_examples=200, deadline=None)
@given(psd_and_beta())
def test_gibbs_form_equals_shannon_form(case):
    c, beta = case
    report = cvne(c, beta)
    rho = density_operator(c, beta)
    m, norm, log_z = rho.dim, float(np.max(np.abs(rho.source_spectrum))), abs(rho.log_partition)
    # Both forms read the same computed rho~ and lambda.  -ln rho~_i = beta lambda_i + ln Z~ up to
    # the exponent's rounding (<= 1.5 eps |beta| ||C||: the product beta lambda_i, then the shift
    # by the top exponent, at most 2 |beta| ||C|| away) and eps from exp and the division; sum rho~
    # is 1 within (m + 1) eps, which multiplies ln Z.  Each side's sum rounds by m eps times its
    # terms' size, |ln rho_i| <= |beta| ||C|| + |ln Z| and |beta lambda_i| <= |beta| ||C||; the
    # products, ln Z = shift + ln T and the final sums add a few eps of the same.  Altogether at
    # most (2 m + 8) eps (1 + |beta| ||C|| + |ln Z|).
    tol = (2 * m + 8) * EPS * (1.0 + abs(beta) * norm + log_z)
    assert abs(report.gibbs_form_nats - report.entropy_nats) <= tol
