"""Invariants of public functions on generated inputs.

The density map and its entropy run on generated PSD matrices.  Each matrix is Q diag(lambda) Q^T
with a random orthogonal Q: dimension m in 1..8, a random rank (so zero and low-rank matrices
occur), at most three distinct nonzero eigenvalue levels (so eigenvalues repeat; one level is 1),
scaled by 10^k for k in -8..8.  beta is 0 or +-b / scale with b in [1e-3, 1e3], so |beta| ||C||
runs from 1e-3 to 1e3: from nearly uniform densities to ones whose smallest eigenvalues
underflow; b in [650, 745] puts the smallest density eigenvalues just above the underflow edge.

The same matrices check that the matrix shift C - lambda_min I gives a zero smallest eigenvalue at
C's scale and that trace_normalize gives a unit trace, and permutation equivariance of a filter and
of a network layer.  Stability shifts spectra instead of matrices; its norms, bounds and ratios are
checked against the matrix shift on generated C, perturbations and betas of either sign.

The network's batched gradients are checked against central differences of its loss on random
shapes, and run tables against what results.csv reads back on random columns.  The in-place
stacked kernels are checked bit for bit against their out-of-place forms on single and stacked
arrays with huge, subnormal and signed-zero entries.  Every config and parameter record either
builds or names the one key that holds an adversarial value.
"""

import csv
import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import dense_rho, random_psd, trace_normalize
from covdensity import covariance, density, lab, spectral
from covdensity.covariance import PSD_RTOL, CovarianceMatrix
from covdensity.density import density_operator, density_values
from covdensity.entropy import cvne
from covdensity.errors import BetaRangeError, SymmetryError
from covdensity.filtering import FilterSpec, filter_apply
from covdensity.lab import RunTable, _stability_responses, records_to_csv
from covdensity.network import (
    ACTIVATIONS,
    AGGREGATIONS,
    TASK_LOSSES,
    HeadParams,
    LayerParams,
    TrainConfig,
    _layer_channels,
    evaluate_loss,
    forward_rows,
    init_model,
    model_gradients,
)
from test_network import finite_difference_gradients, gradient_arrays, min_pre_activation

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
    assert abs(np.trace(dense_rho(rho)) - 1.0) <= 8 * m * EPS
    values = rho.density_eigenvalues
    assert np.all(values >= 0.0)
    # rho_i = exp(-beta (lambda_i - lambda_top)) / T with 1 <= T <= m, so rho_i >= exp(-(|beta| spread
    # + ln m)).  A double holds that as a positive number while the exponent is above ln of half the
    # smallest subnormal, -745.13; the exponents' rounding is far below the remaining 0.13.  With
    # |beta| spread alone below 745, m >= 2 nearly equal top weights can still round rho_i to 0.
    spread = float(np.ptp(rho.basis.eigenvalues))
    if abs(beta) * spread + math.log(m) < 745.0:
        assert np.all(values > 0.0)


@settings(max_examples=200, deadline=None)
@given(psd_and_beta())
def test_gibbs_form_equals_shannon_form(case):
    c, beta = case
    report = cvne(c, beta)
    rho = density_operator(c, beta)
    m, norm, log_z = rho.dim, float(np.max(np.abs(rho.basis.eigenvalues))), abs(rho.log_partition)
    # Both forms read the same computed rho~ and lambda.  -ln rho~_i = beta lambda_i + ln Z~ up to
    # the exponent's rounding (<= 1.5 eps |beta| ||C||: the product beta lambda_i, then the shift
    # by the top exponent, at most 2 |beta| ||C|| away) and eps from exp and the division; sum rho~
    # is 1 within (m + 1) eps, which multiplies ln Z.  Each side's sum rounds by m eps times its
    # terms' size, |ln rho_i| <= |beta| ||C|| + |ln Z| and |beta lambda_i| <= |beta| ||C||; the
    # products, ln Z = shift + ln T and the final sums add a few eps of the same.  Altogether at
    # most (2 m + 8) eps (1 + |beta| ||C|| + |ln Z|).
    tol = (2 * m + 8) * EPS * (1.0 + abs(beta) * norm + log_z)
    assert abs(report.gibbs_form_nats - report.entropy_nats) <= tol


@settings(max_examples=200, deadline=None)
@given(psd_and_beta())
def test_shift_gives_a_zero_smallest_eigenvalue_and_trace_normalize_a_unit_trace(case):
    cov = CovarianceMatrix(matrix=case[0])
    norm = float(np.max(np.abs(cov._eigenvalues)))
    # The shift s is eigvalsh's smallest eigenvalue of C, within p(m) eps ||C|| of the exact one
    # (eigvalsh is backward stable, p(m) a small multiple of m); forming C - s I rounds each
    # diagonal entry by at most eps (||C|| + |s|) <= 2 eps ||C||, and eigh of the result errs by
    # p(m) eps ||C - s I|| <= p(m) eps ||C||.  The smallest computed eigenvalue is therefore a few
    # m eps ||C|| (about 1e-14 ||C|| for m <= 8) from 0, far inside the PSD tolerance.  The bound
    # scales with the input's norm, not the shifted matrix's: a rotated 1e8 I shifts to a matrix of
    # norm ~1e-7 whose smallest computed eigenvalue can be -2e-8.
    shifted = cov.matrix - np.min(cov._eigenvalues) * np.eye(cov.matrix.shape[0])
    smallest = float(spectral._eigh(shifted)[0][0])
    assert abs(smallest) <= PSD_RTOL * max(1.0, norm)
    # tr C sums m diagonal entries (relative error (m - 1) eps, the entries being >= 0 up to
    # roundoff), each quotient C_ii / tr rounds by eps / 2 and their sum adds (m - 1) eps more, and
    # symmetrizing leaves the diagonal exact: |tr - 1| <= 2 m eps, about 4e-15 for m <= 8.
    trace = float(np.trace(cov.matrix))
    if trace > 1e-14:
        assert abs(np.trace(trace_normalize(cov).matrix) - 1.0) <= 1e-10
        # Stability checks C itself and shifts only its spectrum, so it accepts every C.
        _stability_responses(cov.matrix, np.zeros((1, *cov.matrix.shape)), np.zeros(1), (0.0,))


@st.composite
def stability_case(draw):
    """A PSD C = Q diag(d) Q^T, 1 to 3 symmetric perturbations and 1 to 3 betas.

    m runs from 2 to 8 and C's scale is 10^k for k in [-3, 3].  d has any rank from 0 to m over at most three
    levels, or is a rotated c I with a tiny spread, c (1 + t u_i) with t in 10^[-12, -4].  Each dC is 0 or a
    symmetric Gaussian draw scaled to 10^j times C's scale, j in [-8, 1].  beta is 0 or +-b / scale with b in
    [1e-3, 1e3], so |beta| ||C|| reaches the range where e^{|beta| ||C||} and Z'/Z overflow.  At rank 0, C has no
    trace to normalize by.
    """
    m = draw(st.integers(2, 8))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rank = draw(st.integers(0, m))
        levels = [1.0] + draw(st.lists(st.floats(0.01, 1.0), max_size=2))
        spectrum = [draw(st.sampled_from(levels)) for _ in range(rank)] + [0.0] * (m - rank)
    else:
        spectrum = 1.0 + 10.0 ** draw(st.floats(-12.0, -4.0)) * rng.uniform(size=m)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    c = (q * (scale * np.asarray(spectrum))) @ q.T
    dc = rng.standard_normal((draw(st.integers(1, 3)), m, m))
    dc = dc + np.swapaxes(dc, -1, -2)
    sizes = [draw(st.one_of(st.just(0.0), st.floats(-8.0, 1.0).map(lambda j: scale * 10.0**j))) for _ in dc]
    dc *= (np.array(sizes) / spectral._norm(np.linalg.eigvalsh(dc)))[:, None, None]
    betas = [draw(st.sampled_from([1.0, -1.0])) * draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3))) / scale
             for _ in range(draw(st.integers(1, 3)))]
    return (c + c.T) / 2.0, dc, betas


def shifted_matrix_responses(c, dc, betas):
    """Stability's responses computed by shifting the matrix, as stability computed them before it shifted
    spectra: C - lambda_min I is formed from C's checked spectrum, decomposed with its perturbations and checked
    at ||C||, and dC's norm is read from the stack of deltas."""
    cov = CovarianceMatrix(matrix=c)
    shifted = cov.matrix - np.min(cov._eigenvalues) * np.eye(cov.matrix.shape[0])
    lam, v = spectral._eigh(np.concatenate([shifted[None], shifted + dc]))
    if lam[0, 0] < -PSD_RTOL * max(1.0, float(spectral._norm(cov._eigenvalues))):
        raise ValueError(f"matrix is not PSD within tolerance: min eigenvalue {lam[0, 0]:.3e}")
    rho, log_z = density_values(lam, betas)
    rho = spectral._spectral_matrix(v[:, None], rho)
    perturbed = cov.matrix + dc
    tn_delta = perturbed / np.trace(perturbed, axis1=-2, axis2=-1)[:, None, None] - cov.matrix / np.trace(cov.matrix)
    norms = spectral._norm(np.linalg.eigvalsh(np.concatenate([dc[:, None], tn_delta[:, None], rho[1:] - rho[0]], 1)))
    norm_c, log_z = spectral._norm(lam).tolist(), log_z.tolist()
    bounds, ratios = [], []
    for k, norm_dc in enumerate(norms[:, 0].tolist(), 1):
        for i, beta in enumerate(betas):
            ratios.append(density._exp("Z'/Z", log_z[k][i] - log_z[0][i]))
            bounds.append(density._error_bound(beta, cov.matrix.shape[0], norm_c[0], norm_c[k], norm_dc, ratios[-1]))
    return norms[:, 1:], bounds, ratios


def first_error_or_result(f, *args):
    """``f(*args)``, or the type of the exception it raises with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return f(*args)
        except Exception as exc:  # the first error, whatever it is, is what is compared
            return type(exc)


@settings(max_examples=60, deadline=None)
@given(stability_case())
def test_shifting_spectra_gives_what_shifting_the_matrix_gives(case):
    """Stability's norms, bounds and ratios from shifted spectra match the shifted-matrix computation.

    Each side's shifted spectra of C and of C + dC are those of matrices within delta = 16 m eps (||C|| + ||dC||)
    of the exact C - lambda_min I and C + dC - lambda_min I: eigh is backward stable (error p(m) eps ||A||, p(m)
    taken as 4m, on matrices of norm at most 2 ||C|| + ||dC||), and forming C + dC, C - s I and its sum with dC
    rounds each entry by eps times the same norms.  So the norms a and b the bound reads move by at most delta on
    each side.  Both sides form rho = V diag(f) V^T of such a matrix, and ||d rho||_F <= 2 |beta| ||E||_F <=
    2 |beta| sqrt(m) delta (see permutation_tolerance), plus m eps from forming each rho and from eigvalsh of
    each delta: a response norm moves by at most 8 |beta| sqrt(m) delta + 12 m eps.  ln Z is |beta|-Lipschitz in
    the matrix (d ln Z = -beta tr(rho dA)) and shift invariant, so ln R = ln Z' - ln Z moves by at most
    4 |beta| delta, plus the rounding of each ln Z, eps (3 |beta| (2 ||C|| + ||dC||) + m + 2).  For beta < 0 the
    bound also reads e^{|beta| a}, 1 + m e^{|beta| a} and phi(x) = expm1(x) / x at x = |beta| (b - a); ln phi is
    1-Lipschitz and its series cut at |x| < _F_SERIES_EPS errs by at most _F_SERIES_EPS / 2, so ln bound moves by
    8 |beta| delta + _F_SERIES_EPS / 2 more.  The ratio and the bound are held to one log-tolerance, the sum of
    these.  Where the shifted-matrix computation raises, the spectral one raises the same type.
    """
    c, dc, betas = case
    got = first_error_or_result(lambda: _stability_responses(c, dc, spectral._norm(np.linalg.eigvalsh(dc)), betas))
    want = first_error_or_result(shifted_matrix_responses, c, dc, betas)
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    m, norm_c = len(c), float(spectral._norm(np.linalg.eigvalsh(c)))
    norm_dc = float(np.max(spectral._norm(np.linalg.eigvalsh(dc))))
    delta = 16 * m * EPS * (norm_c + norm_dc)
    b = np.abs([0.0, *betas])  # the trace-normalized response, then each beta's
    assert np.all(np.abs(got[0] - want[0]) <= 8 * b * math.sqrt(m) * delta + 12 * m * EPS)
    log_tol = np.array([12 * abs(beta) * delta + 8 * EPS * (3 * abs(beta) * (2 * norm_c + norm_dc) + m + 2)
                        + (density._F_SERIES_EPS / 2 if beta < 0 else 0.0) for beta in betas] * len(dc))
    for name, got_values, want_values in (("bound", got[1], want[1]), ("ratio", got[2], want[2])):
        got_values = np.array([x for x in got_values if x is not None])
        assert np.all(np.abs(got_values - np.array(want_values)) <= np.expm1(log_tol) * np.abs(want_values)), name


def permutation_tolerance(m, norm_c, beta, coeffs):
    """Bound on |H(rho(P C P^T)) P x - P H(rho(C)) x| per unit ||x|| for the taps ``coeffs`` (last axis).

    Each side forms H = V diag(p(rho)) V^T from a backward-stable eigh: its eigenpairs are exact for
    C + E with ||E||_F <= 2 m eps ||C||, and P H(C) P^T = H(P C P^T) exactly.  The density map moves by
    ||d rho||_F <= 2 |beta| ||E||_F: the divided differences of exp(-beta lambda) / Z are at most |beta|
    (every rho_i <= 1) and d ln Z = -beta sum rho_i d lambda_i.  On [0, 1] the polynomial p moves by at
    most sum_k k |h_k| per unit of rho.  Forming p(rho), the products with V^T and V and the columns'
    departure from orthonormality add a few m eps sum_k |h_k|.  With 4x headroom on each side and
    both sides summed: 16 m eps (sum_k |h_k| + 2 |beta| ||C|| sum_k k |h_k|).
    """
    h = np.abs(coeffs)
    return 16 * m * EPS * (h.sum(axis=-1) + 2 * abs(beta) * norm_c * (h * np.arange(h.shape[-1])).sum(axis=-1))


@st.composite
def permuted_case(draw):
    """A psd_and_beta case, a permutation of its indices, and a seeded generator for taps and signals."""
    c, beta = draw(psd_and_beta())
    perm = np.array(draw(st.permutations(range(len(c)))))
    return c, beta, perm, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(permuted_case(), st.integers(0, 4), st.booleans())
def test_filter_of_a_permuted_covariance_is_the_permuted_filter(case, order, zero_h0):
    c, beta, perm, rng = case
    coeffs = rng.standard_normal(order + 1)
    if zero_h0:
        coeffs[0] = 0.0  # h_0 = 0 drops the unfiltered term, as a skip_k0 layer does
    spec = FilterSpec(coeffs=coeffs, beta=beta)
    x = rng.standard_normal(len(c))
    got = filter_apply(spec, density_operator(c[np.ix_(perm, perm)], beta), x[perm])
    want = filter_apply(spec, density_operator(c, beta), x)[perm]
    norm_c = float(np.max(np.abs(np.linalg.eigvalsh(c))))
    bound = permutation_tolerance(len(c), norm_c, beta, spec.coeffs) * np.linalg.norm(x)
    assert np.max(np.abs(got - want)) <= bound


@settings(max_examples=100, deadline=None)
@given(
    permuted_case(),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(0, 3),
    st.sampled_from(list(ACTIVATIONS)),
    st.booleans(),
)
def test_layer_of_a_permuted_covariance_and_features_is_the_permuted_layer(case, f_out, f_in, order, activation, skip_k0):
    c, beta, perm, rng = case
    layer = LayerParams(
        coeffs=rng.standard_normal((f_out, f_in, order + 1)),
        betas=beta * rng.uniform(-1.0, 1.0, f_out),
        activation=activation,
        skip_k0=skip_k0,
    )
    x = rng.standard_normal((2, f_in, len(c)))  # (batch, channel, node)

    def channels(matrix, signal):
        decomp = spectral.eigh(matrix)  # as a model decomposes its covariance
        return _layer_channels(layer, decomp.eigenvectors, density_values(decomp.eigenvalues, layer.betas)[0], signal)[0]

    got = channels(c[np.ix_(perm, perm)], x[:, :, perm])
    want = channels(c, x)[:, :, perm]
    # Each output channel sums f_in filtered inputs; every activation is 1-Lipschitz.
    norm_c = float(np.max(np.abs(np.linalg.eigvalsh(c))))
    taps = layer.coeffs.copy()
    taps[..., : layer.k_start] = 0.0
    per_input = permutation_tolerance(len(c), norm_c, layer.betas[:, None], taps)  # (f_out, f_in)
    bound = np.einsum("og,bg->bo", per_input, np.linalg.norm(x, axis=2))
    assert np.all(np.abs(got - want) <= bound[:, :, None])


# Central-difference step, and the margin by which every ReLU/ELU pre-activation must clear its
# kink: a step of 2 h moves a pre-activation by 2 h |d pre / d theta|, about 2e-4 at most here, so
# no difference crosses the kink (test_network.py's finite-difference test uses the same pair).
STEP = 1e-5
KINK_MARGIN = 1e-3


@st.composite
def network_case(draw):
    """A model over a random covariance, a batch with its targets, and a loss."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    losses = sum(TASK_LOSSES.values(), ())
    dim, loss = draw(st.integers(2, 5)), draw(st.sampled_from(losses))
    activation, head_activation = (draw(st.sampled_from(list(ACTIVATIONS))) for _ in range(2))
    n_outputs = draw(st.integers(2 if loss == "cross_entropy" else 1, 3))
    cfg = TrainConfig(
        betas=draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3)),
        order=draw(st.integers(0, 3)),
        hidden_dim=draw(st.integers(1, 4)),
        num_layers=draw(st.integers(1, 2)),
        activation=activation,
        head_activation=head_activation,
        aggregation=draw(st.sampled_from(AGGREGATIONS)),
        betas_learnable=draw(st.booleans()),
        skip_k0=draw(st.booleans()),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    model = init_model(random_psd(rng, dim), n_outputs, cfg)
    batch = draw(st.integers(1, 3))
    xs = rng.standard_normal((batch, dim))
    if {activation, head_activation} & {"elu", "relu"}:
        # Redraw the inputs until every pre-activation is off the kink.  One that is 0 whatever the
        # input (after a skip_k0 layer of order 0, which outputs zeros) never is: reject that model.
        for _ in range(100):
            if min_pre_activation(model, xs) >= KINK_MARGIN:
                break
            xs = rng.standard_normal((batch, dim))
        assume(min_pre_activation(model, xs) >= KINK_MARGIN)
    if loss == "cross_entropy":
        ys = rng.integers(0, model.head.w2.shape[0], batch).tolist()
    else:  # each residual 0.5 to 1.5 away from the kink of |r| at 0
        out = forward_rows(model, xs)
        ys = out + rng.choice([-1.0, 1.0], out.shape) * rng.uniform(0.5, 1.5, out.shape)
    return model, xs, ys, loss


@settings(max_examples=40, deadline=None)
@given(network_case())
def test_batched_gradients_equal_central_differences(case):
    model, xs, ys, loss = case
    value, grads = model_gradients(model, xs, ys, loss)
    loss_value = evaluate_loss(model, xs, ys, loss)
    assert value == loss_value  # one block of rows through the same forward arithmetic
    got = gradient_arrays(model, grads)
    d_h = finite_difference_gradients(model, xs, ys, loss, step=STEP)
    d_2h = finite_difference_gradients(model, xs, ys, loss, step=2 * STEP)
    assert list(got) == list(d_h)
    # Truncation: D(h) = (L(t + h) - L(t - h)) / 2h = g + h^2 L'''/6 + O(h^4), so
    # D(2h) - D(h) = h^2 L'''/2 + O(h^4), three times the leading error of D(h), which covers the
    # higher-order part.  Rounding: a loss value off by at most delta moves D(h) by delta / h and
    # D(2h) - D(h) by 1.5 delta / h.  The loss's longest path sums fewer than 80 products
    # (eigenbasis changes over <= 5 directions, <= 4 taps and <= 3 scales per layer, <= 30 head
    # features, <= 4 hidden units, <= 3 outputs), each rounding by eps relative to its terms'
    # magnitudes, which init_model's small weights and unit-normal inputs keep within 4 (1 + |L|):
    # delta <= 80 * 4 eps (1 + |L|) < 2^10 eps (1 + |L|).  The analytic gradient is off by about
    # delta itself, h times less than delta / h.  Per entry: |g - D(h)| <= |D(2h) - D(h)| + 2 delta / h.
    rounding = 2 * 2**10 * EPS * (1.0 + abs(loss_value)) / STEP
    for name, g in got.items():
        bound = np.abs(d_2h[name] - d_h[name]) + rounding
        assert np.all(np.abs(g - d_h[name]) <= bound), (name, g, d_h[name], bound)


_MAX = float(np.finfo(float).max)
_TINY = float(np.finfo(float).tiny)  # smallest normal double; below it are the subnormals

# Cells that stress the text round trip: zeros of both signs, subnormals, values near the largest
# double, any finite double, integers beyond 2^53, bools and strings.
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _TINY, -_TINY, _MAX, -_MAX]),
    st.floats(-_TINY, _TINY),
    st.floats(1e308, _MAX),
    st.floats(-_MAX, -1e308),
    st.floats(allow_nan=False, allow_infinity=False),
)
_PARAM_CELLS = st.one_of(st.none(), _FLOATS, st.integers(-(2**60), 2**60), st.booleans(), st.text())


@st.composite
def run_columns(draw):
    n = draw(st.integers(1, 6))
    keys = st.lists(st.text("ab_:", min_size=1, max_size=3), unique=True, max_size=4)
    params = {k: draw(st.lists(_PARAM_CELLS, min_size=n, max_size=n)) for k in draw(keys)}
    metrics = {k: draw(st.lists(st.one_of(st.none(), _FLOATS), min_size=n, max_size=n)) for k in draw(keys)}
    return n, params, metrics


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


@settings(max_examples=200, deadline=None)
@given(run_columns())
def test_run_table_cells_read_back_from_results_csv_bit_for_bit(tmp_path_factory, columns):
    n, params, metrics = columns
    if any(v == "" for c in params.values() for v in c):  # its cell would read back as a lacking one
        with pytest.raises(ValueError, match="empty string"):
            RunTable("x", 3, params, metrics)
        return
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    records_to_csv(RunTable("x", 3, params, metrics), path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    # A column is written when some cell of it is not None: the params, then the metrics, each by name.
    written = {
        f"{prefix}:{k}": cells[k]
        for prefix, cells in (("p", params), ("m", metrics))
        for k in sorted(cells)
        if any(v is not None for v in cells[k])
    }
    assert header == ["experiment", "seed", *written]
    assert len(rows) == (n if written else 0)
    for i, row in enumerate(rows):
        assert row[:2] == ["x", "3"]
        for name, text in zip(header[2:], row[2:]):
            want = written[name][i]
            if want is None:
                assert text == ""
            elif isinstance(want, str):
                assert text == want
            else:  # a number or bool, held as the nearest double
                assert text != "" and _bits(float(text)) == _bits(want), (name, text, want)


# The stacked kernels density_values, covariance._covariance_array and spectral._symmetrize work in place;
# these oracles are their out-of-place forms as first written.  Each applies the same floating-point
# operations to the same values, so results, first errors and warnings must agree bit for bit.


def out_of_place_density_values(eigenvalues, betas):
    lam = np.asarray(eigenvalues, dtype=float)
    betas = np.ravel(betas)
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = -(betas[:, None] * lam[..., None, :])
        shift = exponents.max(axis=-1)
        shifted = exponents - shift[..., None]
    if not np.all(np.isfinite(shift)):
        if not np.all(np.isfinite(betas)):
            raise ValueError("beta must be finite")
        k = np.flatnonzero(~np.isfinite(shift))[0]
        beta, norm = betas[k % betas.size], np.ravel(spectral._norm(lam))[k // betas.size]
        raise BetaRangeError(f"beta * lambda overflows a double at beta = {beta:.6g}, ||C|| = {norm:.6g}")
    weights = np.exp(shifted)
    total = weights.sum(axis=-1)
    return weights / total[..., None], shift + np.log(total)


def out_of_place_covariance_array(x):
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=-2, keepdims=True)
        c = np.swapaxes(centered, -1, -2) @ centered / x.shape[-2]
    if not np.all(np.isfinite(c)):
        raise ValueError("sample covariance overflows a double")
    return c / 2.0 + np.swapaxes(c, -1, -2) / 2.0


def out_of_place_symmetrize(m):
    m_t = np.swapaxes(m, -1, -2)
    tolerance = spectral.SYMMETRY_RTOL * np.abs(m).max(axis=(-2, -1), initial=1.0)
    asym = np.abs(m - m_t).max(axis=(-2, -1), initial=0.0)
    if (asym > tolerance).any():
        k = np.flatnonzero(asym > tolerance)[0]
        raise SymmetryError(f"matrix asymmetry {np.ravel(asym)[k]:.3e} exceeds tolerance {np.ravel(tolerance)[k]:.3e}")
    return m / 2.0 + m_t / 2.0


def outcome(kernel, *args):
    """A call's arrays (dtype, shape and bytes) or its exception (type and message), with its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = kernel(*args)
        except Exception as exc:  # the first error, whatever it is, is what is compared
            got = (type(exc), str(exc))
        else:
            got = [(a.dtype, a.shape, a.tobytes()) for a in (result if isinstance(result, tuple) else (result,))]
    return got, [(w.category, str(w.message)) for w in caught]


# Ordinary values mixed with +-huge (products and sums overflow), subnormal and signed-zero entries; squares
# of +-1.3e154 sum past the largest double, and the square of 1.1e-160 is an odd multiple of the least subnormal.
_KERNEL_ENTRIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([1.5e308, -1.5e308, 1e300, 1.3e154, -1.3e154, 8.99e307, 1.1e-160, 5e-324, -5e-324, -1e-310, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_LEADING = st.sampled_from([(), (1,), (3,), (2, 2)])


@st.composite
def entry_arrays(draw, trailing):
    """_KERNEL_ENTRIES on a leading stack shape (none for a single item) followed by ``trailing``."""
    shape = draw(_LEADING) + trailing
    size = math.prod(shape)
    return np.array(draw(st.lists(_KERNEL_ENTRIES, min_size=size, max_size=size))).reshape(shape)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(lambda m: entry_arrays((m,))),
    st.lists(st.one_of(st.floats(-2.0, 2.0), _KERNEL_ENTRIES, _NON_FINITE), max_size=4),
)
@example(np.array([1.0, -1.0]), [1e308])  # the exponents straddle more than the double range: one shifts to -inf
@example(np.array([[1.0, -1.0], [1.0, 2.0]]), [1.0, 1e308])  # the same row stacked beside an overflowed product
def test_density_values_in_place_matches_out_of_place(lam, betas):
    assert outcome(density_values, lam, betas) == outcome(out_of_place_density_values, lam, betas)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 4)).flatmap(entry_arrays))
@example(np.array([[1.3e154], [-1.3e154]]))  # the Gram overflows a double
@example(np.array([[1.1e-160], [-1.1e-160]]))  # a covariance that halving first rounds: (c + c) / 2 would not
def test_covariance_array_in_place_matches_out_of_place(x):
    assert outcome(covariance._covariance_array, x) == outcome(out_of_place_covariance_array, x)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: entry_arrays((d, d))), st.booleans(), st.booleans())
def test_symmetrize_in_place_matches_out_of_place(m, mirror, nudge):
    if mirror:  # mirror the upper triangle, then perhaps move one entry an ulp toward 0
        m = np.triu(m) + np.swapaxes(np.triu(m, 1), -1, -2)
        if nudge and m.shape[-1] > 1:
            m[..., 1, 0] = np.nextafter(m[..., 1, 0], 0.0)
    assert outcome(spectral._symmetrize, m) == outcome(out_of_place_symmetrize, m)


# Each record class with valid values for the keys it requires.
_RECORDS = [
    *((config_class, {}) for config_class, _ in lab.RUNNERS.values()),
    (TrainConfig, {"betas": (1.0,)}),
    (LayerParams, {"coeffs": np.zeros((2, 1, 3)), "betas": (0.5, 2.0)}),
    (HeadParams, {"w1": np.zeros((3, 4)), "b1": np.zeros(3), "w2": np.zeros((2, 3)), "b2": np.zeros(2)}),
]
_ADVERSARIAL = st.one_of(
    st.sampled_from([0, -0.0, -1, -2.5, 1e-310, 1e154, -1e154, 1e308, -1e308, math.inf, -math.inf, math.nan,
                     10**400, -(10**400), True, False, None, "", [], [1.0, "x"], [0, None], [math.nan, True]]),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(cls, base, f.name) for cls, base in _RECORDS for f in dataclasses.fields(cls)]), _ADVERSARIAL)
@example((lab.RegressionConfig, {}, "n_train"), 10**400)  # ridge * n_train once raised a bare OverflowError
def test_record_builds_or_names_the_key_of_its_one_adversarial_value(case, value):
    record, base, key = case
    try:
        record(**{**base, key: value})
    except ValueError as exc:
        assert str(exc).startswith(f"/{key}: "), (record.__name__, key, value, str(exc))
