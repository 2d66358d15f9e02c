import itertools
import math

import numpy as np
import pytest

from conftest import dense_rho, log_domain_response, permutation_residual, random_low_rank, random_psd
from covdensity.density import density_operator
from covdensity.errors import ShapeError
from covdensity.filtering import FilterSpec, filter_apply, lipschitz_alpha, polynomial_response


def dense_polynomial_apply(spec, rho_dense, x):
    """Oracle: literal sum_k h_k rho^k x with dense matrix powers."""
    out = np.zeros_like(x)
    power = np.eye(len(x))
    for h in spec.coeffs:
        out = out + h * (power @ x)
        power = power @ rho_dense
    return out


class TestFilterApply:
    def test_identity_filter(self, rng):
        c = random_psd(rng, 4)
        rho = density_operator(c, 1.0)
        x = rng.standard_normal(4)
        spec = FilterSpec(coeffs=[1.0], beta=1.0)
        np.testing.assert_allclose(filter_apply(spec, rho, x), x, atol=1e-12)

    def test_single_shift(self, rng):
        c = random_psd(rng, 4)
        rho = density_operator(c, 0.7)
        x = rng.standard_normal(4)
        spec = FilterSpec(coeffs=[0.0, 1.0], beta=0.7)
        np.testing.assert_allclose(filter_apply(spec, rho, x), dense_rho(rho) @ x, rtol=1e-10, atol=1e-12)

    def test_matches_dense_polynomial(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 17))
            c = random_psd(rng, dim)
            beta = float(rng.uniform(-2, 2))
            rho = density_operator(c, beta)
            order = int(rng.integers(0, 6))
            spec = FilterSpec(coeffs=rng.standard_normal(order + 1), beta=beta)
            x = rng.standard_normal(dim)
            got = filter_apply(spec, rho, x)
            want = dense_polynomial_apply(spec, dense_rho(rho), x)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_h0_zero_drops_identity_term(self, rng):
        c = random_psd(rng, 3)
        rho = density_operator(c, 1.0)
        x = rng.standard_normal(3)
        spec = FilterSpec(coeffs=[0.0, 1.0], beta=1.0)
        np.testing.assert_allclose(filter_apply(spec, rho, x), dense_rho(rho) @ x, rtol=1e-10, atol=1e-12)
        # Every other tap is the same: h_0 = 5 adds 5 x, and only that.
        with_h0 = filter_apply(FilterSpec(coeffs=[5.0, 1.0], beta=1.0), rho, x)
        np.testing.assert_allclose(with_h0 - 5.0 * x, dense_rho(rho) @ x, rtol=1e-10, atol=1e-12)

    def test_beta_zero_collapse_to_scalar_multiple(self, rng):
        dim = 5
        c = random_psd(rng, dim)
        rho = density_operator(c, 0.0)
        coeffs = [0.3, -1.2, 2.0]
        spec = FilterSpec(coeffs=coeffs, beta=0.0)
        x = rng.standard_normal(dim)
        scalar = sum(h / dim**k for k, h in enumerate(coeffs))
        np.testing.assert_allclose(filter_apply(spec, rho, x), scalar * x, rtol=1e-12, atol=1e-13)

    def test_dimension_mismatch(self, rng):
        rho = density_operator(np.eye(3), 1.0)
        with pytest.raises(ShapeError):
            filter_apply(FilterSpec(coeffs=[1.0], beta=1.0), rho, np.ones(4))


class TestResponseAtDensityEigenvalues:
    # The response at a source eigenvalue lambda_i is the polynomial at rho_i = exp(-beta lambda_i) / Z.
    def test_unit_density_eigenvalue(self, rng):
        rho = density_operator(random_psd(rng, 4), 0.7)
        spec = FilterSpec(coeffs=[0.0, 1.0], beta=0.7)
        np.testing.assert_array_equal(polynomial_response(spec, rho.density_eigenvalues), rho.density_eigenvalues)

    def test_beta_zero_uniform(self):
        spec = FilterSpec(coeffs=[0.4, 2.0], beta=0.0)
        m = 6
        rho = density_operator(np.diag([0.0, 1.0, 17.5, 3.0, 3.0, 9.0]), 0.0)
        np.testing.assert_allclose(polynomial_response(spec, rho.density_eigenvalues), 0.4 + 2.0 / m, rtol=1e-12)

    def test_matches_density_eigenvalue_anchor(self):
        rho = density_operator(np.diag([2.0, 0.0, 0.0]), 1.0)
        spec = FilterSpec(coeffs=[0.0, 1.0], beta=1.0)
        got = polynomial_response(spec, rho.density_eigenvalues)[-1]  # source eigenvalues ascend: lambda = 2 is last
        assert got == pytest.approx(math.exp(-2.0) / (2.0 + math.exp(-2.0)), rel=1e-12)

    def test_consistent_with_log_domain_formula(self, rng):
        rho = density_operator(random_psd(rng, 5), 1.1)
        spec = FilterSpec(coeffs=rng.standard_normal(4), beta=1.1)
        want = np.array([log_domain_response(spec, lam, rho.log_partition) for lam in rho.basis.eigenvalues])
        np.testing.assert_allclose(polynomial_response(spec, rho.density_eigenvalues), want, rtol=1e-9, atol=1e-12)
        x = rng.standard_normal(5)
        v = rho.basis.eigenvectors
        np.testing.assert_allclose(filter_apply(spec, rho, x), v @ (want * (v.T @ x)), rtol=1e-9, atol=1e-12)

    def test_defined_where_z_overflows(self):
        # Z = e^800 + 1 is past the largest double; the density eigenvalues are 0 and 1, and so is the response.
        rho = density_operator(np.diag([800.0, 0.0]), -1.0)
        assert rho.log_partition == pytest.approx(800.0, rel=1e-15)
        spec = FilterSpec(coeffs=[0.0, 1.0], beta=-1.0)
        np.testing.assert_array_equal(polynomial_response(spec, rho.density_eigenvalues), [0.0, 1.0])

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 1, 4)])
    def test_elementwise_over_any_shape(self, rng, shape):
        coeffs = rng.standard_normal(4)
        coeffs[0] = 0.0  # h_0 = 0: the response sums the taps k = 1..3
        spec = FilterSpec(coeffs=coeffs, beta=0.3)
        r = rng.uniform(0.0, 1.0, shape)
        got = polynomial_response(spec, r)
        assert got.shape == shape
        want = np.vectorize(lambda x: sum(spec.coeffs[k] * x**k for k in range(1, 4)))(r)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestLipschitzConstants:
    def test_order_zero_filter(self):
        assert lipschitz_alpha(FilterSpec(coeffs=[1.0], beta=123.0)) == 0.0

    def test_single_tap(self):
        assert lipschitz_alpha(FilterSpec(coeffs=[0.0, 1.0], beta=2.0)) == pytest.approx(2.0)

    def test_weighted_sum(self):
        assert lipschitz_alpha(FilterSpec(coeffs=[1.0, 2.0, 3.0], beta=0.5)) == pytest.approx(4.0)

    def test_h0_does_not_change_alpha(self):
        a = lipschitz_alpha(FilterSpec(coeffs=[9.0, 2.0], beta=1.0))
        b = lipschitz_alpha(FilterSpec(coeffs=[0.0, 2.0], beta=1.0))
        assert a == b

    def test_empirical_lipschitz_bound(self, rng):
        for _ in range(2000):
            lam1, lam2 = rng.uniform(0.0, 10.0, size=2)
            if abs(lam2 - lam1) < 1e-12:
                continue
            order = int(rng.integers(1, 6))
            spec = FilterSpec(coeffs=rng.standard_normal(order + 1), beta=float(rng.uniform(-3, 3)))
            r = polynomial_response(spec, density_operator(np.diag([lam1, lam2]), spec.beta).density_eigenvalues)
            diff = abs(r[1] - r[0])
            assert diff <= lipschitz_alpha(spec) * abs(lam2 - lam1) + 1e-12


class TestPermutationEquivariance:
    def test_identity_permutation(self, rng):
        c = random_psd(rng, 4)
        spec = FilterSpec(coeffs=[0.5, 1.0, -0.3], beta=1.2)
        x = rng.standard_normal(4)
        assert permutation_residual(spec, c, x, np.arange(4)) <= 1e-12

    def test_exhaustive_s3(self, rng):
        c = random_psd(rng, 3)
        spec = FilterSpec(coeffs=[0.2, 1.0, 0.7], beta=-0.8)
        x = rng.standard_normal(3)
        for perm in itertools.permutations(range(3)):
            residual = permutation_residual(spec, c, x, np.array(perm))
            assert residual <= 1e-9 * max(1.0, float(np.linalg.norm(x)))

    def test_rank_one_with_repeated_eigenvalues(self, rng):
        c = random_low_rank(rng, 4, 1)
        spec = FilterSpec(coeffs=[0.1, 2.0, 1.0], beta=1.0)
        x = rng.standard_normal(4)
        for perm in ([1, 0, 3, 2], [3, 2, 1, 0]):
            residual = permutation_residual(spec, c, x, np.array(perm))
            assert residual <= 1e-9 * max(1.0, float(np.linalg.norm(x)))

    @pytest.mark.parametrize("kind", ["rank_one", "repeated_block", "scaled_identity", "near_degenerate"])
    def test_degenerate_spectra(self, rng, kind):
        # Eigenvectors of a repeated eigenvalue are not unique, but V diag(p(rho)) V^T is.
        worst = 0.0
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            if kind == "rank_one":
                spectrum = np.r_[np.zeros(dim - 1), rng.uniform(0.1, 10.0)]
            elif kind == "repeated_block":
                spectrum = rng.uniform(0.0, 10.0, 2)[rng.integers(0, 2, dim)]
            elif kind == "scaled_identity":
                spectrum = np.full(dim, 10.0 ** rng.uniform(-3.0, 2.0))
            else:
                spectrum = rng.uniform(0.0, 10.0, dim)
                spectrum[1] = spectrum[0] + 1e-10
            c = (q * spectrum) @ q.T
            spec = FilterSpec(coeffs=rng.standard_normal(int(rng.integers(1, 5))), beta=float(rng.uniform(-2, 2)))
            x = rng.standard_normal(dim)
            residual = permutation_residual(spec, (c + c.T) / 2.0, x, rng.permutation(dim))
            worst = max(worst, residual / max(1.0, float(np.linalg.norm(x))))
        assert worst <= 1e-9

    def test_permutation_matrix_input(self, rng):
        # H(rho(T C T^T)) T x = T H(rho(C)) x for a permutation matrix T, in the paper's form.
        c = random_psd(rng, 3).matrix
        spec = FilterSpec(coeffs=[0.0, 1.0], beta=0.5)
        x = rng.standard_normal(3)
        t = np.zeros((3, 3))
        t[[2, 0, 1], [0, 1, 2]] = 1.0
        permuted = filter_apply(spec, density_operator(t @ c @ t.T, spec.beta), t @ x)
        np.testing.assert_allclose(permuted, t @ filter_apply(spec, density_operator(c, spec.beta), x), atol=1e-9)


class TestFilterSpecValidation:
    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            FilterSpec(coeffs=[], beta=1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FilterSpec(coeffs=[1.0, np.inf], beta=1.0)
        with pytest.raises(ValueError):
            FilterSpec(coeffs=[1.0], beta=math.nan)

    def test_order_property(self):
        assert FilterSpec(coeffs=[1.0, 2.0, 3.0], beta=0.0).order == 2

    def test_leaves_caller_array_writable(self):
        coeffs = np.array([1.0, 0.5])
        spec = FilterSpec(coeffs=coeffs, beta=1.0)
        coeffs[0] = 3.0
        assert spec.coeffs[0] == 1.0
        with pytest.raises(ValueError):
            spec.coeffs[0] = 2.0
