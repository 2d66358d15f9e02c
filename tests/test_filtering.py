import itertools
import math

import numpy as np
import pytest

from conftest import random_low_rank, random_psd
from covdensity.density import density_operator, partition_function
from covdensity.errors import ShapeError
from covdensity.filtering import (
    FilterSpec,
    check_permutation_equivariance,
    filter_apply,
    frequency_response,
    lipschitz_alpha,
)


def dense_polynomial_apply(spec, rho_dense, x):
    """Oracle: literal sum_k h_k rho^k x with dense matrix powers."""
    out = np.zeros_like(x)
    power = np.eye(len(x))
    for k, h in enumerate(spec.coeffs):
        if k >= spec.k_start:
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
        np.testing.assert_allclose(filter_apply(spec, rho, x), rho.matrix() @ x, rtol=1e-10, atol=1e-12)

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
            want = dense_polynomial_apply(spec, rho.matrix(), x)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_skip_k0_drops_identity_term(self, rng):
        c = random_psd(rng, 3)
        rho = density_operator(c, 1.0)
        x = rng.standard_normal(3)
        spec = FilterSpec(coeffs=[5.0, 1.0], beta=1.0, skip_k0=True)
        np.testing.assert_allclose(filter_apply(spec, rho, x), rho.matrix() @ x, rtol=1e-10, atol=1e-12)

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


class TestFrequencyResponse:
    def test_unit_density_eigenvalue(self):
        beta, lam = 1.0, 0.7
        z = math.exp(-beta * lam)
        spec = FilterSpec(coeffs=[0.0, 1.0], beta=beta)
        assert frequency_response(spec, lam, z) == pytest.approx(1.0, rel=1e-12)

    def test_beta_zero_uniform(self):
        spec = FilterSpec(coeffs=[0.4, 2.0], beta=0.0)
        m = 6
        for lam in (0.0, 1.0, 17.5):
            assert frequency_response(spec, lam, float(m)) == pytest.approx(0.4 + 2.0 / m, rel=1e-12)

    def test_matches_density_eigenvalue_anchor(self):
        z = partition_function(np.diag([2.0, 0.0, 0.0]), 1.0)
        spec = FilterSpec(coeffs=[0.0, 1.0], beta=1.0)
        got = frequency_response(spec, 2.0, z)
        assert got == pytest.approx(math.exp(-2.0) / (2.0 + math.exp(-2.0)), rel=1e-12)

    def test_consistent_with_filter_apply(self, rng):
        c = random_psd(rng, 5)
        beta = 1.1
        rho = density_operator(c, beta)
        spec = FilterSpec(coeffs=rng.standard_normal(4), beta=beta)
        x = rng.standard_normal(5)
        responses = np.array(
            [frequency_response(spec, lam, rho.partition_function) for lam in rho.source_spectrum]
        )
        v = rho.basis.eigenvectors
        want = v @ (responses * (v.T @ x))
        np.testing.assert_allclose(filter_apply(spec, rho, x), want, rtol=1e-9, atol=1e-12)

    def test_requires_positive_z(self):
        with pytest.raises(ValueError):
            frequency_response(FilterSpec(coeffs=[1.0], beta=1.0), 0.0, 0.0)


class TestLipschitzConstants:
    def test_order_zero_filter(self):
        assert lipschitz_alpha(FilterSpec(coeffs=[1.0], beta=123.0)) == 0.0

    def test_single_tap(self):
        assert lipschitz_alpha(FilterSpec(coeffs=[0.0, 1.0], beta=2.0)) == pytest.approx(2.0)

    def test_weighted_sum(self):
        assert lipschitz_alpha(FilterSpec(coeffs=[1.0, 2.0, 3.0], beta=0.5)) == pytest.approx(4.0)

    def test_skip_k0_does_not_change_alpha(self):
        a = lipschitz_alpha(FilterSpec(coeffs=[9.0, 2.0], beta=1.0))
        b = lipschitz_alpha(FilterSpec(coeffs=[9.0, 2.0], beta=1.0, skip_k0=True))
        assert a == b

    def test_empirical_lipschitz_bound(self, rng):
        for _ in range(2000):
            lam1, lam2 = rng.uniform(0.0, 10.0, size=2)
            if abs(lam2 - lam1) < 1e-12:
                continue
            order = int(rng.integers(1, 6))
            spec = FilterSpec(coeffs=rng.standard_normal(order + 1), beta=float(rng.uniform(-3, 3)))
            z = partition_function(np.diag([lam1, lam2]), spec.beta)
            diff = abs(frequency_response(spec, lam2, z) - frequency_response(spec, lam1, z))
            assert diff <= lipschitz_alpha(spec) * abs(lam2 - lam1) + 1e-12


class TestPermutationEquivariance:
    def test_identity_permutation(self, rng):
        c = random_psd(rng, 4)
        spec = FilterSpec(coeffs=[0.5, 1.0, -0.3], beta=1.2)
        x = rng.standard_normal(4)
        assert check_permutation_equivariance(spec, c, x, np.arange(4)) <= 1e-12

    def test_exhaustive_s3(self, rng):
        c = random_psd(rng, 3)
        spec = FilterSpec(coeffs=[0.2, 1.0, 0.7], beta=-0.8)
        x = rng.standard_normal(3)
        for perm in itertools.permutations(range(3)):
            residual = check_permutation_equivariance(spec, c, x, np.array(perm))
            assert residual <= 1e-9 * max(1.0, float(np.linalg.norm(x)))

    def test_rank_one_with_repeated_eigenvalues(self, rng):
        c = random_low_rank(rng, 4, 1)
        spec = FilterSpec(coeffs=[0.1, 2.0, 1.0], beta=1.0)
        x = rng.standard_normal(4)
        for perm in ([1, 0, 3, 2], [3, 2, 1, 0]):
            residual = check_permutation_equivariance(spec, c, x, np.array(perm))
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
            residual = check_permutation_equivariance(spec, (c + c.T) / 2.0, x, rng.permutation(dim))
            worst = max(worst, residual / max(1.0, float(np.linalg.norm(x))))
        assert worst <= 1e-9

    def test_permutation_matrix_input(self, rng):
        c = random_psd(rng, 3)
        spec = FilterSpec(coeffs=[0.0, 1.0], beta=0.5)
        x = rng.standard_normal(3)
        t = np.zeros((3, 3))
        t[[2, 0, 1], [0, 1, 2]] = 1.0
        assert check_permutation_equivariance(spec, c, x, t) <= 1e-9

    def test_invalid_permutation_rejected(self, rng):
        c = random_psd(rng, 3)
        spec = FilterSpec(coeffs=[1.0], beta=1.0)
        with pytest.raises(ValueError):
            check_permutation_equivariance(spec, c, np.ones(3), np.array([0, 0, 2]))
        # Truncating these floats would give the identity [0, 1, 2].
        with pytest.raises(ValueError, match="invalid permutation"):
            check_permutation_equivariance(spec, np.diag([1.0, 2.0, 3.0]), np.ones(3), [0.9, 1.2, 2.0])


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
