import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_low_rank, random_psd
from covdensity.covariance import shift_regularize
from covdensity.density import (
    density_error_bound,
    density_operator,
    density_values,
    f_factor,
    partition_function,
    partition_ratio,
)
from covdensity.errors import BetaRangeError, ShapeError
from covdensity.spectral import eigh, operator_norm


def scalar_density(eigenvalues, beta):
    """Independent oracle: direct scalar evaluation of e^{-b l} / sum."""
    weights = [math.exp(-beta * lam) for lam in eigenvalues]
    z = sum(weights)
    return [w / z for w in weights], z


class TestDensityOperator:
    def test_beta_zero_is_uniform(self, rng):
        c = random_psd(rng, 5)
        rho = density_operator(c, 0.0)
        np.testing.assert_allclose(rho.density_eigenvalues, 0.2, atol=1e-15)
        assert rho.partition_function == pytest.approx(5.0)

    def test_rank_one_anchor(self):
        rho = density_operator(np.diag([2.0, 0.0, 0.0]), 1.0)
        expected, z = scalar_density([0.0, 0.0, 2.0], 1.0)
        np.testing.assert_allclose(rho.density_eigenvalues, expected, rtol=1e-12)
        assert rho.partition_function == pytest.approx(z, rel=1e-12)
        assert z == pytest.approx(math.exp(-2.0) + 2.0)

    @pytest.mark.parametrize("scale", [0.5, 3.0])
    @pytest.mark.parametrize("beta", [-2.0, 0.7, 5.0])
    def test_scaled_identity_is_uniform(self, scale, beta):
        rho = density_operator(scale * np.eye(4), beta)
        np.testing.assert_allclose(rho.density_eigenvalues, 0.25, atol=1e-14)

    def test_unit_trace_and_positivity(self, rng):
        betas = [-5.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0, 15.0]
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            c = random_psd(rng, dim) if rng.random() < 0.7 else random_low_rank(rng, dim, 1)
            for beta in betas:
                rho = density_operator(c, beta)
                assert abs(float(np.sum(rho.density_eigenvalues)) - 1.0) <= 1e-12
                assert np.all(rho.density_eigenvalues > 0)

    def test_singular_input_has_positive_determinant(self, rng):
        c = random_low_rank(rng, 6, 2)
        rho = density_operator(c, 2.0)
        log_det = float(np.sum(np.log(rho.density_eigenvalues)))
        assert math.isfinite(log_det)

    def test_monotone_role_of_beta_sign(self, rng):
        c = random_psd(rng, 6)
        lam = np.linalg.eigvalsh(c.matrix)
        assert np.all(np.diff(lam) > 0)
        pos = density_operator(c, 1.5).density_eigenvalues
        neg = density_operator(c, -1.5).density_eigenvalues
        assert np.all(np.diff(pos) < 0)
        assert np.all(np.diff(neg) > 0)

    def test_shift_regularized_partition_at_least_one(self, rng):
        for _ in range(20):
            c = shift_regularize(random_psd(rng, 5))
            for beta in (0.1, 1.0, 7.0):
                assert partition_function(c, beta) >= 1.0

    def test_overflow_guard(self):
        with pytest.raises(BetaRangeError, match="guard"):
            density_operator(np.diag([100.0, 0.0]), 8.0)


class TestPartitionFunction:
    def test_beta_zero_counts_dimension(self, rng):
        c = random_psd(rng, 7)
        assert partition_function(c, 0.0) == pytest.approx(7.0)

    def test_consistent_with_operator(self, rng):
        for _ in range(20):
            c = random_psd(rng, 4)
            beta = float(rng.uniform(-3, 3))
            rho = density_operator(c, beta)
            z = partition_function(c, beta)
            assert abs(z - rho.partition_function) <= 1e-12 * abs(z)


class TestFFactor:
    def test_one_for_nonnegative_beta(self):
        assert f_factor(2.0, 5.0, 17.0) == 1.0
        assert f_factor(0.0, 1.0, 2.0) == 1.0

    def test_limit_to_one_near_zero(self):
        assert abs(f_factor(-1e-9, 1.0, 1.5) - 1.0) <= 1e-6

    def test_negative_beta_formula(self):
        expected = math.exp(1.0) * (math.exp(0.5) - 1.0) / 0.5
        assert f_factor(-1.0, 1.0, 1.5) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.5268144837580403, rel=1e-10)

    def test_series_limit_when_norms_match(self):
        assert f_factor(-2.0, 3.0, 3.0) == pytest.approx(math.exp(6.0), rel=1e-12)

    def test_rejects_negative_norms(self):
        with pytest.raises(ValueError):
            f_factor(1.0, -1.0, 0.0)


class TestErrorBound:
    def test_zero_perturbation(self, rng):
        c = random_psd(rng, 4)
        assert density_error_bound(c, np.zeros((4, 4)), 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_beta_zero_bound_and_error_vanish(self, rng):
        c = random_psd(rng, 4)
        dc = 0.1 * np.eye(4)
        assert density_error_bound(c, dc, 0.0) == 0.0
        delta = density_operator(c.matrix + dc, 0.0).matrix() - density_operator(c, 0.0).matrix()
        assert operator_norm(delta) <= 1e-14

    def test_dominates_measured_error_for_positive_beta(self, rng):
        checked = 0
        for _ in range(200):
            c = shift_regularize(random_psd(rng, 8))
            e = rng.standard_normal((8, 8))
            e = (e + e.T) / 2.0
            dc = 0.1 * e / operator_norm(e)
            beta = float(rng.uniform(0.05, 3.0))
            if partition_ratio(c, dc, beta) < 1.0:
                continue
            checked += 1
            bound = density_error_bound(c, dc, beta)
            actual = operator_norm(
                density_operator(c.matrix + dc, beta).matrix() - density_operator(c, beta).matrix()
            )
            assert bound >= actual
        assert checked > 50

    def test_shape_mismatch(self, rng):
        c = random_psd(rng, 3)
        with pytest.raises(ShapeError):
            density_error_bound(c, np.zeros((2, 2)), 1.0)

    @pytest.mark.parametrize("beta", [1.0, -1.0])
    def test_hand_solved_diagonal_case(self, beta):
        # ||C|| = 2, ||C + dC|| = 2.5, ||dC|| = 0.5, m = 2.
        c, dc = np.diag([2.0, 0.0]), np.diag([0.5, 0.0])
        ratio = (math.exp(-2.5 * beta) + 1.0) / (math.exp(-2.0 * beta) + 1.0)
        if beta > 0:
            factor, tail = 1.0, 3.0
        else:
            factor, tail = math.exp(2.0) * math.expm1(0.5) / 0.5, 1.0 + 2.0 * math.exp(2.0)
        assert partition_ratio(c, dc, beta) == pytest.approx(ratio, rel=1e-14)
        assert density_error_bound(c, dc, beta) == pytest.approx(0.5 * factor / ratio * tail, rel=1e-14)


def test_accepts_covariance_matrix_and_ndarray(rng):
    c = random_psd(rng, 4)
    a = density_operator(c, 0.8).density_eigenvalues
    b = density_operator(c.matrix, 0.8).density_eigenvalues
    np.testing.assert_array_equal(a, b)


def per_beta_density(eigenvalues, beta):
    """The per-beta stabilized softmax the density map used before it was vectorized: (rho, Z)."""
    exponents = -beta * eigenvalues
    shift = float(np.max(exponents))
    weights = np.exp(exponents - shift)
    total = float(np.sum(weights))
    return weights / total, math.exp(shift) * total


# Spectra in [-50, 50] and betas in [-5, 5] keep every |beta * lambda| <= 250,
# so the old formula's Z = e^shift * total stays in double range, and every
# weight stays far above underflow.
spectra = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12).map(np.array)
beta_lists = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-5.0, 5.0)), min_size=1, max_size=8
)


class TestDensityValues:
    @settings(max_examples=200, deadline=None)
    @given(spectra, beta_lists)
    def test_matches_per_beta_formula(self, lam, betas):
        rho, log_z = density_values(lam, betas)
        assert rho.shape == (len(betas), lam.size) and log_z.shape == (len(betas),)
        for i, beta in enumerate(betas):
            expected_rho, expected_z = per_beta_density(lam, beta)
            np.testing.assert_allclose(rho[i], expected_rho, rtol=1e-12)
            assert math.exp(log_z[i]) == pytest.approx(expected_z, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(spectra, beta_lists)
    def test_rows_are_strictly_positive_distributions(self, lam, betas):
        rho, _ = density_values(lam, betas)
        assert np.all(rho > 0)
        np.testing.assert_allclose(rho.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(spectra, beta_lists, st.floats(-50.0, 50.0))
    def test_shift_invariance(self, lam, betas, s):
        rho, log_z = density_values(lam, betas)
        rho_shifted, log_z_shifted = density_values(lam + s, betas)
        np.testing.assert_allclose(rho_shifted, rho, rtol=1e-12)
        # ln Z can cancel to zero, so its error is bounded in absolute terms by
        # roundoff in the exponents beta * (lambda + s).
        b = np.asarray(betas)
        scale = 1.0 + np.abs(b) * (np.max(np.abs(lam)) + abs(s))
        assert np.all(np.abs(log_z_shifted - (log_z - b * s)) <= 1e-12 * scale)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 12)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.floats(-50.0, 50.0))
        ),
        beta_lists,
    )
    def test_stacked_spectra_equal_row_by_row_calls(self, stack, betas):
        rho, log_z = density_values(stack, betas)
        assert rho.shape == stack.shape[:-1] + (len(betas), stack.shape[-1])
        assert log_z.shape == stack.shape[:-1] + (len(betas),)
        for index in np.ndindex(stack.shape[:-1]):
            row_rho, row_log_z = density_values(stack[index], betas)
            np.testing.assert_array_equal(rho[index], row_rho)
            np.testing.assert_array_equal(log_z[index], row_log_z)

    def test_log_partition_beyond_double_range(self):
        # Z = e^800 overflows a double; ln Z does not.
        _, log_z = density_values(np.array([-800.0, -799.0]), [1.0])
        assert log_z[0] == pytest.approx(800.0 + math.log1p(math.exp(-1.0)), rel=1e-15)


class TestDecomposeOnce:
    def test_operator_from_decomposition_matches_matrix(self, rng):
        c = random_psd(rng, 5)
        decomp = eigh(c.matrix)
        for beta in (-2.0, 0.0, 0.7):
            from_decomp = density_operator(decomp, beta)
            from_matrix = density_operator(c, beta)
            assert from_decomp.basis is decomp
            np.testing.assert_array_equal(from_decomp.density_eigenvalues, from_matrix.density_eigenvalues)
            assert from_decomp.log_partition == from_matrix.log_partition

    def test_guard_applies_to_decomposition_input(self):
        with pytest.raises(BetaRangeError, match="guard"):
            density_operator(eigh(np.diag([100.0, 0.0])), 8.0)
