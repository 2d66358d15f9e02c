import math

import numpy as np
import pytest

from conftest import random_psd
from covdensity.betafit import (
    fit_beta,
    kl_to_density,
    moment_derivatives,
    moment_objective,
)
from covdensity.density import density_operator
from covdensity.errors import InfeasibleTargetError


def softmax(values):
    w = np.exp(values - np.max(values))
    return w / w.sum()


def random_instance(rng, dim=None):
    dim = dim or int(rng.integers(2, 10))
    spectrum = np.sort(rng.uniform(0.0, 5.0, dim))
    spectrum[-1] += 0.1  # keep the spectrum non-constant
    target = rng.dirichlet(np.ones(dim))
    return spectrum, target


class TestMomentObjective:
    def test_beta_zero_is_log_dim(self, rng):
        spectrum, target = random_instance(rng, 6)
        assert moment_objective(spectrum, target, 0.0) == pytest.approx(math.log(6), rel=1e-12)

    def test_constant_spectrum_is_flat(self):
        spectrum = np.full(4, 2.5)
        target = np.full(4, 0.25)
        for beta in (-3.0, 0.0, 1.7, 12.0):
            assert moment_objective(spectrum, target, beta) == pytest.approx(math.log(4), rel=1e-12)

    def test_hand_computed_value(self):
        got = moment_objective([1.0, 2.0], [1 / 3, 2 / 3], 1.0)
        want = 5.0 / 3.0 + math.log(math.exp(-1.0) + math.exp(-2.0))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.9800, abs=2e-4)

    def test_rejects_bad_probability_vector(self):
        with pytest.raises(ValueError):
            moment_objective([1.0, 2.0], [0.7, 0.7], 1.0)
        with pytest.raises(ValueError):
            moment_objective([1.0, 2.0], [-0.1, 1.1], 1.0)
        with pytest.raises(ValueError):
            moment_objective([1.0, 2.0], [1.0], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_spectrum(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_beta([bad, 1.0, 2.0], [0.2, 0.3, 0.5])


class TestMomentDerivatives:
    def test_gradient_zero_when_target_is_density(self, rng):
        spectrum = np.sort(rng.uniform(0.0, 4.0, 5))
        beta = 0.8
        target = softmax(-beta * spectrum)
        grad, curv = moment_derivatives(spectrum, target, beta)
        assert abs(grad) <= 1e-12
        assert curv > 0.0

    def test_constant_spectrum(self):
        grad, curv = moment_derivatives(np.full(3, 1.0), np.full(3, 1 / 3), 2.0)
        assert grad == pytest.approx(0.0, abs=1e-15)
        assert curv == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self, rng):
        h = 1e-6
        for _ in range(100):
            spectrum, target = random_instance(rng)
            beta = float(rng.uniform(-3, 3))
            grad, _ = moment_derivatives(spectrum, target, beta)
            fd = (
                moment_objective(spectrum, target, beta + h)
                - moment_objective(spectrum, target, beta - h)
            ) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_curvature_matches_finite_differences(self, rng):
        h = 1e-5
        for _ in range(50):
            spectrum, target = random_instance(rng)
            beta = float(rng.uniform(-2, 2))
            _, curv = moment_derivatives(spectrum, target, beta)
            g_plus, _ = moment_derivatives(spectrum, target, beta + h)
            g_minus, _ = moment_derivatives(spectrum, target, beta - h)
            assert curv == pytest.approx((g_plus - g_minus) / (2 * h), rel=1e-5, abs=1e-7)

    def test_convexity_everywhere(self, rng):
        for _ in range(1000):
            spectrum, target = random_instance(rng)
            beta = float(rng.uniform(-4, 4))
            _, curv = moment_derivatives(spectrum, target, beta)
            assert curv >= -1e-12
            assert curv > 1e-12 * float(np.var(spectrum))


class TestFitBeta:
    def test_closed_form_case(self):
        result = fit_beta([1.0, 2.0], [1 / 3, 2 / 3])
        assert result.beta_star == pytest.approx(-math.log(2.0), abs=1e-8)
        assert abs(result.gradient_at_solution) <= 1e-8
        assert result.curvature_at_solution > 0
        assert not result.degenerate

    def test_uniform_target_gives_zero(self, rng):
        spectrum = np.sort(rng.uniform(0.0, 3.0, 6))
        spectrum[-1] += 0.5
        result = fit_beta(spectrum, np.full(6, 1 / 6))
        assert result.beta_star == pytest.approx(0.0, abs=1e-10)

    def test_one_hot_on_extreme_is_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            fit_beta([1.0, 2.0, 3.0], [0.0, 0.0, 1.0])
        with pytest.raises(InfeasibleTargetError):
            fit_beta([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])

    def test_degenerate_spectrum_flag(self):
        result = fit_beta([2.0, 2.0, 2.0], [0.2, 0.3, 0.5])
        assert result.degenerate
        assert result.beta_star == 0.0

    def test_optimality_on_random_instances(self, rng):
        for _ in range(100):
            spectrum, target = random_instance(rng)
            result = fit_beta(spectrum, target)
            mean_target = float(np.dot(target, spectrum))
            q = softmax(-result.beta_star * np.asarray(spectrum))
            assert abs(mean_target - float(np.dot(q, spectrum))) <= 1e-8
            assert result.curvature_at_solution > 0

    def test_multi_start_agreement(self, rng):
        spectrum, target = random_instance(rng, 7)
        reference = fit_beta(spectrum, target).beta_star
        for _ in range(10):
            lo = float(rng.uniform(-20.0, -0.01))
            hi = float(rng.uniform(0.01, 20.0))
            got = fit_beta(spectrum, target, initial_bracket=(lo, hi)).beta_star
            assert abs(got - reference) <= 1e-8

    def test_asymmetric_brackets_far_from_root(self, rng):
        spectrum, target = random_instance(rng, 4)
        reference = fit_beta(spectrum, target).beta_star
        for bracket in ((50.0, 60.0), (-60.0, -50.0)):
            got = fit_beta(spectrum, target, initial_bracket=bracket).beta_star
            assert abs(got - reference) <= 1e-8


class TestReconstructDensity:
    def test_degenerate_spectrum_gives_uniform(self):
        result = fit_beta([2.0] * 4, [0.25] * 4)
        rho = density_operator(2.0 * np.eye(4), result.beta_star)
        np.testing.assert_allclose(rho.density_eigenvalues, 0.25, atol=1e-14)

    def test_closed_form_match(self):
        assert fit_beta([1.0, 2.0], [1 / 3, 2 / 3]).beta_star == pytest.approx(-math.log(2.0), abs=1e-9)
        rho = density_operator(np.diag([1.0, 2.0]), -math.log(2.0))
        np.testing.assert_allclose(rho.density_eigenvalues, [1 / 3, 2 / 3], rtol=1e-12)

    def test_fitted_beta_minimizes_kl_on_grid(self, rng):
        for _ in range(10):
            c = random_psd(rng, 6)
            lam_true = np.linalg.eigvalsh(c.matrix)
            target = np.clip(lam_true, 0, None)
            target = target / target.sum()
            noisy = lam_true + rng.normal(0.0, 0.05, 6)
            result = fit_beta(noisy, target)
            kl_star = kl_to_density(noisy, target, result.beta_star)
            for beta in rng.uniform(result.beta_star - 4, result.beta_star + 4, 50):
                assert kl_star <= kl_to_density(noisy, target, float(beta)) + 1e-12


def test_kl_scores_an_array_of_betas_like_scalars(rng):
    lam = np.sort(rng.uniform(0.0, 4.0, 7))
    target = rng.dirichlet(np.ones(7))
    betas = rng.uniform(-6.0, 6.0, 50)
    vectorized = kl_to_density(lam, target, betas)
    assert vectorized.shape == (50,)
    np.testing.assert_array_equal(vectorized, [kl_to_density(lam, target, float(b)) for b in betas])
    assert isinstance(moment_objective(lam, target, 0.5), float)
