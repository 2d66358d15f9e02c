import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import moment_derivatives, random_psd
from covdensity import betafit
from covdensity.betafit import fit_beta, kl_to_density, moment_objective
from covdensity.density import density_operator, density_values
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_target(self, bad):
        with pytest.raises(ValueError) as got:
            fit_beta([0.0, 1.0, 2.0], [bad, 0.5, 0.5])
        assert type(got.value) is ValueError
        assert str(got.value) == f"target probabilities must be finite, got {bad!r}"


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

    def test_empty_initial_bracket_is_rejected(self):
        with pytest.raises(ValueError, match=r"^invalid initial bracket \(1\.0, 1\.0\)$"):
            fit_beta([1.0, 2.0], [1 / 3, 2 / 3], initial_bracket=(1.0, 1.0))

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

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite_tol(self, tol):
        with pytest.raises(ValueError) as got:
            fit_beta([1.0, 2.0, 3.0], [0.2, 0.3, 0.5], tol=tol)
        assert str(got.value) == f"tol must be finite and >= 0, got {tol!r}"

    def test_zero_tol_is_accepted(self):
        result = fit_beta([1.0, 2.0, 3.0], [0.2, 0.3, 0.5], tol=0.0)
        assert abs(result.gradient_at_solution) <= 1e-12

    def test_one_softmax_per_visited_beta(self, monkeypatch, rng):
        calls = []

        def counting(lam, betas):
            calls.append(betas)
            return density_values(lam, betas)

        monkeypatch.setattr(betafit, "density_values", counting)
        for _ in range(50):
            spectrum, target = random_instance(rng)
            lo = float(rng.uniform(-30.0, 30.0))
            calls.clear()
            result = fit_beta(spectrum, target, initial_bracket=(lo, lo + float(rng.uniform(0.01, 20.0))))
            assert abs(result.gradient_at_solution) <= 1e-10
            # each bracket end checked, the midpoint and each Newton or bisection step
            assert len(calls) == result.iterations + 2
        calls.clear()
        assert fit_beta([2.0, 2.0, 2.0], [0.2, 0.3, 0.5]).degenerate
        assert len(calls) == 1

    def test_asymmetric_brackets_far_from_root(self, rng):
        spectrum, target = random_instance(rng, 4)
        reference = fit_beta(spectrum, target).beta_star
        for bracket in ((50.0, 60.0), (-60.0, -50.0)):
            got = fit_beta(spectrum, target, initial_bracket=bracket).beta_star
            assert abs(got - reference) <= 1e-8


@st.composite
def feasible_fits(draw):
    """A spectrum of 2-12 eigenvalues at scale 1e-3..1e3, a Dirichlet target inside its hull, and two brackets."""
    dim = draw(st.integers(2, 12))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    unit = draw(st.lists(st.floats(0.0, 1.0), min_size=dim - 2, max_size=dim - 2))
    spectrum = scale * (draw(st.floats(-2.0, 2.0)) + np.array([0.0, 1.0, *unit]))
    target = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(dim))
    assume(spectrum.min() < float(np.dot(target, spectrum)) < spectrum.max())
    # Each bracket lies anywhere in [-50, 80] or is placed around the root: straddling it, on either side, or far off.
    brackets = st.tuples(st.booleans(), st.floats(-50.0, 50.0), st.floats(1e-3, 30.0))
    return spectrum, target, draw(st.lists(brackets, min_size=2, max_size=2))


def agreement_bound(result, spectrum, tol):
    """How far ``result.beta_star`` can lie from the exact root of f'.

    The solver stops where the computed gradient satisfies |g~| <= tol.  The exact
    gradient there is at most tol + r, where r bounds the gradient's roundoff:
    the exponent -beta lambda_i carries |beta| max|lambda| eps of error into each
    q_i, the softmax a few eps more, and each of the two dot products at most
    m eps max|lambda|, so r = (|beta| max|lambda| + 4 m + 8) eps max|lambda|.
    f' is increasing with slope f'' = Var_q[lambda], and
    |d ln f''/d beta| = |E_q[(lambda - mu)^3]| / Var_q[lambda] <= s, the spread of
    the spectrum.  So at a distance d from the root,
    |f'| >= c (1 - exp(-s d)) / s with c = f''(beta~), which gives
    d <= -log1p(-x) / s with x = s (tol + r) / c, whenever x < 1.  The computed
    curvature carries a relative roundoff of the same order as q's, far below the
    1e-9 it is lowered by.
    """
    lam_max = float(np.max(np.abs(spectrum)))
    m, s = spectrum.size, float(np.ptp(spectrum))
    r = (abs(result.beta_star) * lam_max + 4 * m + 8) * np.finfo(float).eps * lam_max
    x = s * (tol + r) / (result.curvature_at_solution * (1.0 - 1e-9))
    assert x < 1.0
    return -math.log1p(-x) / s


@settings(max_examples=150, deadline=None)
@given(feasible_fits())
def test_every_bracket_finds_the_same_root(instance):
    spectrum, target, brackets = instance
    tol = 1e-10
    reference = fit_beta(spectrum, target, tol=tol)
    assert abs(reference.gradient_at_solution) <= tol
    for near_root, lo, width in brackets:
        lo += reference.beta_star if near_root else 0.0
        got = fit_beta(spectrum, target, tol=tol, initial_bracket=(lo, lo + width))
        assert abs(got.gradient_at_solution) <= tol
        # the reported derivatives are those at the reported beta
        assert moment_derivatives(spectrum, target, got.beta_star) == (got.gradient_at_solution, got.curvature_at_solution)
        bound = agreement_bound(reference, spectrum, tol) + agreement_bound(got, spectrum, tol)
        assert abs(got.beta_star - reference.beta_star) <= bound


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
