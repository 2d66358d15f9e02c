import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import bound_and_ratio, dense_rho, min_shifted, random_low_rank, random_psd
from covdensity.covariance import CovarianceMatrix
from covdensity.density import density_operator, density_values, f_factor
from covdensity.entropy import cvne
from covdensity.errors import BetaRangeError
from covdensity.spectral import SpectralDecomposition, eigh


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
        assert math.exp(rho.log_partition) == pytest.approx(5.0)

    def test_rank_one_anchor(self):
        rho = density_operator(np.diag([2.0, 0.0, 0.0]), 1.0)
        expected, z = scalar_density([0.0, 0.0, 2.0], 1.0)
        np.testing.assert_allclose(rho.density_eigenvalues, expected, rtol=1e-12)
        assert math.exp(rho.log_partition) == pytest.approx(z, rel=1e-12)
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
            c = min_shifted(random_psd(rng, 5))
            for beta in (0.1, 1.0, 7.0):
                assert math.exp(density_operator(c, beta).log_partition) >= 1.0

    def test_defined_past_the_old_cap(self):
        # |beta| * ||C|| used to be capped at 700, which broke shift invariance.
        np.testing.assert_array_equal(
            density_operator(np.diag([0.0, 800.0]), 1.5).density_eigenvalues,
            density_operator(np.diag([-400.0, 400.0]), 1.5).density_eigenvalues,
        )
        np.testing.assert_array_equal(
            density_operator(np.diag([1000.0, 999.0]), 1.0).density_eigenvalues,
            density_operator(np.diag([1.0, 0.0]), 1.0).density_eigenvalues,
        )

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        c = np.diag([2.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="beta must be finite"):
            density_operator(c, beta)
        with pytest.raises(ValueError, match="beta must be finite"):
            cvne(c, beta)
        with pytest.raises(ValueError, match="beta must be finite"):
            density_values([0.0, 0.0, 2.0], [1.0, beta])

    @pytest.mark.parametrize(
        "lam, beta, got",
        [([np.nan, 1.0], 1.0, "nan"), ([1.0, np.inf], 0.0, "inf"), ([[1.0, 2.0], [-np.inf, np.nan]], -1.0, "-inf")],
    )
    def test_non_finite_eigenvalue_is_named(self, lam, beta, got):
        # Where a non-finite eigenvalue breaks the map, the first one is named, not an overflow.
        with pytest.raises(ValueError, match=f"^eigenvalues must be finite, got {got}$"):
            density_values(np.array(lam), [beta])

    @pytest.mark.parametrize(
        "lam, beta, got",
        [([np.inf, 1.0], 1.0, "inf"), ([-np.inf, 1.0], -1.0, "-inf"), ([1.0, np.nan], 1.0, "nan")],
    )
    def test_non_finite_eigenvalue_of_a_decomposition_is_named(self, lam, beta, got):
        # +inf at beta > 0 (-inf at beta < 0) only underflows its weight to 0.0, so the map alone does not fail there.
        decomp = SpectralDecomposition(np.array(lam), np.eye(2))
        with pytest.raises(ValueError, match=f"^eigenvalues must be finite, got {got}$"):
            density_operator(decomp, beta)

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, st.integers(2, 6), elements=st.floats(0.0, 10.0)),
        st.one_of(st.floats(-5.0, -0.05), st.floats(0.05, 5.0)),
        st.floats(760.0, 1e5),
        st.sampled_from([-1.0, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_shift_invariance_past_the_old_cap(self, spectrum, beta, reach, sign, seed):
        dim = spectrum.size
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
        c = (q * spectrum) @ q.T
        shifted = c + sign * reach / abs(beta) * np.eye(dim)
        norm = np.linalg.norm(shifted, 2)
        assert abs(beta) * norm > 700.0
        # Rounding C + sI, its eigenvalues and each beta * lambda moves an exponent
        # by a small multiple of eps |beta| ||C + sI||; each rho_i and Z carry that
        # as a relative error.
        rtol = 8 * dim * np.finfo(float).eps * abs(beta) * norm
        rho = density_operator(c, beta).density_eigenvalues
        np.testing.assert_allclose(density_operator(shifted, beta).density_eigenvalues, rho, rtol=rtol, atol=0)
        # -sum rho_i ln rho_i then moves by at most rtol * (1 + max |ln rho_i|).
        atol = rtol * (1.0 + float(np.max(-np.log(rho))))
        assert abs(cvne(shifted, beta).entropy_nats - cvne(c, beta).entropy_nats) <= atol


class TestPartitionFunction:
    def test_beta_zero_counts_dimension(self, rng):
        c = random_psd(rng, 7)
        assert math.exp(density_operator(c, 0.0).log_partition) == pytest.approx(7.0)

    def test_consistent_with_operator(self, rng):
        # The operator's ln Z against the stacked ln Z the stability runner's density_values
        # gives for the same spectrum, both exponentiated.
        for _ in range(20):
            c = random_psd(rng, 4)
            beta = float(rng.uniform(-3, 3))
            rho = density_operator(c, beta)
            z = math.exp(density_values(np.linalg.eigvalsh(c.matrix), (beta,))[1][0])
            assert abs(z - math.exp(rho.log_partition)) <= 1e-12 * abs(z)


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-4.0, -1e-3),
        st.floats(0.0, 4.0),
        st.floats(1e-14, 1e-8, exclude_max=True),
        st.sampled_from([-1.0, 1.0]),
    )
    @example(-1.0, 1.0, 1e-9, 1.0)
    def test_small_arguments_against_a_40_digit_reference(self, beta, norm_c, x, sign):
        """f_factor for 1e-14 <= |beta a| < 1e-8 lies within |beta| ||C|| + 7 ulps of
        exp(|beta| ||C||) expm1(|beta| a) / (|beta| a), evaluated to 40 digits at the same float inputs.

        With u = 2**-53 and exp and expm1 within 1 ulp (2u relative): |beta| ||C|| rounds by u, which moves its
        exp by |beta| ||C|| u, and exp adds 2u; a = ||C + dC|| - ||C|| and |beta| a round by u each, which moves
        phi(x) = expm1(x) / x by x u (d ln phi / d ln x ~ x / 2); expm1 adds 2u, and the product and quotient u
        each.  The relative error is below (|beta| ||C|| + 6 + x) u, and an ulp of the result exceeds u times it,
        so the error is below |beta| ||C|| + 6 + x ulps; x < 1e-8 and second-order terms fit in the last ulp.
        """
        norm_perturbed = norm_c + sign * x / abs(beta)
        arg = abs(beta) * (norm_perturbed - norm_c)
        assume(norm_perturbed >= 0.0 and 1e-14 <= abs(arg) < 1e-8)
        with decimal.localcontext(decimal.Context(prec=40)):
            b, a = decimal.Decimal(abs(beta)), decimal.Decimal(norm_perturbed) - decimal.Decimal(norm_c)
            want = (b * decimal.Decimal(norm_c)).exp() * ((b * a).exp() - 1) / (b * a)
            ulps = abs(decimal.Decimal(f_factor(beta, norm_c, norm_perturbed)) - want) / decimal.Decimal(
                math.ulp(float(want)))
        assert ulps <= abs(beta) * norm_c + 7

    def test_rejects_negative_norms(self):
        with pytest.raises(ValueError):
            f_factor(1.0, -1.0, 0.0)


class TestErrorBound:
    def test_zero_perturbation(self, rng):
        c = random_psd(rng, 4)
        assert bound_and_ratio(c, np.zeros((4, 4)), 1.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_beta_zero_bound_and_error_vanish(self, rng):
        c = random_psd(rng, 4)
        dc = 0.1 * np.eye(4)
        assert bound_and_ratio(c, dc, 0.0)[0] == 0.0
        delta = dense_rho(density_operator(c.matrix + dc, 0.0)) - dense_rho(density_operator(c, 0.0))
        assert np.linalg.norm(delta, 2) <= 1e-14

    def test_dominates_measured_error_for_positive_beta(self, rng):
        checked = 0
        for _ in range(200):
            c = min_shifted(random_psd(rng, 8))
            e = rng.standard_normal((8, 8))
            e = (e + e.T) / 2.0
            dc = 0.1 * e / np.linalg.norm(e, 2)
            beta = float(rng.uniform(0.05, 3.0))
            bound, ratio = bound_and_ratio(c, dc, beta)
            if ratio < 1.0:
                continue
            checked += 1
            actual = np.linalg.norm(
                dense_rho(density_operator(c.matrix + dc, beta)) - dense_rho(density_operator(c, beta)), 2
            )
            assert bound >= actual
        assert checked > 50

    @pytest.mark.parametrize("beta", [1.0, -1.0])
    def test_hand_solved_diagonal_case(self, beta):
        # ||C|| = 2, ||C + dC|| = 2.5, ||dC|| = 0.5, m = 2.
        c, dc = CovarianceMatrix(matrix=np.diag([2.0, 0.0])), np.diag([0.5, 0.0])
        ratio = (math.exp(-2.5 * beta) + 1.0) / (math.exp(-2.0 * beta) + 1.0)
        if beta > 0:
            factor, tail = 1.0, 3.0
        else:
            factor, tail = math.exp(2.0) * math.expm1(0.5) / 0.5, 1.0 + 2.0 * math.exp(2.0)
        bound, r = bound_and_ratio(c, dc, beta)
        assert r == pytest.approx(ratio, rel=1e-14)
        assert bound == pytest.approx(0.5 * factor / ratio * tail, rel=1e-14)


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

    def test_exponents_straddling_the_double_range_map_without_warning(self):
        # The exponents -1e308 and 1e308 differ by more than the largest double: the shifted smallest is -inf,
        # whose weight is exactly 0.0.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rho, log_z = density_values([1.0, -1.0], [1e308])
        assert [str(w.message) for w in caught] == []
        assert rho.tolist() == [[0.0, 1.0]] and log_z.tolist() == [1e308]


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

    def test_decomposition_input_past_the_old_cap(self):
        c = np.diag([1000.0, 999.0])
        from_decomp = density_operator(eigh(c), 1.0)
        from_matrix = density_operator(c, 1.0)
        np.testing.assert_array_equal(from_decomp.density_eigenvalues, from_matrix.density_eigenvalues)
        assert from_decomp.log_partition == from_matrix.log_partition


class TestRangeErrors:
    """BetaRangeError only where a double really overflows, with no RuntimeWarning first."""

    def test_overflowing_exponent(self):
        with pytest.raises(BetaRangeError, match="overflows a double"):
            density_values([0.0, 10.0], [-1e308])

    def test_first_failing_spectrum_and_beta_are_named(self):
        stack = np.array([[0.0, 1.0], [0.0, 3.0], [0.0, 5.0]])
        with pytest.raises(BetaRangeError, match=r"beta = -1e\+308, \|\|C\|\| = 3$"):
            density_values(stack, [1.0, -1e308])

    def test_f_factor_overflow(self):
        with pytest.raises(BetaRangeError, match=r"exp\(\|beta\| \|\|C\|\|\)"):
            f_factor(-1.0, 800.0, 800.0)
        with pytest.raises(BetaRangeError, match=r"exp\(\|beta\| a\)"):
            f_factor(-1.0, 0.0, 800.0)

    def test_f_factor_numpy_scalars_raise_without_warning(self):
        # The suite turns warnings into errors, so a scalar-multiply overflow warning would surface instead.
        with pytest.raises(BetaRangeError, match=r"exp\(\|beta\| \|\|C\|\|\)"):
            f_factor(-1e308, np.float64(10.0), np.float64(10.0))
        assert f_factor(np.float64(-0.5), np.float64(2.0), np.float64(2.5)) == f_factor(-0.5, 2.0, 2.5)

    def test_partition_ratio_overflow(self):
        # ln Z' - ln Z is about 800 at beta = -1.  (A nonzero trace keeps the trace-normalized row defined.)
        c, dc = CovarianceMatrix(matrix=np.diag([1.0, 0.0])), np.diag([800.0, 0.0])
        with pytest.raises(BetaRangeError, match="Z'/Z"):
            bound_and_ratio(c, dc, -1.0)
