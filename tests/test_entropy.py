import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    count_linalg_calls,
    discrimination_scores,
    min_shifted,
    random_low_rank,
    random_psd,
    subadditivity,
    table_rows,
    window_by_window,
)
from covdensity.covariance import CovarianceMatrix
from covdensity.entropy import _clipped_distribution, _window_entropies, cvne, naive_entropy, threshold_auc
from covdensity.errors import BetaRangeError, ConfigError, DegenerateCovarianceError
from covdensity.spectral import SpectralDecomposition


def scalar_entropy_nats(eigenvalues, beta):
    """Independent oracle: softmax entropy by direct scalar evaluation."""
    weights = [math.exp(-beta * lam) for lam in eigenvalues]
    z = sum(weights)
    return -sum((w / z) * math.log(w / z) for w in weights)


class TestCvne:
    def test_rank_one_anchor_bits(self):
        report = cvne(np.diag([2.0, 0.0, 0.0]), 1.0)
        assert abs(report.entropy_bits - 1.28) <= 0.005
        assert report.source_rank_estimate == 1
        assert report.source_dim == 3

    def test_rank_two_anchor_bits(self):
        report = cvne(np.diag([1.0, 1.0, 0.0]), 1.0)
        assert abs(report.entropy_bits - 1.41) <= 0.005
        assert report.source_rank_estimate == 2

    def test_scaled_identity_is_maximal(self):
        for c, beta in ((0.5, 3.0), (4.0, -1.0)):
            report = cvne(c * np.eye(6), beta)
            assert report.entropy_nats == pytest.approx(math.log(6), rel=1e-12)

    def test_matches_scalar_oracle(self, rng):
        for _ in range(30):
            c = random_psd(rng, 5)
            beta = float(rng.uniform(-2, 4))
            lam = np.linalg.eigvalsh(c.matrix)
            want = scalar_entropy_nats(lam, beta)
            assert cvne(c, beta).entropy_nats == pytest.approx(want, rel=1e-9)

    def test_report_unit_consistency(self, rng):
        for _ in range(20):
            c = random_psd(rng, 4)
            report = cvne(c, float(rng.uniform(-1, 3)))
            assert abs(report.entropy_bits - report.entropy_nats / math.log(2)) <= 1e-12
            assert abs(report.entropy_nats - report.gibbs_form_nats) <= 1e-9
            assert -1e-12 <= report.entropy_nats <= math.log(4) + 1e-10

    def test_zero_matrix_is_maximal_with_rank_zero(self):
        report = cvne(np.zeros((5, 5)), 3.0)
        assert report.entropy_nats == pytest.approx(math.log(5), rel=1e-12)
        assert report.source_rank_estimate == 0

    def test_finite_for_rank_one_large_dim(self, rng):
        c = random_low_rank(rng, 64, 1)
        report = cvne(c, 1.0)
        assert math.isfinite(report.entropy_nats)
        assert report.entropy_nats >= 0.0

    def test_scale_sensitivity(self, rng):
        c = random_psd(rng, 4)
        a = cvne(c, 2.0).entropy_nats
        b = cvne(CovarianceMatrix(matrix=2.0 * c.matrix), 2.0).entropy_nats
        assert abs(a - b) > 1e-6

    def test_nonincreasing_in_beta(self, rng):
        for _ in range(10):
            c = min_shifted(random_psd(rng, 5))
            grid = np.linspace(0.0, 15.0, 31)
            values = [cvne(c, b).entropy_nats for b in grid]
            assert all(values[i + 1] <= values[i] + 1e-9 for i in range(len(values) - 1))


class TestGibbsEntropy:
    def test_beta_zero(self, rng):
        c = random_psd(rng, 5)
        assert cvne(c, 0.0).gibbs_form_nats == pytest.approx(math.log(5), rel=1e-12)

    def test_anchor_value(self):
        got = cvne(np.diag([2.0, 0.0, 0.0]), 1.0).gibbs_form_nats
        z = 2.0 + math.exp(-2.0)
        want = 1.0 * (2.0 * math.exp(-2.0) / z) + math.log(z)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.8853815523455887, rel=1e-10)
        assert got / math.log(2) == pytest.approx(1.277, abs=5e-4)

    def test_nonnegative_for_shift_regularized(self, rng):
        for _ in range(20):
            c = min_shifted(random_psd(rng, 6))
            assert cvne(c, float(rng.uniform(0.1, 5.0))).gibbs_form_nats >= 0.0

    def test_agrees_with_cvne(self, rng):
        for _ in range(30):
            c = random_psd(rng, 6)
            beta = float(rng.uniform(-2, 6))
            report = cvne(c, beta)
            assert abs(report.gibbs_form_nats - report.entropy_nats) <= 1e-9


class TestNaiveEntropy:
    @pytest.mark.parametrize("scale", [1e-300, 1e-15, 1.0, 1e300, 1e308])
    def test_two_equal_modes(self, scale):
        # No absolute threshold: a tiny trace normalizes, and a trace past the largest double is formed after
        # dividing by the largest eigenvalue.
        assert naive_entropy(np.diag([scale, scale, 0.0])) == 1.0

    def test_point_mass(self):
        assert naive_entropy(np.diag([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1e-300, 0.1, 2.0, 100.0, 1e300])
    def test_scale_blindness(self, alpha, rng):
        c = random_psd(rng, 5)
        a = naive_entropy(c)
        b = naive_entropy(CovarianceMatrix(matrix=alpha * c.matrix))
        assert abs(a - b) <= 1e-12

    def test_zero_trace_rejected(self):
        with pytest.raises(DegenerateCovarianceError, match="^spectrum has no positive eigenvalue to normalize$"):
            naive_entropy(np.zeros((3, 3)))


class TestClippedDistribution:
    def test_each_spectrum_is_scaled_by_a_power_of_two_first(self):
        stack = np.array([[-1e-17, 1.0, 2.0, 4.0], [1e-300, 6e307, 7e307, 8e307], [0.0, 1e308, 1e308, 1.0]])
        p = _clipped_distribution(stack)
        weights = np.clip(stack[0], 0.0, None)
        assert p[0].tobytes() == (weights / weights.sum()).tobytes()
        scaled = stack[1] / 8e307
        assert p[1].tobytes() == (scaled / scaled.sum()).tobytes()
        np.testing.assert_array_equal(p[2], [0.0, 0.5, 0.5, 5e-309])

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(np.float64, st.integers(1, 8), elements=st.one_of(st.just(0.0), st.floats(-1e-12, 0.0),
                                                                 st.floats(2.0**-60, 1.0))),
        st.integers(-1000, 1000),
    )
    @example(np.array([0.3428080423874833, 0.13687617154257523, 0.1148748719756762, 0.8319432152802452,
                       0.9214800195499495, 0.6459721981904619, 0.7565469048855985]), 1023)
    def test_times_two_to_the_k_gives_the_same_bits(self, w, k):
        # Scaling by 2**k is exact wherever every nonzero entry stays a normal double, and the naive entropy is
        # blind to scale, so the distribution and its entropy keep every bit.
        scaled = np.ldexp(w, k)
        assume(np.any(w > 0.0))
        assume(all(np.all(np.isfinite(v) & ((v == 0.0) | (np.abs(v) >= np.finfo(float).tiny))) for v in (w, scaled)))
        assert _clipped_distribution(scaled).tobytes() == _clipped_distribution(w).tobytes()
        identity = np.eye(len(w))
        want = naive_entropy(SpectralDecomposition(w, identity))
        assert struct.pack("<d", naive_entropy(SpectralDecomposition(scaled, identity))) == struct.pack("<d", want)

    def test_a_non_finite_eigenvalue_is_named(self):
        decomposition = SpectralDecomposition(np.array([np.nan, 1.0]), np.eye(2))
        for call in (naive_entropy, lambda c: cvne(c, 1.0)):
            with pytest.raises(ValueError, match="^eigenvalues must be finite, got nan$"):
                call(decomposition)

    def test_a_non_finite_entry_gives_nan_for_the_caller_to_name(self):
        assert np.isnan(_clipped_distribution(np.array([np.inf, 1.0]))).any()
        assert np.isnan(_clipped_distribution(np.array([np.nan, np.nan]))).all()

    @pytest.mark.parametrize("spectra", [[[1.0, 2.0], [0.0, 0.0]], [-2.0, -1.0], [-0.0, -1e-300], []])
    def test_no_positive_entry_is_rejected(self, spectra):
        with pytest.raises(DegenerateCovarianceError, match="^spectrum has no positive eigenvalue to normalize$"):
            _clipped_distribution(np.array(spectra))


def masked_naive_bits(eigenvalues):
    """Reference: the 1-D trace-normalized entropy with zero weights masked out."""
    weights = np.clip(eigenvalues, 0.0, None)
    p = weights / float(np.sum(weights))
    nonzero = p > 0.0
    return float(-np.sum(p[nonzero] * np.log2(p[nonzero])))


# Ascending spectra with runs of exact zeros and roundoff-negative entries,
# which clip to zero weight, up to 24 wide so the summation's 8-way unrolling
# is exercised, stacked on up to two leading axes.
_spectrum_entries = st.one_of(st.sampled_from([0.0, -0.0, -1e-17, 1e-300]), st.floats(0.0, 10.0))
_spectrum_stacks = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 24)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_spectrum_entries).map(lambda a: np.sort(a, axis=-1))
)


def naive_bits_bound(n, bits):
    """How far two roundings of the same n-term naive entropy ``bits`` may lie apart.

    Per term, a log (within 1 ulp) and a product give p ln p or p log2 p to a relative 1.5 eps; the terms share one
    sign, so summing n of them adds (n - 1) eps / 2.  naive_entropy then divides by ln 2, a rounded constant, which adds
    eps.  So naive_entropy is within (n + 4) eps / 2 of the exact sum and the log2 oracle within (n + 2) eps / 2, and
    the two within (n + 3) eps |H|, to first order.  A subnormal term or quotient is rounded absolutely instead, by
    half a subnormal unit each, so n units bound those.
    """
    return (n + 3) * np.finfo(float).eps * abs(bits) + n * np.finfo(float).smallest_subnormal


class TestNaiveBitsOnStacks:
    @settings(max_examples=300, deadline=None)
    @given(_spectrum_stacks)
    def test_stacked_equals_the_one_matrix_call(self, stack):
        # discriminate's window-by-window oracle relies on this: the stacked naive entropy of each window is
        # naive_entropy of that window's CovarianceMatrix, bit for bit.  The windows are diagonal matrices as a
        # CovarianceMatrix holds them (its symmetrization rounds an odd subnormal entry), whose eigenvalues are
        # their diagonals, exactly.
        stack[..., -1] += 1.0  # every spectrum keeps a positive trace
        n = stack.shape[-1]
        covs = np.array([CovarianceMatrix(matrix=np.diag(row)).matrix for row in stack.reshape(-1, n)])
        bits, _ = _window_entropies(covs.reshape(*stack.shape, n), 1.0)
        assert bits.shape == stack.shape[:-1]
        for cov, got in zip(covs, bits.ravel()):
            one = naive_entropy(CovarianceMatrix(matrix=cov))
            assert got == one
            # The oracle sums log2 terms over the nonzero weights alone; naive_entropy sums ln terms over every
            # weight and divides by ln 2.  They agree to rounding, not bit for bit.
            assert abs(one - masked_naive_bits(np.diagonal(cov))) <= naive_bits_bound(n, one)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 24), st.integers(1, 24), st.integers(0, 2**32 - 1))
    def test_naive_entropy_of_rank_deficient_matrix(self, dim, rank, seed):
        cov = random_low_rank(np.random.default_rng(seed), dim, min(rank, dim))
        bits = naive_entropy(cov)
        assert abs(bits - masked_naive_bits(np.linalg.eigvalsh(cov.matrix))) <= naive_bits_bound(dim, bits)

    def test_zero_trace_in_any_spectrum_is_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            _window_entropies(np.array([np.diag([0.0, 1.0]), np.zeros((2, 2))]), 1.0)


def test_entropy_of_a_density_with_an_underflowed_eigenvalue():
    # beta * (lambda_max - lambda_min) = 1400: the top eigenvalue's weight
    # e^-1400 underflows to 0, which must count as 0 ln 0 = 0, not NaN.
    report = cvne(np.diag([-500.0, -499.0, 500.0]), 1.4)
    expected = scalar_entropy_nats([-500.0, -499.0], 1.4)
    assert report.entropy_nats == pytest.approx(expected, rel=1e-12)
    assert report.gibbs_form_nats == pytest.approx(expected, rel=1e-9)


class TestSubadditivity:
    def test_worked_example(self):
        lhs, rhs, _ = subadditivity([np.diag([2.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0])], 1.0)
        lhs_want = scalar_entropy_nats([0.0, 1.0, 3.0], 1.0)
        rhs_want = scalar_entropy_nats([0.0, 0.0, 2.0], 1.0) + scalar_entropy_nats([0.0, 1.0, 1.0], 1.0)
        assert lhs == pytest.approx(lhs_want, rel=1e-10)
        assert rhs == pytest.approx(rhs_want, rel=1e-10)
        assert lhs == pytest.approx(0.714, abs=5e-4)
        assert rhs == pytest.approx(1.860, abs=1e-3)
        assert lhs <= rhs + 1e-9

    def test_zero_matrix_partner(self, rng):
        c = random_psd(rng, 4)
        lhs, rhs, _ = subadditivity([c, np.zeros((4, 4))], 1.0)
        s_c = cvne(min_shifted(c), 1.0).entropy_nats
        assert lhs == pytest.approx(s_c, rel=1e-9)
        assert rhs == pytest.approx(s_c + math.log(4), rel=1e-9)
        assert lhs <= rhs + 1e-9

    def test_random_pairs_hold(self, rng):
        for _ in range(300):
            dim = int(rng.integers(4, 9))
            a = random_psd(rng, dim)
            b = random_psd(rng, dim)
            for beta in (0.5, 1.0, 2.0):
                lhs, rhs, _ = subadditivity([a, b], beta)
                assert lhs <= rhs + 1e-9

    def test_complementary_pair_is_reported_as_violation(self):
        # The inequality genuinely fails when the summands' null directions are
        # orthogonal: the shifted sum is isotropic (max entropy) while each
        # summand is concentrated.
        a = np.diag([0.0, 10.0])
        b = np.diag([10.0, 0.0])
        lhs, rhs, _ = subadditivity([a, b], 1.0)
        assert lhs == pytest.approx(math.log(2.0), rel=1e-9)
        assert rhs < 0.01
        assert not lhs <= rhs + 1e-9

    def test_shifts_recorded(self, rng):
        a = CovarianceMatrix(matrix=np.diag([3.0, 1.0]))
        b = CovarianceMatrix(matrix=np.diag([5.0, 2.0]))
        assert subadditivity([a, b], 1.0)[2] == pytest.approx((1.0, 2.0))


class TestThresholdAuc:
    def test_perfect_separation(self):
        assert threshold_auc([0.0, 0.1, 0.2], [1.0, 1.1]) == pytest.approx(1.0)

    def test_direction_insensitive(self):
        assert threshold_auc([1.0, 1.1], [0.0, 0.1]) == pytest.approx(1.0)

    def test_identical_scores_are_chance(self):
        assert threshold_auc([0.5] * 10, [0.5] * 10) == pytest.approx(0.5)

    def test_interleaved(self):
        auc = threshold_auc([0.0, 2.0], [1.0, 3.0])
        assert auc == pytest.approx(0.75)

    def test_an_empty_group_is_rejected(self):
        with pytest.raises(ValueError, match=r"^both groups must be non-empty$"):
            threshold_auc([], [1.0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=40),
        st.lists(st.integers(0, 4), min_size=1, max_size=40),
    )
    def test_matches_pairwise_count_with_many_ties(self, a, b):
        wins = sum((y > x) + 0.5 * (y == x) for x in a for y in b)
        pairwise = wins / (len(a) * len(b))
        expected = max(pairwise, 1.0 - pairwise)
        assert threshold_auc(np.array(a, float), np.array(b, float)) == pytest.approx(expected, abs=1e-12)


class TestDiscriminationExperiment:
    def test_identical_regimes_are_chance(self):
        result = discrimination_scores(n_windows=500, regime_scale=(1.0, 1.0, 1.0), seed=3)
        assert 0.45 <= result.auc_naive <= 0.55
        assert 0.45 <= result.auc_vne <= 0.55

    def test_near_global_scaling_separates_density_entropy(self):
        result = discrimination_scores(n_windows=200, seed=3)
        assert 0.45 <= result.auc_naive <= 0.60
        assert result.auc_vne >= 0.90

    def test_pure_global_scaling(self):
        result = discrimination_scores(n_windows=200, regime_scale=(5.0, 5.0, 5.0), seed=3)
        assert 0.45 <= result.auc_naive <= 0.55
        assert result.auc_vne >= 0.95

    def test_window_records_complete(self):
        windows = [r for r in table_rows(discrimination_scores(n_windows=25, seed=0).table) if "regime" in r.params]
        assert len(windows) == 50
        regimes = {w.params["regime"] for w in windows}
        assert regimes == {0, 1}

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            discrimination_scores(window=3)


class TestBatchedDiscrimination:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize(
        "base, scale",
        [
            ((1.0, 0.0), (1.5, 1.0)),
            ((2.0, 0.5), (1.1, 0.9)),
            ((1.0, 1.0, 0.0), (1.3, 1.2, 1.1)),
            ((0.5, 1.0, 3.0), (1.0, 1.0, 1.0)),
            ((1.0, 0.0, 0.0, 2.0), (2.0, 1.0, 1.0, 1.0)),
            ((0.3, 0.7, 1.1, 1.9, 4.0), (1.2, 1.2, 1.2, 1.2, 1.2)),
            ((1.0, 1.0, 0.0, 0.0, 0.0), (1.3, 1.2, 1.1, 1.0, 1.0)),
        ],
    )
    def test_matches_window_by_window_public_api(self, base, scale, seed):
        window, n_windows, beta = 12, 30, 1.5
        result = discrimination_scores(
            beta, window=window, n_windows=n_windows, regime_scale=scale, base_spectrum=base, seed=seed
        )
        naive, vne = window_by_window(window, n_windows, beta, scale, base, seed)
        got_naive, got_vne = result.naive, result.vne
        windows = [r.params for r in table_rows(result.table) if "regime" in r.params]
        assert [(w["regime"], w["window_index"]) for w in windows] == [
            (r, i) for r in (0, 1) for i in range(n_windows)
        ]
        np.testing.assert_array_equal(got_naive, naive)
        # Bit for bit: cvne reads the spectrum each window's CovarianceMatrix check computed.
        np.testing.assert_array_equal(got_vne, vne)
        assert result.auc_naive == threshold_auc(naive[0], naive[1])
        assert result.auc_vne == threshold_auc(vne[0], vne[1])

    @pytest.mark.parametrize(
        "base, scale, beta, error",
        [
            ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 2.0, DegenerateCovarianceError),
            # beta * lambda overflows a double where lambda_max > 1.06, as in the first window.
            ((1.0, 1.0, 0.0), (1.3, 1.2, 1.1), -1.7e308, BetaRangeError),
            ((1.0, 1.0, 0.0), (0.0, 0.0, 0.0), 2.0, DegenerateCovarianceError),
            # Only windows with lambda_max > 1.8 overflow; the first of them is named.
            ((1.0, 1.0, 0.0), (1.3, 1.2, 1.1), -1e308, BetaRangeError),
            # Finite draws whose covariance overflows to inf.
            ((1e308, 1.0, 0.0), (1.0, 1.0, 1.0), 2.0, ValueError),
        ],
    )
    def test_raises_what_the_first_failing_window_raises(self, base, scale, beta, error):
        with pytest.raises(error) as batched:
            discrimination_scores(beta, window=12, n_windows=30, regime_scale=scale, base_spectrum=base, seed=0)
        with pytest.raises(error) as one_by_one:
            window_by_window(12, 30, beta, scale, base, 0)
        assert type(batched.value) is type(one_by_one.value)
        assert str(batched.value) == str(one_by_one.value)

    def test_non_finite_draw_is_named_before_any_window_overflows(self):
        # Regime 0's first window overflows beta * lambda, which the window-by-window loop meets first;
        # the config names the scale entry that would draw non-finite regime-1 data before any draw.
        base, scale, beta = (1.0, 1.0, 0.0), (-1.0, 1.0, 1.0), -1.7e308
        with pytest.raises(BetaRangeError):
            window_by_window(12, 30, beta, scale, base, 0)
        with pytest.raises(ValueError) as batched:
            discrimination_scores(beta, window=12, n_windows=30, regime_scale=scale, base_spectrum=base, seed=0)
        message = "/regime_scale: entries must be >= 0, got [-1.0, 1.0, 1.0]"
        assert (type(batched.value), str(batched.value)) == (ConfigError, message)

    @pytest.mark.parametrize("beta", [480.0, 1e6, -800.0])
    def test_betas_past_the_old_cap_match_window_by_window(self, beta):
        # These betas once raised BetaRangeError; every window's density is well defined.
        result = discrimination_scores(
            beta, window=12, n_windows=30, regime_scale=(1.3, 1.2, 1.1), base_spectrum=(1.0, 1.0, 0.0), seed=0
        )
        _, vne = window_by_window(12, 30, beta, (1.3, 1.2, 1.1), (1.0, 1.0, 0.0), 0)
        np.testing.assert_array_equal(result.vne, vne)

    def test_one_decomposition_per_window(self, monkeypatch):
        shapes = count_linalg_calls(monkeypatch, "eigvalsh")
        monkeypatch.setattr(np.linalg, "eigh", None)
        discrimination_scores(window=20, n_windows=40, seed=1)
        assert shapes == [(2, 40, 3, 3)]
