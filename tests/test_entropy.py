import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    count_linalg_calls,
    discrimination_scores,
    random_low_rank,
    random_psd,
    subadditivity,
    table_rows,
    window_by_window,
)
from covdensity.covariance import CovarianceMatrix, shift_regularize
from covdensity.entropy import _naive_bits, cvne, naive_entropy, threshold_auc
from covdensity.errors import BetaRangeError, ConfigError, DegenerateCovarianceError


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
            c = shift_regularize(random_psd(rng, 5))
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
            c = shift_regularize(random_psd(rng, 6))
            assert cvne(c, float(rng.uniform(0.1, 5.0))).gibbs_form_nats >= 0.0

    def test_agrees_with_cvne(self, rng):
        for _ in range(30):
            c = random_psd(rng, 6)
            beta = float(rng.uniform(-2, 6))
            report = cvne(c, beta)
            assert abs(report.gibbs_form_nats - report.entropy_nats) <= 1e-9


class TestNaiveEntropy:
    def test_two_equal_modes(self):
        assert naive_entropy(np.diag([1.0, 1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert naive_entropy(np.diag([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 2.0, 100.0])
    def test_scale_blindness(self, alpha, rng):
        c = random_psd(rng, 5)
        a = naive_entropy(c)
        b = naive_entropy(CovarianceMatrix(matrix=alpha * c.matrix))
        assert abs(a - b) <= 1e-12

    def test_zero_trace_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            naive_entropy(np.zeros((3, 3)))


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


class TestNaiveBitsOnStacks:
    @settings(max_examples=300, deadline=None)
    @given(_spectrum_stacks)
    def test_stacked_equals_masked_row_formula(self, stack):
        stack[..., -1] += 1.0  # every spectrum keeps a positive trace
        bits = _naive_bits(stack)
        assert bits.shape == stack.shape[:-1]
        for index in np.ndindex(stack.shape[:-1]):
            assert bits[index] == masked_naive_bits(stack[index])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 24), st.integers(1, 24), st.integers(0, 2**32 - 1))
    def test_naive_entropy_of_rank_deficient_matrix(self, dim, rank, seed):
        cov = random_low_rank(np.random.default_rng(seed), dim, min(rank, dim))
        assert naive_entropy(cov) == masked_naive_bits(np.linalg.eigvalsh(cov.matrix))

    def test_zero_trace_in_any_spectrum_is_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            _naive_bits(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
        s_c = cvne(shift_regularize(c), 1.0).entropy_nats
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
        naive, vne_eigh, vne_eigvalsh = window_by_window(window, n_windows, beta, scale, base, seed)
        got_naive, got_vne = result.naive, result.vne
        windows = [r.params for r in table_rows(result.table) if "regime" in r.params]
        assert [(w["regime"], w["window_index"]) for w in windows] == [
            (r, i) for r in (0, 1) for i in range(n_windows)
        ]
        np.testing.assert_array_equal(got_naive, naive)
        # Bit for bit against cvne on the same eigvalsh spectrum.  cvne on the
        # matrix decomposes with eigh, whose eigenvalues can differ from
        # eigvalsh's in the last bits, so that comparison gets rtol 1e-12.
        np.testing.assert_array_equal(got_vne, vne_eigvalsh)
        np.testing.assert_allclose(got_vne, vne_eigh, rtol=1e-12)
        assert result.auc_naive == threshold_auc(naive[0], naive[1])
        assert result.auc_vne == threshold_auc(vne_eigvalsh[0], vne_eigvalsh[1])

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
        _, _, vne_eigvalsh = window_by_window(12, 30, beta, (1.3, 1.2, 1.1), (1.0, 1.0, 0.0), 0)
        got_vne = result.vne
        np.testing.assert_array_equal(got_vne, vne_eigvalsh)

    def test_one_decomposition_per_window(self, monkeypatch):
        shapes = count_linalg_calls(monkeypatch, "eigvalsh")
        monkeypatch.setattr(np.linalg, "eigh", None)
        discrimination_scores(window=20, n_windows=40, seed=1)
        assert shapes == [(2, 40, 3, 3)]
