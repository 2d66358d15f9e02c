import itertools
import warnings

import numpy as np
import pytest

from covdensity.covariance import (
    CovarianceMatrix,
    DataMatrix,
    Regularization,
    gen_ar_process,
    gen_gaussian_data,
    gen_graph_stationary,
    read_csv_covariance,
    read_csv_data,
    sample_covariance,
    shift_regularize,
    trace_normalize,
)
from covdensity.errors import (
    DegenerateCovarianceError,
    InsufficientDataError,
    NonstationaryError,
    ShapeError,
)
from covdensity.spectral import eigh


class TestSampleCovariance:
    def test_identical_rows_give_zero(self):
        data = DataMatrix(values=np.array([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_allclose(sample_covariance(data).matrix, 0.0, atol=1e-15)

    def test_hand_computed_two_points(self):
        data = DataMatrix(values=np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_allclose(sample_covariance(data).matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_divisor_is_n(self, rng):
        values = rng.standard_normal((17, 4))
        got = sample_covariance(DataMatrix(values=values)).matrix
        np.testing.assert_allclose(got, np.cov(values, rowvar=False, ddof=0), rtol=1e-12)

    def test_constant_shift_invariance(self, rng):
        values = rng.standard_normal((30, 3))
        shifted = values + np.array([5.0, -2.0, 100.0])
        np.testing.assert_allclose(
            sample_covariance(DataMatrix(values=values)).matrix,
            sample_covariance(DataMatrix(values=shifted)).matrix,
            atol=1e-10,
        )

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            sample_covariance(DataMatrix(values=np.ones((1, 3))))

    def test_output_is_psd(self, rng):
        for _ in range(50):
            values = rng.standard_normal((6, 8))
            c = sample_covariance(DataMatrix(values=values))
            assert np.min(np.linalg.eigvalsh(c.matrix)) >= -1e-10


class TestShiftRegularize:
    def test_already_zero_min_eig(self):
        c = shift_regularize(CovarianceMatrix(matrix=np.diag([2.0, 0.0, 0.0])))
        np.testing.assert_allclose(c.matrix, np.diag([2.0, 0.0, 0.0]), atol=1e-12)
        assert c.min_eig_shift == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_shift(self):
        c = shift_regularize(CovarianceMatrix(matrix=np.diag([3.0, 1.0])))
        np.testing.assert_allclose(c.matrix, np.diag([2.0, 0.0]), atol=1e-12)
        assert c.min_eig_shift == pytest.approx(1.0)
        assert c.regularization == Regularization.SHIFTED_MIN_EIG_ZERO

    def test_identity_becomes_zero(self):
        c = shift_regularize(CovarianceMatrix(matrix=np.eye(4)))
        np.testing.assert_allclose(c.matrix, 0.0, atol=1e-12)
        assert c.min_eig_shift == pytest.approx(1.0)

    def test_preserves_eigenvectors_and_shifts_spectrum(self, rng):
        from conftest import random_psd

        for _ in range(20):
            c = random_psd(rng, 6)
            reg = shift_regularize(c)
            before, after = eigh(c.matrix), eigh(reg.matrix)
            np.testing.assert_allclose(np.abs(before.eigenvectors), np.abs(after.eigenvectors), atol=1e-9)
            np.testing.assert_allclose(
                after.eigenvalues, before.eigenvalues - reg.min_eig_shift, atol=1e-9
            )


class TestTraceNormalize:
    def test_identity(self):
        c = trace_normalize(CovarianceMatrix(matrix=np.eye(2)))
        np.testing.assert_allclose(c.matrix, 0.5 * np.eye(2), atol=1e-15)
        assert c.regularization == Regularization.TRACE_NORMALIZED

    def test_rank_one(self):
        c = trace_normalize(CovarianceMatrix(matrix=np.diag([2.0, 0.0, 0.0])))
        np.testing.assert_allclose(c.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-15)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            trace_normalize(CovarianceMatrix(matrix=np.zeros((3, 3))))


def _permutation_matrices(dim):
    for perm in itertools.permutations(range(dim)):
        t = np.zeros((dim, dim))
        t[list(perm), range(dim)] = 1.0
        yield t


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_regularizers_commute_with_permutation(dim, rng):
    from conftest import random_psd

    c = random_psd(rng, dim)
    for t in _permutation_matrices(dim):
        permuted = CovarianceMatrix(matrix=t.T @ c.matrix @ t)
        for f in (shift_regularize, trace_normalize):
            lhs = f(permuted).matrix
            rhs = t.T @ f(c).matrix @ t
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestGaussianGenerator:
    def test_converges_to_identity(self):
        data = gen_gaussian_data(3, 10000, "gaussian", seed=1)
        c = sample_covariance(data)
        assert np.max(np.abs(c.matrix - np.eye(3))) <= 0.1

    def test_deterministic(self):
        a = gen_gaussian_data(4, 50, "gamma", seed=9)
        b = gen_gaussian_data(4, 50, "gamma", seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_exponential_support(self):
        data = gen_gaussian_data(1, 2, "exponential", seed=0)
        assert data.values.shape == (2, 1)
        assert np.all(data.values > 0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            gen_gaussian_data(2, 10, "cauchy", seed=0)


class TestGraphStationary:
    def test_identity_filter_recovers_white_noise(self):
        data, lap = gen_graph_stationary(5, 20000, 0.5, [1.0], seed=3)
        c = sample_covariance(data)
        assert np.max(np.abs(c.matrix - np.eye(5))) <= 0.1
        degrees = np.diag(lap)
        assert np.all(degrees >= 1)

    def test_population_covariance_commutes_with_laplacian(self):
        _, lap = gen_graph_stationary(6, 10, 0.6, [1.0, 0.5], seed=4)
        g = np.eye(6) + 0.5 * lap
        pop_cov = g @ g
        np.testing.assert_allclose(pop_cov @ lap, lap @ pop_cov, atol=1e-9)

    def test_eigenvector_alignment_at_large_n(self):
        from covdensity.lab import matched_alignment

        data, lap = gen_graph_stationary(8, 20000, 0.5, [1.0, 0.5], seed=7)
        alignment, degenerate = matched_alignment(sample_covariance(data), lap, [1.0, 0.5])
        assert not degenerate
        assert alignment >= 0.9

    def test_deterministic(self):
        a, la = gen_graph_stationary(6, 100, 0.5, [1.0, 0.2], seed=11)
        b, lb = gen_graph_stationary(6, 100, 0.5, [1.0, 0.2], seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(la, lb)

    def test_bad_edge_prob(self):
        with pytest.raises(ValueError):
            gen_graph_stationary(4, 10, 0.0, [1.0], seed=0)


class TestArProcess:
    def test_iid_limit(self):
        data = gen_ar_process(3, 20000, 0.0, seed=5, equicorrelation=0.0)
        c = sample_covariance(data)
        assert np.max(np.abs(c.matrix - np.eye(3))) <= 0.1

    def test_lag_one_autocorrelation(self):
        phi = 0.9
        data = gen_ar_process(4, 50000, phi, seed=6)
        x = data.values
        for j in range(4):
            col = x[:, j] - x[:, j].mean()
            rho1 = float(np.dot(col[1:], col[:-1]) / np.dot(col, col))
            assert abs(rho1 - phi) <= 0.05

    def test_cross_sectional_correlation(self):
        data = gen_ar_process(3, 50000, 0.5, seed=2, equicorrelation=0.6)
        c = sample_covariance(data).matrix
        corr = c[0, 1] / np.sqrt(c[0, 0] * c[1, 1])
        assert abs(corr - 0.6) <= 0.05

    def test_deterministic(self):
        a = gen_ar_process(2, 100, 0.3, seed=8)
        b = gen_ar_process(2, 100, 0.3, seed=8)
        np.testing.assert_array_equal(a.values, b.values)

    def test_nonstationary_rejected(self):
        with pytest.raises(NonstationaryError):
            gen_ar_process(2, 10, 1.0, seed=0)


class TestCsvIo:
    def test_data_round_trip(self, tmp_path, rng):
        values = rng.standard_normal((5, 3))
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            fh.write("a,b,c\n")
            for row in values:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        data = read_csv_data(path, header=True)
        np.testing.assert_array_equal(data.values, values)

    def test_covariance_read(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("2.0,0.0\n0.0,1.0\n")
        cov = read_csv_covariance(path)
        np.testing.assert_allclose(cov.matrix, np.diag([2.0, 1.0]))

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ShapeError, match="ragged"):
            read_csv_data(path)


class TestCovarianceMatrixInvariants:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            CovarianceMatrix(matrix=np.diag([1.0, -0.5]))

    def test_rejects_wrong_shift_label(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(matrix=np.diag([3.0, 1.0]), regularization=Regularization.SHIFTED_MIN_EIG_ZERO)

    def test_rejects_wrong_trace_label(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(matrix=np.diag([3.0, 1.0]), regularization=Regularization.TRACE_NORMALIZED)

    def test_data_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DataMatrix(values=np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_before_symmetrizing(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf - inf in the symmetry check would warn
            with pytest.raises(ValueError, match="non-finite"):
                CovarianceMatrix(matrix=np.array([[1.0, bad], [bad, 1.0]]))
