import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import spectral_matrix
from covdensity import spectral
from covdensity.covariance import CovarianceMatrix
from covdensity.density import density_operator
from covdensity.entropy import cvne, naive_entropy
from covdensity.errors import ShapeError, SymmetryError
from covdensity.filtering import FilterSpec, filter_apply, polynomial_response
from covdensity.lab import matched_alignment
from covdensity.network import TrainConfig, forward_rows, init_model, model_gradients
from covdensity.spectral import SpectralDecomposition, _norm, eigh


class TestEigh:
    def test_identity(self):
        d = eigh(np.eye(3))
        np.testing.assert_allclose(d.eigenvalues, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(d.eigenvectors.T @ d.eigenvectors, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        d = eigh(np.diag([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(d.eigenvalues, [0.0, 0.0, 2.0])

    def test_two_by_two_hand_solved(self):
        d = eigh([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(d.eigenvalues, [1.0, 3.0], atol=1e-12)
        # Each eigenvector is fixed up to its sign, which is LAPACK's.
        s = 1.0 / np.sqrt(2.0)
        assert abs(d.eigenvectors[:, 0] @ [s, -s]) == pytest.approx(1.0, abs=1e-12)
        assert abs(d.eigenvectors[:, 1] @ [s, s]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_repeat(self, rng):
        m = rng.standard_normal((8, 8))
        m = (m + m.T) / 2.0
        d1, d2 = eigh(m), eigh(m)
        np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
        np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            eigh(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            eigh([[0.0, 1.0], [0.0, 0.0]])

    def test_symmetrizes_roundoff_asymmetry(self):
        m = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        d = eigh(m)
        np.testing.assert_allclose(spectral_matrix(d, d.eigenvalues), (m + m.T) / 2.0, atol=1e-12)

    def test_invariants_on_random_batch(self, rng):
        for _ in range(1000):
            m = rng.standard_normal((8, 8))
            m = (m + m.T) / 2.0
            d = eigh(m)
            v = d.eigenvectors
            assert np.max(np.abs(v.T @ v - np.eye(8))) <= 1e-10
            scale = max(1.0, np.linalg.norm(m, 2))
            assert np.max(np.abs(spectral_matrix(d, d.eigenvalues) - m)) <= 1e-8 * scale
            assert np.all(np.diff(d.eigenvalues) >= 0)


def covariance_norm(m) -> float:
    """||C|| of a plain array as the stability runner reads it: the max-abs eigenvalue of the checked covariance."""
    return float(_norm(CovarianceMatrix(matrix=m)._eigenvalues))


class TestOperatorNorm:
    def test_zero(self):
        assert covariance_norm(np.zeros((3, 3))) == 0.0

    def test_symmetric_max_abs_eigenvalue(self):
        # ||dC|| is read from eigvalsh of the (indefinite) perturbation.
        assert _norm(np.linalg.eigvalsh(np.diag([-3.0, 2.0]))) == pytest.approx(3.0)
        np.testing.assert_allclose(_norm(np.array([[-3.0, 2.0], [0.5, -0.25]])), [3.0, 0.5])

    def test_transpose_invariance(self, rng):
        # eigvalsh reads one triangle; symmetrizing first keeps ||C|| independent of it.
        for _ in range(50):
            a = rng.standard_normal((6, 6))
            m = a @ a.T + 1e-11 * rng.standard_normal((6, 6))
            assert covariance_norm(m) == covariance_norm(m.T)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            covariance_norm(np.ones((2, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "entry_point",
    [lambda m: density_operator(m, 1.0), lambda m: cvne(m, 1.0), naive_entropy, eigh, covariance_norm],
    ids=["density_operator", "cvne", "naive_entropy", "eigh", "operator_norm"],
)
@pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
def test_non_finite_plain_array_is_rejected(entry_point, bad, where):
    # A NaN on the diagonal used to give NaN densities and an entropy of 0.0;
    # an inf off the diagonal warned in the symmetry check (inf - inf) first.
    m = np.eye(3)
    if where == "diagonal":
        m[1, 1] = bad
    else:
        m[0, 2] = m[2, 0] = bad
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        entry_point(m)


def test_spectral_matrix_rebuilds(rng):
    m = rng.standard_normal((5, 5))
    m = (m + m.T) / 2.0
    d = eigh(m)
    np.testing.assert_allclose(spectral_matrix(d, d.eigenvalues), m, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 22).flatmap(
        lambda m: st.tuples(
            arrays(np.float64, (m, m), elements=st.floats(-10.0, 10.0)),
            st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
                lambda lead: arrays(np.float64, lead + (m,), elements=st.floats(-10.0, 10.0))
            ),
        )
    )
)
def test_stacked_spectral_matrix_equals_row_by_row(case):
    m, values = case
    d = eigh((m + m.T) / 2.0)
    stacked = spectral_matrix(d, values)
    assert stacked.shape == values.shape[:-1] + (d.dim, d.dim)
    for index in np.ndindex(values.shape[:-1]):
        np.testing.assert_array_equal(stacked[index], spectral_matrix(d, values[index]))


def test_decomposition_is_immutable(rng):
    d = eigh(np.eye(3))
    assert isinstance(d, SpectralDecomposition)
    with pytest.raises(ValueError):
        d.eigenvalues[0] = 5.0


def test_empty_matrix_decomposes():
    assert eigh(np.zeros((0, 0))).eigenvectors.shape == (0, 0)


def flip_columns(d, mask):
    """``d`` with the eigenvectors whose bit is set in ``mask`` negated: an equally valid decomposition."""
    signs = np.where((mask >> np.arange(d.dim)) & 1, -1.0, 1.0)
    return SpectralDecomposition(d.eigenvalues, d.eigenvectors * signs)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1))
def test_eigenvector_signs_leave_every_consumer_bit_identical(m, seed, mask, other_mask):
    # eigh returns LAPACK's signs, so every quantity built on a basis must cancel them exactly.
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, m, m + 1))
    d, c = eigh(a @ a.T), eigh(b @ b.T)
    d_flip, c_flip = flip_columns(d, mask), flip_columns(c, other_mask)

    spec = FilterSpec(coeffs=rng.standard_normal(3), beta=float(rng.uniform(-2.0, 2.0)))
    x = rng.standard_normal(m)
    np.testing.assert_array_equal(
        filter_apply(spec, density_operator(d_flip, spec.beta), x), filter_apply(spec, density_operator(d, spec.beta), x)
    )

    values = rng.standard_normal((2, m))
    np.testing.assert_array_equal(
        spectral._spectral_matrix(d_flip.eigenvectors, values), spectral._spectral_matrix(d.eigenvectors, values)
    )

    # d plays the Laplacian, c the covariance, whose eigenvectors the matching reads in d's basis.
    coeffs = rng.standard_normal(2)
    g = polynomial_response(FilterSpec(coeffs=coeffs, beta=0.0), d.eigenvalues)
    flipped = matched_alignment(np.square(g), d_flip.eigenvectors.T @ c_flip.eigenvectors)
    for got, expected in zip(flipped, matched_alignment(np.square(g), d.eigenvectors.T @ c.eigenvectors)):
        np.testing.assert_array_equal(got, expected)

    cfg = TrainConfig(betas=(0.5, -1.0), betas_learnable=True, hidden_dim=3, num_layers=2, seed=seed % 1000)
    model = init_model(a @ a.T, 2, cfg)
    flipped = copy.copy(model)
    flipped.basis = flip_columns(model.basis, mask)
    xs, ys = rng.standard_normal((5, m)), rng.standard_normal((5, 2))
    np.testing.assert_array_equal(forward_rows(flipped, xs), forward_rows(model, xs))
    loss_flip, grads_flip = model_gradients(flipped, xs, ys, "mse", np.random.default_rng(seed), dropout=0.3)
    loss, grads = model_gradients(model, xs, ys, "mse", np.random.default_rng(seed), dropout=0.3)
    assert loss_flip == loss
    assert len(grads_flip) == len(grads)
    for got, expected in zip(grads_flip, grads):
        np.testing.assert_array_equal(got, expected)
