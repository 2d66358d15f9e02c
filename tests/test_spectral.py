import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import spectral_matrix
from covdensity.covariance import CovarianceMatrix
from covdensity.density import _norm, density_operator
from covdensity.entropy import cvne, naive_entropy
from covdensity.errors import ShapeError, SymmetryError
from covdensity.spectral import (
    _SIGN_EPS,
    SpectralDecomposition,
    _fix_signs,
    eigh,
)


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
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(d.eigenvectors[:, 0], [s, -s], atol=1e-12)
        np.testing.assert_allclose(d.eigenvectors[:, 1], [s, s], atol=1e-12)

    def test_sign_convention_first_nonzero_positive(self, rng):
        for _ in range(50):
            m = rng.standard_normal((6, 6))
            d = eigh((m + m.T) / 2.0)
            for j in range(6):
                col = d.eigenvectors[:, j]
                first = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
                assert first > 0

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


def loop_fix_signs(vectors):
    """Column-by-column reference for the sign convention."""
    out = np.array(vectors, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        nonzero = np.nonzero(np.abs(col) > _SIGN_EPS)[0]
        anchor = nonzero[0] if nonzero.size else 0
        if col[anchor] < 0:
            out[:, j] = -col
    return out


# Entries at, just below and just above the anchor threshold, signed zeros,
# and ordinary values, so columns often lead with sub-threshold entries and
# some have no entry above it at all.
_entries = st.one_of(
    st.sampled_from([0.0, -0.0, _SIGN_EPS, -_SIGN_EPS, 0.5 * _SIGN_EPS, -0.5 * _SIGN_EPS,
                     2.0 * _SIGN_EPS, -2.0 * _SIGN_EPS]),
    st.floats(-1.0, 1.0),
)


_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_entries)
)


@settings(max_examples=300, deadline=None)
@given(_matrices)
def test_vectorized_sign_fix_equals_loop(vectors):
    fixed = _fix_signs(vectors)
    expected = loop_fix_signs(vectors)
    np.testing.assert_array_equal(fixed, expected)
    np.testing.assert_array_equal(np.signbit(fixed), np.signbit(expected))


def test_sign_fix_of_empty_matrix():
    assert eigh(np.zeros((0, 0))).eigenvectors.shape == (0, 0)
