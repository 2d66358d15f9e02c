import csv
import itertools
import os
import re
import warnings

import numpy as np
import pytest

from conftest import gen_graph_stationary, trace_normalize
from covdensity import covariance, spectral
from covdensity.covariance import (
    CovarianceMatrix,
    DataMatrix,
    gen_gaussian_data,
    read_csv_covariance,
    read_csv_data,
    sample_covariance,
)
from covdensity.errors import (
    ConfigError,
    DegenerateCovarianceError,
    GraphGenerationError,
    InsufficientDataError,
    ShapeError,
)
from covdensity.filtering import FilterSpec, polynomial_response
from covdensity.lab import SurrogateConfig


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


def test_entries_near_the_largest_double_are_symmetrized_without_overflow():
    # (m + m^T) / 2 would overflow to inf here; halving first keeps the mean finite.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        covs = [CovarianceMatrix(matrix=m) for m in (np.array([[1.5e308]]), np.diag([1.5e308, 1e308]))]
    assert [str(w.message) for w in caught] == []
    assert [c.matrix.tolist() for c in covs] == [[[1.5e308]], [[1.5e308, 0.0], [0.0, 1e308]]]


def test_cached_spectrum_is_hidden_and_read_only():
    c = CovarianceMatrix(matrix=np.diag([3.0, 1.0]))
    assert "_eigenvalues" not in repr(c)
    with pytest.raises(ValueError):
        c._eigenvalues[0] = 0.0


class TestTraceNormalize:
    def test_identity(self):
        c, traces = covariance._trace_normalized(np.eye(2))
        np.testing.assert_allclose(c, 0.5 * np.eye(2), atol=1e-15)
        assert traces == 2.0

    def test_rank_one(self):
        c, _ = covariance._trace_normalized(np.diag([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(c, np.diag([1.0, 0.0, 0.0]), atol=1e-15)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            covariance._trace_normalized(np.zeros((3, 3)))


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
        lhs = trace_normalize(permuted).matrix
        rhs = t.T @ trace_normalize(c).matrix @ t
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

    def test_impossible_size(self):
        with pytest.raises(ValueError, match=r"^need dim >= 1 and n_samples >= 2$"):
            gen_gaussian_data(0, 5)


@pytest.mark.parametrize(
    "values,message",
    [
        (np.ones(3), "data matrix must be 2-D, got shape (3,)"),
        (np.empty((0, 3)), "data matrix must be non-empty, got shape (0, 3)"),
    ],
)
def test_data_matrix_must_be_a_non_empty_table(values, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        DataMatrix(values)


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
        lam, v = spectral._eigh(np.stack([lap, sample_covariance(data).matrix]))
        # g on L's spectrum, and the covariance eigenvectors in L's eigenbasis.
        g = polynomial_response(FilterSpec(coeffs=[1.0, 0.5], beta=0.0), lam[:1])
        alignment, degenerate = matched_alignment(np.square(g), v[:1].swapaxes(-1, -2) @ v[1:])
        assert not degenerate[0]
        assert alignment[0] >= 0.9

    def test_no_connected_graph_within_the_retry_budget(self):
        rng = np.random.default_rng(0)
        message = "no connected graph in 100 attempts (dim=20, edge_prob=1e-09)"
        with pytest.raises(GraphGenerationError, match=re.escape(message)):
            covariance._connected_laplacian(20, 1e-9, rng)

    def test_deterministic(self):
        a, la = gen_graph_stationary(6, 100, 0.5, [1.0, 0.2], seed=11)
        b, lb = gen_graph_stationary(6, 100, 0.5, [1.0, 0.2], seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(la, lb)

    def test_connectivity_matches_breadth_first_search(self):
        def bfs_connected(adjacency):
            seen, stack = {0}, [0]
            while stack:
                for nbr in np.flatnonzero(adjacency[stack.pop()]):
                    if nbr not in seen:
                        seen.add(nbr)
                        stack.append(nbr)
            return len(seen) == len(adjacency)

        def first_connected_laplacian(dim, p, rng):
            """D - A of the first attempt that BFS finds connected, and its index, from the generator's draws replayed
            attempt by attempt."""
            for attempt in range(100):
                adjacency = np.zeros((dim, dim))
                adjacency[np.triu_indices(dim, k=1)] = rng.random(dim * (dim - 1) // 2) < p
                adjacency += adjacency.T
                if bfs_connected(adjacency):
                    return np.diag(adjacency.sum(axis=1)) - adjacency, attempt
            raise GraphGenerationError(f"no connected graph in 100 attempts (dim={dim}, edge_prob={p})")

        got_rng, oracle_rng, attempts = np.random.default_rng(1234), np.random.default_rng(1234), []
        for dim, p, _ in itertools.product((1, 2, 3, 8, 20), (0.05, 0.2, 0.5), range(30)):
            try:
                expected, attempt = first_connected_laplacian(dim, p, oracle_rng)
            except GraphGenerationError as exc:
                with pytest.raises(GraphGenerationError, match=re.escape(str(exc))):
                    covariance._connected_laplacian(dim, p, got_rng)
                attempts.append(None)
            else:
                assert covariance._connected_laplacian(dim, p, got_rng).tobytes() == expected.tobytes()
                attempts.append(attempt)
            assert got_rng.bit_generator.state == oracle_rng.bit_generator.state
        # First-attempt acceptances, acceptances after retries and exhausted budgets all occur.
        assert 0 in attempts and None in attempts and any(a is not None and a > 0 for a in attempts)

    def test_bad_edge_prob(self):
        # The surrogate's config checks edge_prob before any graph is drawn.
        for edge_prob in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError, match=re.escape(f"/edge_prob: must be in (0, 1], got {edge_prob}")):
                SurrogateConfig(edge_prob=edge_prob)


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

    def test_plain_input_skips_the_csv_module_parser(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("the csv-module reader ran on plain numeric input")

        monkeypatch.setattr(covariance, "_csv_module_rows", fail)
        path = tmp_path / "cov.csv"
        path.write_bytes(b"x,y\r\n2.0,0.5\r\n\r\n0.5,1.0\r\n")
        cov = read_csv_covariance(path, header=True)
        np.testing.assert_array_equal(cov.matrix, [[2.0, 0.5], [0.5, 1.0]])


def reference_csv_rows(path, header):
    """The csv-module reader this package used before NumPy parsed CSV input."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if header and i == 0:
                continue
            if not row:
                continue
            rows.append([float(cell) for cell in row])
    if not rows:
        raise ShapeError(f"no data rows in {path}")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ShapeError(f"ragged CSV: row {i} has {len(row)} cells, expected {width}")
    return rows


def reference_read(reader, path, header):
    values = np.array(reference_csv_rows(path, header), dtype=float)
    if reader is read_csv_data:
        return DataMatrix(values=values)
    return CovarianceMatrix(matrix=values)


def read_outcome(read, path, header):
    """A read's array as (dtype, shape, bytes), or the type and message of what it raised."""
    try:
        result = read(path, header=header)
    except Exception as exc:  # the outcome under comparison is any exception
        return ("raised", type(exc), str(exc))
    values = result.values if isinstance(result, DataMatrix) else result.matrix
    return ("read", values.dtype, values.shape, values.tobytes())


def _table_csv(seed, n_rows, n_cols):
    values = np.random.default_rng(seed).standard_normal((n_rows, n_cols)) * np.geomspace(1.0, 1e-3, n_cols)
    return "".join(",".join(repr(v) for v in row) + "\n" for row in values.tolist()).encode()


ODD_CSVS = {
    "plain": b"2,0.5\n0.5,1\n",
    "crlf": b"2,0.5\r\n0.5,1\r\n",
    "lone_cr": b"2,0.5\r0.5,1\r",
    "no_final_newline": b"2,0.5\n0.5,1",
    "blank_lines": b"\n2,0.5\n\n\r\n0.5,1\n\n",
    "whitespace_line": b"2,0.5\n   \n0.5,1\n",
    "tab_line": b"2,0.5\n\t\n0.5,1\n",
    "whitespace_after_last_row": b"2,0.5\n0.5,1\n  ",
    "padded_cells": b" 2 ,\t0.5\n0.5 , 1\x0b\n",
    "quoted_cells": b'"2","0.5"\n0.5,"1"\n',
    "quoted_padded_cell": b'" 2 ",0.5\n0.5,1\n',
    "quote_after_leading_space": b'2, "0.5"\n0.5,1\n',
    "quote_inside_cell": b'2,0"5"\n0.5,1\n',
    "text_after_closing_quote": b'"2"5,0.5\n0.5,1\n',
    "quoted_newline": b'"2\n",0.5\n0.5,1\n',
    "empty_quotes_line": b'2,0.5\n""\n0.5,1\n',
    "unterminated_quote": b'"2,0.5\n0.5,1\n',
    "underscore_digits": b"1_0,0.5\n0.5,1\n",
    "unicode_digits": "٢,0.5\n0.5,١\n".encode(),
    "nan": b"nan,0.5\n0.5,1\n",
    "infinity": b"1e999,0\n0,1\n",
    "signed_zero_and_subnormal": b"-0,5e-324\n5e-324,1\n",
    "trailing_commas": b"2,0.5,\n0.5,1,\n",
    "empty_cell": b"2,,0.5\n0.5,1\n",
    "ragged": b"2,0.5,1\n0.5,1\n",
    "ragged_then_unparsable": b"2,0.5\n0.5\nx,y\n",
    "single_column": b"1\n2\n3\n",
    "single_cell": b"4\n",
    "empty": b"",
    "only_blank_lines": b"\n\r\n\n",
    "bom": b"\xef\xbb\xbf2,0.5\n0.5,1\n",
    "comment_char": b"#2,0.5\n0.5,1\n",
    "semicolons": b"2;0.5\n0.5;1\n",
    "hex_and_fortran_exponent": b"0x2,0.5\n0.5,1d0\n",
    "invalid_utf8": b"2,0.5\n0.5,\xff\n",
    "indefinite": b"1,2\n2,1\n",
    "asymmetric": b"1,5\n0,1\n",
    "header_row": b"a,b\n2,0.5\n0.5,1\n",
    "header_with_quoted_newline": b'"a\n",b\n2,0.5\n0.5,1\n',
    "header_only": b"a,b\n",
    "blank_line_before_header": b"\na,b\n2,0.5\n0.5,1\n",
    "train_table": _table_csv(1, 120, 23),
    "predict_table": _table_csv(2, 300, 22),
}


class TestCsvReaderMatchesReference:
    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("reader", [read_csv_data, read_csv_covariance])
    @pytest.mark.parametrize("name", sorted(ODD_CSVS))
    def test_same_array_or_same_error(self, tmp_path, name, reader, header):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(ODD_CSVS[name])
        expected = read_outcome(lambda p, header: reference_read(reader, p, header), path, header)
        assert read_outcome(reader, path, header) == expected

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
    @pytest.mark.parametrize("content", [ODD_CSVS["plain"], ODD_CSVS["ragged"], ODD_CSVS["underscore_digits"]])
    def test_unseekable_stream(self, content):
        def through_pipe(read):
            r, w = os.pipe()
            with os.fdopen(w, "wb") as fh:
                fh.write(content)
            try:
                return read_outcome(read, f"/dev/fd/{r}", False)
            finally:
                os.close(r)

        expected = through_pipe(lambda p, header: reference_read(read_csv_data, p, header))
        assert through_pipe(read_csv_data) == expected

class TestCovarianceMatrixInvariants:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            CovarianceMatrix(matrix=np.diag([1.0, -0.5]))

    def test_empty_matrix_is_psd(self):
        # As eigh decomposes it; its norm from the empty spectrum is 0.
        assert CovarianceMatrix(matrix=np.zeros((0, 0))).matrix.shape == (0, 0)

    def test_data_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DataMatrix(values=np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_before_symmetrizing(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf - inf in the symmetry check would warn
            with pytest.raises(ValueError, match="non-finite"):
                CovarianceMatrix(matrix=np.array([[1.0, bad], [bad, 1.0]]))
