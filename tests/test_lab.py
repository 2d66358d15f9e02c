import csv
import dataclasses
import itertools
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (
    count_linalg_calls,
    dense_rho,
    gen_graph_stationary,
    min_shifted,
    spectral_matrix,
    table_rows,
    trace_normalize,
    window_by_window,
)
from covdensity import covariance, density, entropy, filtering, lab, spectral
from covdensity.covariance import DataMatrix, gen_gaussian_data, sample_covariance
from covdensity.errors import BetaRangeError, ConfigError, DegenerateCovarianceError, GraphGenerationError
from covdensity.lab import (
    BetafitDemoConfig,
    DiscriminationConfig,
    EntropyCurveConfig,
    LipschitzConfig,
    RegressionConfig,
    RunTable,
    StabilityConfig,
    SurrogateConfig,
    records_to_csv,
    run_betafit_demo,
    run_discrimination,
    run_entropy_curve,
    run_lipschitz,
    run_regression,
    run_stability,
    run_surrogate,
    summarize,
)


def metric_mean(records, metric, **param_filter):
    vals = [
        r.metrics[metric]
        for r in records
        if metric in r.metrics and all(r.params.get(k) == v for k, v in param_filter.items())
    ]
    assert vals, f"no records matched {param_filter}"
    return float(np.mean(vals))


def table_of(experiment, seed, rows):
    """A run table built from (params, metrics) dicts, one per row, with None where a row lacks a name."""
    p_keys = list(dict.fromkeys(k for params, _ in rows for k in params))
    m_keys = list(dict.fromkeys(k for _, metrics in rows for k in metrics))
    return RunTable(
        experiment, seed,
        {k: [params.get(k) for params, _ in rows] for k in p_keys},
        {k: [metrics.get(k) for _, metrics in rows] for k in m_keys},
    )


def reference_records_to_csv(table, path):
    """records_to_csv as it was when it wrote one record per row, cell by cell."""
    records = table_rows(table)
    p_keys = sorted({k for r in records for k in r.params})
    m_keys = sorted({k for r in records for k in r.metrics})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "seed"] + [f"p:{k}" for k in p_keys] + [f"m:{k}" for k in m_keys])
        for r in records:
            row = [table.experiment, repr(table.seed)]
            row += [reference_cell(r.params.get(k)) for k in p_keys]
            row += [reference_cell(r.metrics.get(k)) for k in m_keys]
            writer.writerow(row)


def reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_summarize(table):
    """summarize as it was when it grouped records and took np.mean of every group."""
    groups: dict = {}
    for r in table_rows(table):
        key = tuple(sorted(r.params.items()))
        groups.setdefault(key, []).append(r)
    summary = {}
    for key, rows in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        label = ",".join(f"{k}={v}" for k, v in key) or "all"
        metric_keys = sorted({m for r in rows for m in r.metrics})
        summary[label] = {
            m: float(np.mean([r.metrics[m] for r in rows if m in r.metrics])) for m in metric_keys
        }
        summary[label]["n_records"] = len(rows)
    return summary


# Missing keys, -0.0, subnormals, string and bool params, and groups of one, two and three rows.
ODD_ROWS = [
    ({"trial": 0, "beta": -0.0}, {"a": -0.0, "b": 5e-324}),
    ({"trial": 1, "method": "x,\"y\""}, {"b": 2.2e-308}),
    ({"method": "density", "flag": True}, {"a": 1e300, "c": -1.5}),
    ({"method": "density", "flag": True}, {"a": 1e300}),
    ({"method": "density", "flag": True}, {"c": 0.1, "a": 3e-320}),
    ({}, {"z": 1.0 / 3.0, "a": -7e-310}),
    ({}, {"z": 0.1 + 0.2}),
]


class TestRunTable:
    def test_metrics_must_be_finite(self):
        with pytest.raises(ValueError, match="metric 'a' is not finite: inf"):
            RunTable("x", 0, {}, {"a": [np.inf]})

    def test_first_non_finite_cell_in_row_order_is_named(self):
        metrics = {"a": [1.0, None, np.nan, 2.0], "b": [0.5, -np.inf, np.inf, 1.0], "c": [None, np.nan, 1.0, 1.0]}
        with pytest.raises(ValueError) as got:
            RunTable("x", 0, {"trial": [0, 1, 2, 3]}, metrics)
        # Row 1 is the first with a non-finite cell; its first such metric in column order is b.
        assert str(got.value) == "metric 'b' is not finite: -inf"
        # A lacking (None) cell is not a non-finite one.
        assert len(RunTable("x", 0, {}, {"a": [None, 1.0], "b": [2.0, None]})) == 2

    def test_columns_must_share_one_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            RunTable("x", 0, {"trial": [0, 1]}, {"a": [1.0]})

    def test_cells_are_canonical_and_absent_columns_dropped(self):
        table = RunTable(
            "x", 0, {"n": np.array([2, 3]), "flag": [np.bool_(True), False], "name": ["a", None], "gone": [None, None]},
            {"v": np.array([1, 2], dtype=np.int64), "w": [None, None]},
        )
        assert table.params == {"n": [2.0, 3.0], "flag": [1.0, 0.0], "name": ["a", None]}
        assert table.metrics == {"v": [1.0, 2.0]}
        assert all(type(v) is float for v in table.params["n"] + table.metrics["v"])

    def test_csv_round_trip_exact(self, tmp_path):
        table = table_of("demo", 3, [
            ({"trial": 0, "method": "density", "beta": -0.1}, {"value": 1.0 / 3.0, "other": 1e-17}),
            ({"trial": 1, "method": "trace_normalized"}, {"value": 2.5}),
        ])
        path = tmp_path / "records.csv"
        records_to_csv(table, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        records = table_rows(table)
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            assert row["experiment"] == "demo" and int(row["seed"]) == 3
            params = {k[2:]: v for k, v in row.items() if k.startswith("p:") and v != ""}
            assert params.keys() == record.params.keys()
            for key, value in record.params.items():
                assert (float(params[key]) if isinstance(value, float) else params[key]) == value
            metrics = {k[2:]: float(v) for k, v in row.items() if k.startswith("m:") and v != ""}
            assert metrics == record.metrics

    def test_summarize_groups_by_params(self):
        table = RunTable("e", 0, {"m": ["a", "a", "b"]}, {"v": [1.0, 3.0, 10.0]})
        summary = summarize(table)
        assert summary["m=a"]["v"] == pytest.approx(2.0)
        assert summary["m=b"]["v"] == pytest.approx(10.0)
        assert summary["m=a"]["n_records"] == 2

    @pytest.mark.parametrize(
        "rows, seed",
        [(ODD_ROWS, 4), (ODD_ROWS[:1], 4), (ODD_ROWS[2:], -2), ([], 0)],
        ids=["all", "one", "tail", "none"],
    )
    def test_artifacts_match_reference_writers(self, tmp_path, rows, seed):
        table = table_of("odd", seed, rows)
        records_to_csv(table, tmp_path / "got.csv")
        reference_records_to_csv(table, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        got, want = summarize(table), reference_summarize(table)
        # As summary.json is written: keys sorted, so the groups' insertion order is not part of the artifact.
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert [type(got[g][m]) for g in sorted(got) for m in sorted(got[g])] == [
            type(want[g][m]) for g in sorted(want) for m in sorted(want[g])
        ]


class TestConfig:
    def test_unread_key_rejected(self):
        with pytest.raises(TypeError, match="window"):
            StabilityConfig(window=64)

    def test_positive_counts_required(self):
        with pytest.raises(ConfigError):
            StabilityConfig(trials=0)

    @pytest.mark.parametrize("bad", [-5, 0, 1, 2.5, True])
    def test_sample_grid_entries_are_integers_of_at_least_two(self, bad):
        with pytest.raises(ConfigError, match=rf"^/sample_grid: .* got {bad!r}$"):
            RegressionConfig(sample_grid=(25, bad))

    def test_numpy_integer_sample_grid_accepted(self):
        assert SurrogateConfig(sample_grid=np.array([2, 30])).sample_grid == (2, 30)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"base_spectrum": (-1.0, 1.0, 0.0)}, "/base_spectrum: entries must be >= 0, got [-1.0, 1.0, 0.0]"),
            ({"base_spectrum": (math.nan, 1.0, 0.0)}, "/base_spectrum: entries must be >= 0, got [nan, 1.0, 0.0]"),
            ({"base_spectrum": (math.inf, 1.0, 0.0)}, "/base_spectrum: entries must be finite, got [inf, 1.0, 0.0]"),
            ({"regime_scale": (1.0, 1.0, -2.0)}, "/regime_scale: entries must be >= 0, got [1.0, 1.0, -2.0]"),
            ({"regime_scale": (1.0, math.inf, 1.0)}, "/regime_scale: entries must be finite, got [1.0, inf, 1.0]"),
            # Regime 1's spectrum overflows a double (the CLI probe).
            (
                {"regime_scale": (1e308, 1.0, 1.0), "base_spectrum": (10.0, 1.0, 0.0)},
                "/regime_scale: base_spectrum * regime_scale must be finite, got [10.0, 1.0, 0.0] * [1e+308, 1.0, 1.0]",
            ),
            # A regime-0 covariance would overflow, but the negative scale entry is named first.
            (
                {"base_spectrum": (1e308, 1.0, 0.0), "regime_scale": (-1.0, 1.0, 1.0)},
                "/regime_scale: entries must be >= 0, got [-1.0, 1.0, 1.0]",
            ),
        ],
    )
    def test_discrimination_spectra_are_bounded_by_the_config(self, fields, message):
        with pytest.raises(ConfigError) as info:
            DiscriminationConfig(n_windows=7, **fields)
        assert str(info.value) == message

    def test_entropy_curve_families_are_known_names(self):
        with pytest.raises(ConfigError) as info:
            EntropyCurveConfig(families=("gaussian", "gausian"))
        assert str(info.value) == (
            "/families: entries must be 'gaussian' or 'exponential' or 'gamma', got ['gaussian', 'gausian']"
        )

    def test_numpy_float_betas_accepted(self):
        cfg = StabilityConfig(betas=np.linspace(0.0, 1.0, 3), noise_levels=[np.float32(0.5)])
        assert (cfg.betas, cfg.noise_levels) == ((0.0, 0.5, 1.0), (0.5,))

    @pytest.mark.parametrize("experiment", lab.RUNNERS)
    def test_runner_reads_exactly_its_declared_keys(self, experiment):
        config_class, runner = lab.RUNNERS[experiment]
        declared = {f.name for f in dataclasses.fields(config_class)}
        tiny = {"dim": 4, "n_samples": 6, "trials": 2, "sample_grid": (8, 12), "n_windows": 3, "window": 8,
                "n_informative": 2, "n_train": 10, "n_test": 10}
        cfg = config_class(**{k: v for k, v in tiny.items() if k in declared})

        class Recorder:  # reads through to cfg, noting each key; a key cfg lacks raises AttributeError
            def __init__(self):
                self.read = set()

            def __getattr__(self, key):
                self.read.add(key)
                return getattr(cfg, key)

        recorder = Recorder()
        assert runner(recorder) == runner(cfg)
        assert recorder.read == declared

    @pytest.mark.parametrize("experiment", lab.RUNNERS)
    def test_rows_are_keyed_by_their_params(self, experiment):
        # summary.json groups rows by their params, so two rows of one run must never share them, the replicate
        # (trial or window_index) included.  Betas 1 and 1.0000001 agree to 6 significant digits.
        config_class, runner = lab.RUNNERS[experiment]
        declared = {f.name for f in dataclasses.fields(config_class)}
        tiny = {"dim": 4, "n_samples": 6, "trials": 2, "sample_grid": (8, 12), "n_windows": 3, "window": 8,
                "n_informative": 2, "n_train": 10, "n_test": 10, "betas": (1.0, 1.0000001)}
        table = runner(config_class(**{k: v for k, v in tiny.items() if k in declared}))
        keys = [tuple(sorted(r.params.items())) for r in table_rows(table) if r.params.get("summary") != "auc"]
        assert keys and len(set(keys)) == len(keys)
        assert len(lab.summarize(table)) == len(table)


@pytest.fixture(scope="module")
def stability_records():
    cfg = StabilityConfig(
        dim=20, n_samples=40, trials=100, seed=7,
        betas=(-1.0, -0.1, 0.0, 0.1, 1.0, 5.0),
    )
    return table_rows(run_stability(cfg))


class TestStability:

    def test_zero_beta_rows_are_stable(self, stability_records):
        assert metric_mean(stability_records, "delta_rho_norm", method="density", beta=0.0) <= 1e-13

    def test_monotone_in_abs_beta_within_sign(self, stability_records):
        pos = [metric_mean(stability_records, "delta_rho_norm", method="density", beta=b) for b in (0.1, 1.0, 5.0)]
        assert pos[0] < pos[1] < pos[2]
        neg = [metric_mean(stability_records, "delta_rho_norm", method="density", beta=b) for b in (-0.1, -1.0)]
        assert neg[0] < neg[1]

    def test_negative_beta_dominates_matched_positive(self, stability_records):
        strong_neg = metric_mean(stability_records, "delta_rho_norm", method="density", beta=-1.0)
        strong_pos = metric_mean(stability_records, "delta_rho_norm", method="density", beta=1.0)
        assert strong_neg > strong_pos
        mild_neg = metric_mean(stability_records, "delta_rho_norm", method="density", beta=-0.1)
        mild_pos = metric_mean(stability_records, "delta_rho_norm", method="density", beta=0.1)
        assert mild_neg >= mild_pos - 1e-4

    def test_small_positive_beta_beats_trace_normalized_baseline(self, stability_records):
        baseline = metric_mean(stability_records, "delta_rho_norm", method="trace_normalized")
        assert metric_mean(stability_records, "delta_rho_norm", method="density", beta=0.1) < baseline
        assert metric_mean(stability_records, "delta_rho_norm", method="density", beta=-1.0) > baseline

    def test_bound_recorded_with_ratio(self, stability_records):
        rows = [r for r in stability_records if r.params.get("method") == "density" and r.params.get("beta") == 1.0]
        assert all("bound_value" in r.metrics and "r_ratio" in r.metrics for r in rows)

    def test_positive_beta_bounds_dominate_measured_error(self, stability_records):
        rows = [
            r for r in stability_records
            if r.params.get("method") == "density" and r.params.get("beta", 0.0) > 0.0
        ]
        assert rows
        assert all(r.metrics["bound_value"] >= r.metrics["delta_rho_norm"] for r in rows)

    def test_noise_zero_gives_zero_deltas(self):
        cfg = StabilityConfig(
            dim=6, trials=3, seed=1, betas=(1.0,), noise_levels=(0.0,)
        )
        for r in table_rows(run_stability(cfg)):
            assert r.metrics["delta_c_norm"] <= 1e-15
            assert r.metrics["delta_rho_norm"] <= 1e-12

    def test_large_norm_with_a_tiny_spread(self, monkeypatch):
        # C - s I, a rotated 1e8 I shifted as a matrix, rounds at ||C|| = 1e8.  Its own norm is ~1e-7, whose
        # tolerance is PSD_RTOL, and its smallest computed eigenvalue falls below -PSD_RTOL for seeds 7, 10,
        # 16, 24 and 27.  Stability checks C itself, at its own norm, and shifts only its spectrum, so it
        # accepts every one.
        check, checked = covariance._check_psd, []

        def recording_check(eigenvalues):
            checked.append(np.array(eigenvalues))
            return check(eigenvalues)

        monkeypatch.setattr(covariance, "_check_psd", recording_check)
        failing_alone = []
        for seed in range(30):
            q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((8, 8)))
            cov = covariance.CovarianceMatrix(matrix=(q * 1e8) @ q.T)
            shifted = cov.matrix - np.min(cov._eigenvalues) * np.eye(8)
            lab._stability_responses(cov.matrix, np.zeros((1, 8, 8)), np.zeros(1), (1.0,))
            np.testing.assert_allclose(checked[-1], cov._eigenvalues, rtol=1e-12)  # C's spectrum, not C - s I's
            lam = spectral._eigh(shifted)[0]
            assert abs(lam[0]) <= covariance.PSD_RTOL * 1e8
            try:
                check(lam)
            except ValueError:
                failing_alone.append(seed)
        assert failing_alone == [7, 10, 16, 24, 27]


class TestLipschitz:
    def test_ratio_never_exceeds_one(self):
        cfg = LipschitzConfig(trials=2000, seed=3)
        records = table_rows(run_lipschitz(cfg))
        assert len(records) >= 1900
        max_ratio = max(r.metrics["ratio"] for r in records)
        assert max_ratio <= 1.0 + 1e-9

    def test_matches_public_partition_function_path(self):
        cfg = LipschitzConfig(trials=300, seed=4)
        for r in table_rows(run_lipschitz(cfg)):
            lam1, lam2, beta = r.metrics["lambda1"], r.metrics["lambda2"], r.metrics["beta"]
            t = int(r.params["trial"])
            rng = np.random.default_rng([cfg.seed, t])
            rng.uniform(size=2)
            order = int(rng.integers(1, cfg.max_filter_order + 1))
            spec = filtering.FilterSpec(coeffs=rng.standard_normal(order + 1), beta=beta)
            response = filtering.polynomial_response(
                spec, density.density_operator(np.diag([lam1, lam2]), beta).density_eigenvalues
            )
            diff = abs(response[1] - response[0])
            # run_lipschitz maps the unsorted pair with density_values; this path eigendecomposes
            # diag(lam1, lam2) first, so only roundoff may differ.
            assert r.metrics["response_diff"] == pytest.approx(diff, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("k", [-60, -50, -44, 17, 60])
    def test_eigenvalues_times_two_to_the_k_with_betas_times_two_to_the_minus_k_keep_every_trial(self, k):
        # The responses read beta * lambda only, and the pair skip is relative to the pair's scale, so the scaled
        # draws keep the same trials with the same responses and ratios.  An absolute gap floor of 1e-12 skips
        # every pair once the eigenvalue range is below it.
        base = run_lipschitz(LipschitzConfig(trials=200, seed=6))
        scaled = run_lipschitz(LipschitzConfig(
            trials=200, seed=6, eigenvalue_range=(0.0, 10.0 * 2.0**k), beta_range=(-3.0 * 2.0**-k, 3.0 * 2.0**-k)
        ))
        assert len(base) > 190
        assert scaled.params == base.params
        for name in ("response_diff", "ratio"):
            assert np.array(scaled.metrics[name]).tobytes() == np.array(base.metrics[name]).tobytes()
        assert np.array_equal(np.array(scaled.metrics["lambda1"]), np.array(base.metrics["lambda1"]) * 2.0**k)


class TestSurrogate:
    def test_alignment_improves_with_samples(self):
        cfg = SurrogateConfig(
            dim=8, trials=20, seed=0, sample_grid=(100, 20000)
        )
        records = table_rows(run_surrogate(cfg))
        small = metric_mean(records, "alignment", n_samples=100)
        large = metric_mean(records, "alignment", n_samples=20000)
        assert large >= 0.9
        assert large > small

    def test_large_sample_proxy_alignment(self):
        cfg = SurrogateConfig(
            dim=8, trials=10, seed=2, sample_grid=(100000,)
        )
        records = table_rows(run_surrogate(cfg))
        assert metric_mean(records, "alignment", n_samples=100000) >= 0.95

    def test_constant_filter_is_degenerate(self):
        cfg = SurrogateConfig(
            dim=6, trials=2, seed=1, sample_grid=(200,),
            filter_coeffs=(1.0,),
        )
        records = table_rows(run_surrogate(cfg))
        assert all(r.metrics["degenerate"] == 1.0 for r in records)
        assert all("alignment" not in r.metrics for r in records)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("grid", [(2,), (100,), (2000,)])
    def test_overflowing_population_covariance_is_named_before_the_sample_covariance(self, seed, grid):
        # g >= 1.5e154 on every Laplacian eigenvalue, so g^2 overflows whatever the draw puts in S_w.
        cfg = SurrogateConfig(dim=5, trials=1, seed=seed, sample_grid=grid, filter_coeffs=(1.5e154, 1.0))
        assert error_of(run_surrogate, cfg) == (
            ValueError, "filter_coeffs: the population covariance g(L)^2 overflows a double, got [1.5e+154, 1.0]"
        )

    def test_rank_deficient_sample_covariance_is_degenerate(self):
        # At n <= dim the centred sample covariance has rank at most n - 1 < dim, so rounding alone
        # picks its null-space eigenvectors; those rows are flagged and carry no alignment.
        cfg = SurrogateConfig(dim=8, trials=4, seed=0, sample_grid=(5, 8, 9, 100))
        rows = table_rows(run_surrogate(cfg))
        assert [r.metrics for r in rows if r.params["n_samples"] <= 8] == [{"degenerate": 1.0}] * 8
        full_rank = SurrogateConfig(dim=8, trials=4, seed=0, sample_grid=(9, 100))
        assert [r.metrics for r in rows if r.params["n_samples"] > 8] == [
            r.metrics for r in table_rows(run_surrogate(full_rank))
        ]
        assert all("alignment" in r.metrics for r in rows if r.params["n_samples"] == 100)


class TestHeadline:
    """A runner with a result line states it on its table; the others leave the headline None."""

    def test_lipschitz_keeping_no_trial_has_no_headline(self):
        # A zero-width eigenvalue range draws only ties, each skipped.
        table = run_lipschitz(LipschitzConfig(trials=5, eigenvalue_range=(1.0, 1.0)))
        assert len(table) == 0 and table.headline is None

    def test_lipschitz_headline_is_the_largest_kept_ratio(self):
        table = run_lipschitz(LipschitzConfig(trials=50, seed=2))
        ratios = table.metrics["ratio"]
        assert table.headline == f"max_ratio={max(ratios):.6f} n={len(ratios)}"

    def test_discrimination_headline_is_its_auc_row(self):
        table = run_discrimination(DiscriminationConfig(n_windows=20, window=16, seed=3))
        assert table.params["summary"][-1] == "auc"
        auc_naive, auc_vne = table.metrics["auc_naive"][-1], table.metrics["auc_vne"][-1]
        assert table.headline == f"auc_naive={auc_naive:.4f} auc_vne={auc_vne:.4f}"

    def test_surrogate_names_an_n_with_no_alignment(self):
        # n <= dim (20) flags every row degenerate, with no alignment.
        table = run_surrogate(SurrogateConfig(trials=2, sample_grid=(5, 10)))
        assert table.headline == "mean_alignment n=5:none n=10:none"

    @pytest.mark.parametrize(
        "run, cfg",
        [
            (run_stability, StabilityConfig(dim=4, trials=1, betas=(1.0,), noise_levels=(0.1,))),
            (run_regression, RegressionConfig(dim=6, trials=1, sample_grid=(25,), betas=(1.0,), n_informative=2,
                                              n_test=20)),
            (run_entropy_curve, EntropyCurveConfig(dim=4, trials=1, betas=(0.0, 1.0))),
            (run_betafit_demo, BetafitDemoConfig(dim=4, trials=1)),
        ],
        ids=["stability", "regression", "entropy_curve", "betafit_demo"],
    )
    def test_other_runners_leave_the_headline_unset(self, run, cfg):
        table = run(cfg)
        assert len(table) > 0 and table.headline is None


@pytest.fixture(scope="module")
def regression_records():
    cfg = RegressionConfig(trials=40, seed=5)
    return table_rows(run_regression(cfg))


class TestRegression:

    def test_flat_curves_for_small_beta_without_noise(self, regression_records):
        grid = (25, 50, 100, 250, 1000)
        for beta in (0.1, 1.0):
            curve = [
                metric_mean(regression_records, "mae", noise=0.0, n_cov=float(n), method="density", beta=beta)
                for n in grid
            ]
            spread = (max(curve) - min(curve)) / float(np.mean(curve))
            assert spread <= 0.10

    def test_noise_robustness_of_moderate_betas(self, regression_records):
        raw = metric_mean(regression_records, "mae", noise=5.0, method="raw_covariance")
        for beta in (0.1, 1.0, 5.0):
            assert metric_mean(regression_records, "mae", noise=5.0, method="density", beta=beta) <= raw

    def test_zero_weight_ground_truth_matches_baseline(self):
        cfg = RegressionConfig(
            trials=10, seed=2, n_informative=1, weight_scale=0.0,
            betas=(1.0,), noise_levels=(2.0,), sample_grid=(100,),
        )
        records = table_rows(run_regression(cfg))
        mae = metric_mean(records, "mae", method="density", beta=1.0)
        baseline = metric_mean(records, "baseline_mae", method="density", beta=1.0)
        assert mae == pytest.approx(baseline, rel=0.05)


class TestEntropyCurve:
    def test_curves_monotone_and_bounded(self):
        cfg = EntropyCurveConfig(
            dim=6, n_samples=60, trials=5, seed=4,
            betas=tuple(np.linspace(0.0, 15.0, 11)),
        )
        records = table_rows(run_entropy_curve(cfg))
        for family in ("gaussian", "exponential", "gamma"):
            for trial in range(5):
                curve = [
                    r.metrics["entropy_nats"]
                    for r in records
                    if r.params["family"] == family and r.params["trial"] == trial
                ]
                assert len(curve) == 11
                assert curve[0] == pytest.approx(np.log(6), rel=1e-10)
                assert all(curve[i + 1] <= curve[i] + 1e-9 for i in range(len(curve) - 1))
                assert all(-1e-12 <= v <= np.log(6) + 1e-10 for v in curve)


def on_helper_threads(monkeypatch):
    """Make run_surrogate run each trial t as trial t + 1 of a run whose trial 0 does nothing, so its first trial runs
    on the first helper thread.  Returns a dict that maps each real trial to the thread it ran on."""
    real, threads = lab._concurrent_trials, {}

    def shifted(trial, trials):
        def run(t):
            if t == 0:
                return None
            threads[t - 1] = threading.current_thread()
            return trial(t - 1)

        return real(run, trials + 1)[1:]

    monkeypatch.setattr(lab, "_concurrent_trials", shifted)
    return threads


def error_of(run, cfg):
    try:
        run(cfg)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestDeterminismAndThreads:
    def test_bitwise_reproducible(self):
        cfg = StabilityConfig(dim=5, trials=4, seed=11, betas=(0.5,))
        a = run_stability(cfg)
        b = run_stability(cfg)
        assert a == b

    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_surrogate_is_bitwise_the_same_on_any_worker_count(self, monkeypatch, trials):
        # Grid sizes below, at and past one draw block (3,276 rows at dim 20), and a degenerate n <= dim.
        cfg = SurrogateConfig(trials=trials, seed=4, sample_grid=(15, 300, 3276, 7000))
        monkeypatch.setattr(lab, "_WORKERS", 1)
        serial = repr(run_surrogate(cfg))
        for workers in (2, 3):
            monkeypatch.setattr(lab, "_WORKERS", workers)
            assert repr(run_surrogate(cfg)) == serial

    @pytest.mark.parametrize(
        "fields,error",
        [
            ({"edge_prob": 1e-9}, (GraphGenerationError, "no connected graph in 100 attempts (dim=20, edge_prob=1e-09)")),
            ({"dim": 5, "filter_coeffs": (1.0, 1e308)},
             (ValueError, "filter_coeffs: the filter g(L) overflows a double, got [1.0, 1e+308]")),
            ({"dim": 5, "filter_coeffs": (1e200, 1.0)},
             (ValueError, "filter_coeffs: the population covariance g(L)^2 overflows a double, got [1e+200, 1.0]")),
            ({"dim": 5, "seed": 0, "sample_grid": (2,), "filter_coeffs": (1e154, 0.0)},
             (ValueError, "sample covariance overflows a double")),
            ({"dim": 5, "seed": 6, "sample_grid": (2,), "filter_coeffs": (1.5e154, 1.0)},
             (ValueError, "filter_coeffs: the population covariance g(L)^2 overflows a double, got [1.5e+154, 1.0]")),
        ],
    )
    def test_surrogate_errors_raised_on_a_helper_thread_keep_their_text(self, monkeypatch, fields, error):
        cfg = SurrogateConfig(trials=3, **fields)
        monkeypatch.setattr(lab, "_WORKERS", 1)
        assert error_of(run_surrogate, cfg) == error
        monkeypatch.setattr(lab, "_WORKERS", 3)
        threads = on_helper_threads(monkeypatch)
        assert error_of(run_surrogate, cfg) == error
        assert threading.main_thread() is not threads[0]  # the first trial fails on a helper thread

    @pytest.mark.parametrize("workers,failing,first", [(1, (1, 3), 1), (3, (1, 2, 4), 1), (2, (6, 5), 5)])
    def test_the_lowest_failing_trial_raises(self, monkeypatch, workers, failing, first):
        # Trials below _WORKERS start at once, one on each thread; later ones go to whichever thread is free.
        monkeypatch.setattr(lab, "_WORKERS", workers)
        started = []

        def trial(t):
            started.append(t)
            if t in failing:
                raise ValueError(f"trial {t}")
            return t

        with pytest.raises(ValueError, match=f"^trial {first}$"):
            lab._concurrent_trials(trial, 7)
        if workers == 1:
            assert started == [0, 1]  # no trial starts above a failed one
        assert lab._concurrent_trials(lambda t: t, 7) == list(range(7))

    def test_helper_trials_see_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(lab, "_WORKERS", 3)

        def trial(t):
            return threading.current_thread(), np.geterr()["over"]

        def overflow(t):  # trial 1 overflows, on a helper thread
            return float(np.float64(1e300) * (1e10 if t == 1 else 1.0))

        with np.errstate(over="raise"):
            threads, modes = zip(*lab._concurrent_trials(trial, 3))
            with pytest.raises(FloatingPointError, match="overflow"):
                lab._concurrent_trials(overflow, 3)
        assert modes == ("raise",) * 3
        assert len(set(threads)) == 3 and threads[0] is threading.main_thread()


def stability_oracle(cfg):
    """run_stability rebuilt from the public per-beta API, one decomposition per call."""
    records = []
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, t])
        data = gen_gaussian_data(cfg.dim, cfg.n_samples, "gaussian", seed=[cfg.seed, t, 1])
        cov = sample_covariance(data)
        reg = min_shifted(cov)
        for eps in cfg.noise_levels:
            e = rng.standard_normal((cfg.dim, cfg.dim))
            e = (e + e.T) / 2.0
            dc = eps * e / np.linalg.norm(e, 2)
            perturbed = cov.matrix + dc
            tn_delta = perturbed / np.trace(perturbed) - cov.matrix / np.trace(cov.matrix)
            records.append(
                ({"trial": t, "noise": eps, "method": "trace_normalized"},
                 {"delta_c_norm": np.linalg.norm(dc, 2), "delta_rho_norm": np.linalg.norm(tn_delta, 2)})
            )
            for beta in cfg.betas:
                rho_base = density.density_operator(reg, beta)
                rho_pert = density.density_operator(reg.matrix + dc, beta)
                # The bound's formula on SVD norms and R read from the two operators' Z.
                ratio = math.exp(rho_pert.log_partition) / math.exp(rho_base.log_partition)
                norms = [np.linalg.norm(m, 2) for m in (reg.matrix, reg.matrix + dc, dc)]
                records.append(
                    ({"trial": t, "noise": eps, "method": "density", "beta": beta},
                     {
                         "delta_c_norm": norms[2],
                         "delta_rho_norm": np.linalg.norm(dense_rho(rho_pert) - dense_rho(rho_base), 2),
                         "bound_value": density._error_bound(beta, cfg.dim, *norms, ratio),
                         "r_ratio": ratio,
                     })
                )
    return records


def per_noise_level_stability(cfg):
    """run_stability as a loop, one noise level at a time: one eigh per matrix, each spectrum shifted by
    C's smallest eigenvalue, and one stacked eigvalsh per noise level.  Yields (params, metrics) per row."""
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, t])
        data = gen_gaussian_data(cfg.dim, cfg.n_samples, "gaussian", seed=[cfg.seed, t, 1])
        cov = sample_covariance(data)
        base = spectral.eigh(cov.matrix)
        lam_min = base.eigenvalues[0]
        values_base, log_z_base = density.density_values(base.eigenvalues - lam_min, cfg.betas)
        rho_base = spectral_matrix(base, values_base)
        norm_base = spectral._norm(base.eigenvalues - lam_min)
        tn_base = cov.matrix / np.trace(cov.matrix)
        for eps in cfg.noise_levels:
            e = rng.standard_normal((cfg.dim, cfg.dim))
            e = (e + e.T) / 2.0
            norm_dc = eps  # the norm dC is built with
            dc = eps * e / spectral._norm(np.linalg.eigvalsh(e))
            perturbed = cov.matrix + dc
            pert = spectral.eigh(perturbed)
            rho_pert, log_z_pert = density.density_values(pert.eigenvalues - lam_min, cfg.betas)
            norm_pert = spectral._norm(pert.eigenvalues - lam_min)
            deltas = [perturbed / np.trace(perturbed) - tn_base]
            deltas.extend(spectral_matrix(pert, rho_pert) - rho_base)
            norm_tn, *norm_rho = spectral._norm(np.linalg.eigvalsh(deltas))
            yield (
                {"trial": t, "noise": eps, "method": "trace_normalized"},
                {"delta_c_norm": norm_dc, "delta_rho_norm": norm_tn},
            )
            for i, beta in enumerate(cfg.betas):
                ratio = density._exp("Z'/Z", log_z_pert[i] - log_z_base[i])
                bound = density._error_bound(beta, cfg.dim, norm_base, norm_pert, norm_dc, ratio)
                yield {"trial": t, "noise": eps, "method": "density", "beta": beta}, {
                    "delta_c_norm": norm_dc,
                    "delta_rho_norm": norm_rho[i],
                    "bound_value": bound,
                    "r_ratio": ratio,
                }


def per_item_entropy_curve(cfg):
    """run_entropy_curve as it was, one (trial, family) covariance at a time."""
    for t in range(cfg.trials):
        for fam_idx, family in enumerate(cfg.families):
            data = gen_gaussian_data(cfg.dim, cfg.n_samples, family, seed=[cfg.seed, t, fam_idx])
            eigenvalues = sample_covariance(data)._eigenvalues
            rho, _ = density.density_values(eigenvalues, cfg.betas)
            for beta, nats in zip(cfg.betas, entropy._shannon_nats(rho)):
                metrics = {"entropy_nats": nats, "entropy_bits": nats / math.log(2.0)}
                yield {"trial": t, "family": family, "beta": beta}, metrics


def per_item_surrogate(cfg):
    """run_surrogate as it was, one (trial, n) at a time: the generated data, its checked sample covariance,
    one eigh per matrix and the per-item matching.  Yields (params, degenerate, alignment, tolerance) per row.

    The tolerance bounds how far the alignment may move when the covariance is instead formed in L's
    eigenbasis V, as diag(g) V^T S_w V diag(g) with g evaluated on L's computed spectrum.  Both ways round the
    same exact matrix with sums of at most n (the Gram products) and d (each product with g(L) here, with V
    there, whose backward error on L moves g alike) terms, so to first order entrywise |dC| <= (n + 2d) eps
    ||g||^2 ||S_w|| and, with ||g||^2 ||S_w|| <= kappa(g)^2 ||C||, ||dC|| <= d (n + 2d) eps kappa(g)^2 ||C||.  By Davis-Kahan each eigenvector then moves
    by at most 2 ||dC|| / gap, with gap the smallest eigengap of C, and so does the mean |<u_i, v_i>|.
    """
    eps = np.finfo(float).eps
    spec = filtering.FilterSpec(coeffs=cfg.filter_coeffs, beta=0.0)
    for t in range(cfg.trials):
        for n in cfg.sample_grid:
            data, laplacian = gen_graph_stationary(cfg.dim, n, cfg.edge_prob, cfg.filter_coeffs, seed=[cfg.seed, t, n])
            dl, dc = spectral.eigh(laplacian), spectral.eigh(sample_covariance(data).matrix)
            scores = filtering.polynomial_response(spec, dl.eigenvalues) ** 2
            order = np.argsort(scores, kind="stable")
            tie = np.any(np.diff(scores[order]) < 1e-9 * max(1.0, float(np.max(np.abs(scores)))))
            degenerate = n <= cfg.dim or bool(tie)  # a rank-deficient sample covariance or a population tie
            alignment = float(np.mean(np.abs(np.sum(dl.eigenvectors[:, order] * dc.eigenvectors, axis=0))))
            lam = dc.eigenvalues
            norm_dc = cfg.dim * (n + 2 * cfg.dim) * eps * (scores.max() / scores.min()) * lam[-1]
            yield {"trial": t, "n_samples": n}, degenerate, alignment, 2 * norm_dc / np.diff(lam).min()


def reference_regression_draws(cfg, t, noise):
    """One noise level's train/test sets and covariance pool, drawn in the order run_regression draws them."""
    grid = cfg.sample_grid or (25, 50, 100, 250, 1000)
    rng = np.random.default_rng([cfg.seed, t, int(round(noise * 1000))])
    weights = np.zeros(cfg.dim)
    support = rng.choice(cfg.dim, cfg.n_informative, replace=False)
    weights[support] = rng.normal(0.0, cfg.weight_scale, cfg.n_informative)
    x_train = rng.standard_normal((cfg.n_train, cfg.dim))
    y_train = x_train @ weights + rng.normal(0.0, noise, cfg.n_train)
    x_test = rng.standard_normal((cfg.n_test, cfg.dim))
    y_test = x_test @ weights + rng.normal(0.0, noise, cfg.n_test)
    pool = rng.standard_normal((max(max(grid), cfg.dim + 1), cfg.dim))
    return x_train, y_train, x_test, y_test, pool


def reference_regression(cfg):
    """run_regression as it was, one covariance at a time: each method's dense transform
    multiplies both feature sets, and a dense ridge solve fits them.  Yields (params, mae, baseline)."""
    betas = cfg.betas or (0.1, 1.0, 5.0, 15.0)
    for t in range(cfg.trials):
        for noise in cfg.noise_levels or (0.0, 5.0):
            x_train, y_train, x_test, y_test, pool = reference_regression_draws(cfg, t, noise)
            y_bar = float(np.mean(y_train))
            baseline = float(np.mean(np.abs(y_test - y_bar)))
            for n_cov in cfg.sample_grid or (25, 50, 100, 250, 1000):
                cov_tn = trace_normalize(sample_covariance(DataMatrix(pool[:n_cov])))
                decomp = spectral.eigh(cov_tn.matrix)
                transforms = {("raw_covariance", None): cov_tn.matrix}
                for beta in betas:
                    rho, log_z = density.density_values(decomp.eigenvalues, (beta,))
                    shifted = spectral_matrix(decomp, rho[0] - math.exp(-log_z[0]))
                    transforms[("density", beta)] = shifted
                for (name, beta), transform in transforms.items():
                    z_train, z_test = x_train @ transform, x_test @ transform
                    gram = z_train.T @ z_train + cfg.ridge * cfg.n_train * np.eye(cfg.dim)
                    coef = np.linalg.solve(gram, z_train.T @ (y_train - y_bar))
                    mae = float(np.mean(np.abs(z_test @ coef + y_bar - y_test)))
                    method = {"method": name} if beta is None else {"method": name, "beta": beta}
                    yield {"trial": t, "noise": noise, "n_cov": n_cov, **method}, mae, baseline


def assert_rows_equal(table, expected):
    """The table's rows equal (params, metrics) pairs, metrics bit for bit and numeric params as floats."""
    expected = list(expected)
    got = table_rows(table)
    assert [r.params for r in got] == [
        {k: v if isinstance(v, str) else float(v) for k, v in p.items()} for p, _ in expected
    ]
    assert [{k: v.hex() for k, v in r.metrics.items()} for r in got] == [
        {k: float(v).hex() for k, v in m.items()} for _, m in expected
    ]


class TestStackedStages:
    """Each stacked stage against the per-item loop it replaced, kept here as the reference."""

    @pytest.mark.parametrize(
        "cfg",
        [
            StabilityConfig(
                dim=7, trials=3, seed=5,
                betas=(-1.0, -0.1, 0.0, 0.1, 1.0, 5.0), noise_levels=(0.01, 0.05, 0.2),
            ),
            StabilityConfig(dim=3, trials=2, seed=9, betas=(2.0,), noise_levels=(0.5,)),
            # Fewer samples than dim: a singular covariance.
            StabilityConfig(
                dim=12, n_samples=8, trials=2, seed=0, betas=(-0.5, 3.0),
                noise_levels=(0.01, 0.05, 0.1, 0.2, 0.5),
            ),
        ],
    )
    def test_stability_matches_per_noise_level_loop(self, cfg):
        assert_rows_equal(run_stability(cfg), per_noise_level_stability(cfg))

    @pytest.mark.parametrize(
        "cfg",
        [
            EntropyCurveConfig(dim=6, trials=3, seed=3, betas=(0.0, 0.5, 3.0, 12.0)),
            EntropyCurveConfig(dim=20, n_samples=10, trials=2, seed=8, betas=(-2.0, 1e3)),
            EntropyCurveConfig(
                dim=4, trials=2, seed=1, betas=(1.0,), families=("gamma", "gaussian")
            ),
        ],
    )
    def test_entropy_curve_matches_per_item_loop(self, cfg):
        assert_rows_equal(run_entropy_curve(cfg), per_item_entropy_curve(cfg))

    @pytest.mark.parametrize(
        "cfg",
        [
            SurrogateConfig(dim=8, trials=5, seed=0, sample_grid=(100, 2000)),
            # A decreasing filter reverses the matching order; edge_prob 0.8 gives ties (degenerate rows).
            SurrogateConfig(
                dim=6, trials=4, seed=3, sample_grid=(50, 300),
                filter_coeffs=(2.0, -0.1), edge_prob=0.8,
            ),
            SurrogateConfig(dim=5, trials=2, seed=1, sample_grid=(40,), filter_coeffs=(1.0,)),
            # At n <= dim the sample covariance is singular (degenerate rows).
            SurrogateConfig(dim=8, trials=3, seed=2, sample_grid=(5, 100)),
        ],
    )
    def test_surrogate_matches_per_item_loop(self, cfg):
        rows = table_rows(run_surrogate(cfg))
        expected = list(per_item_surrogate(cfg))
        assert [r.params for r in rows] == [{k: float(v) for k, v in p.items()} for p, *_ in expected]
        assert [r.metrics["degenerate"] for r in rows] == [float(d) for _, d, _, _ in expected]
        for r, (_, degenerate, alignment, tolerance) in zip(rows, expected):
            if degenerate:
                assert "alignment" not in r.metrics
            else:
                assert abs(r.metrics["alignment"] - alignment) <= tolerance

    def test_discrimination_table_lists_every_window_then_the_aucs(self):
        cfg = DiscriminationConfig(n_windows=20, window=16, seed=5, beta=1.5)
        naive, vne = window_by_window(16, 20, 1.5, cfg.regime_scale, cfg.base_spectrum, 5)
        expected = [
            ({"window_index": w, "regime": regime}, {"s_naive_bits": naive[regime, w], "s_vne_bits": vne[regime, w]})
            for regime in (0, 1)
            for w in range(20)
        ]
        aucs = {"auc_naive": entropy.threshold_auc(*naive), "auc_vne": entropy.threshold_auc(*vne)}
        expected.append(({"summary": "auc"}, aucs))
        assert_rows_equal(run_discrimination(cfg), expected)

    @pytest.mark.parametrize(
        "cfg",
        [
            RegressionConfig(
                dim=6, trials=3, seed=11, betas=(0.5, 3.0, 40.0),
                noise_levels=(0.0, 1.5, 7.0), sample_grid=(8, 30, 120), n_test=60,
            ),
            # A grid point below dim gives a rank-deficient covariance; negative beta, other ridge.
            RegressionConfig(
                dim=12, trials=2, seed=4, betas=(-2.0, 0.25),
                noise_levels=(2.5,), sample_grid=(5, 200), n_train=40, n_test=90, ridge=1e-3,
                n_informative=3,
            ),
        ],
    )
    def test_regression_matches_per_covariance_reference(self, cfg):
        records = table_rows(run_regression(cfg))
        expected = list(reference_regression(cfg))
        assert [r.params for r in records] == [
            {k: v if isinstance(v, str) else float(v) for k, v in p.items()} for p, _, _ in expected
        ]
        assert [r.metrics["baseline_mae"] for r in records] == [baseline for _, _, baseline in expected]
        # The shared-eigenbasis solve reorders the arithmetic of the dense per-method fits.
        np.testing.assert_allclose(
            [r.metrics["mae"] for r in records], [mae for _, mae, _ in expected], rtol=1e-12, atol=0.0
        )


def first_error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def break_exponential_covariances(monkeypatch):
    """Make the exponential family's covariances (all-positive data) non-PSD."""
    original = covariance._covariance_array

    def broken(x):
        c = original(x)
        positive = np.all(x > 0, axis=(-2, -1))[..., None, None]
        return np.where(positive, c - (1.0 + c[..., :1, :1]) * np.eye(c.shape[-1]), c)

    monkeypatch.setattr(covariance, "_covariance_array", broken)


class TestStackedErrorOrder:
    """A stacked stage runs each check over the whole stack, and the first check that fails
    raises for its first failing item.  Where one check fails, that is what the per-item loop
    raises first; where items fail different checks, the earlier check wins."""

    def test_stability_maps_every_density_before_any_bound(self):
        # The first noise level's error bound overflows, and beta * lambda overflows only for
        # the largest perturbation.  The per-noise-level loop meets the bound first; the stack
        # maps every density before it forms any bound.
        cfg = StabilityConfig(
            dim=2, trials=1, seed=3, betas=(-1e308,), noise_levels=(1e-3, 5.0)
        )
        earlier = dataclasses.replace(cfg, noise_levels=(1e-3,))
        assert first_error(run_stability, earlier)[1].startswith("Z'/Z = exp(")
        assert first_error(lambda: list(per_noise_level_stability(cfg)))[1].startswith("Z'/Z = exp(")
        got = first_error(run_stability, cfg)
        assert got[0] is BetaRangeError and got[1].startswith("beta * lambda overflows a double at beta = -1e+308,")

    def test_stability_overflowing_bound_names_beta_and_norm(self):
        cfg = StabilityConfig(
            dim=4, trials=1, seed=0, betas=(1.0, -400.0), noise_levels=(0.01, 0.1)
        )
        got = first_error(run_stability, cfg)
        assert got == first_error(lambda: list(per_noise_level_stability(cfg)))
        assert got[0] is BetaRangeError and got[1].startswith("density error bound overflows a double at beta = -400,")

    def test_entropy_curve_draws_every_item_before_any_check(self):
        # The first item's beta * lambda overflows; the second item cannot be drawn.  The config names an unknown
        # family as it is built, so the family is set past that check to reach gen_gaussian_data's own.
        cfg = EntropyCurveConfig(
            dim=5, trials=2, seed=1, betas=(-1.7e308,), families=("gaussian", "gamma")
        )
        object.__setattr__(cfg, "families", ("gaussian", "bogus"))
        assert first_error(lambda: list(per_item_entropy_curve(cfg)))[0] is BetaRangeError
        assert first_error(run_entropy_curve, cfg) == first_error(gen_gaussian_data, cfg.dim, cfg.n_samples, "bogus")

    @pytest.mark.parametrize("betas, message", [((1.0,), "matrix is not PSD")])
    def test_entropy_curve_first_failing_item_raises_its_own_error(self, monkeypatch, betas, message):
        break_exponential_covariances(monkeypatch)
        cfg = EntropyCurveConfig(
            dim=5, trials=2, seed=1, betas=betas, families=("gaussian", "exponential")
        )
        got = first_error(run_entropy_curve, cfg)
        assert got == first_error(lambda: list(per_item_entropy_curve(cfg)))
        assert got[1].startswith(message)

    def test_entropy_curve_psd_check_runs_before_the_density_map(self, monkeypatch):
        # The first item's beta * lambda overflows (its lambda_max is 1.38); the second item
        # is not PSD.  The per-item loop meets the overflow first.
        break_exponential_covariances(monkeypatch)
        cfg = EntropyCurveConfig(
            dim=5, trials=2, seed=1, betas=(-1.7e308,), families=("gaussian", "exponential")
        )
        assert first_error(lambda: list(per_item_entropy_curve(cfg)))[1].startswith("beta * lambda overflows a double")
        got = first_error(run_entropy_curve, cfg)
        assert got == first_error(run_entropy_curve, dataclasses.replace(cfg, betas=(1.0,)))
        assert got[0] is ValueError and got[1].startswith("matrix is not PSD")

    @pytest.mark.parametrize("not_psd_n, zero_trace_n", [(40, None), (None, 80), (40, 80)])
    def test_regression_trace_check_runs_before_the_psd_check(self, monkeypatch, not_psd_n, zero_trace_n):
        # Alone, each fault raises what the per-covariance reference raises first.  Together,
        # the stack's zero-trace check runs first and wins over the earlier non-PSD covariance.
        cfg = RegressionConfig(
            dim=5, trials=2, seed=3, betas=(1.0,),
            noise_levels=(0.0, 2.0), sample_grid=(20, 40, 80), n_test=30,
        )
        original = covariance._covariance_array
        corner = np.zeros((cfg.dim, cfg.dim))
        corner[0, 0] = 1.0

        def broken(x):
            c = original(x)
            if x.shape[-2] == not_psd_n:
                return c - (1.0 + c[..., :1, :1]) * corner  # C_00 = -1 with a positive trace; not PSD
            if x.shape[-2] == zero_trace_n:
                return np.zeros_like(c)
            return c

        monkeypatch.setattr(covariance, "_covariance_array", broken)
        got = first_error(run_regression, cfg)
        expected = first_error(lambda: [list(p) for p, _, _ in reference_regression(cfg)])
        if not_psd_n and zero_trace_n:
            assert expected[1].startswith("matrix is not PSD")
            assert got == (DegenerateCovarianceError, "trace 0.000e+00 too small to normalize")
        else:
            assert got == expected


def one_shot_white_covariance(rng, n, dim):
    """The white-noise covariance as run_surrogate formed it from one ``(n, dim)`` draw: centred once, one Gram."""
    w = rng.standard_normal((n, dim))
    w -= w.mean(axis=0)
    return w.T @ w / n


def gram_and_sum_white_covariance(rng, n, dim):
    """The white-noise covariance from one ``(n, dim)`` draw's Gram and column sums: G / n - mu mu^T."""
    w = rng.standard_normal((n, dim))
    mean = w.sum(axis=0) / n
    return w.T @ w / n - np.outer(mean, mean)


def all_at_once_discrimination(cfg):
    """run_discrimination's scores as they were formed: every window drawn into one (2, n_windows, window, m)
    array, scaled, checked for finiteness and reduced to covariances at once.  Returns (naive, vne), each
    shaped (2, n_windows).  Its overflow and NaN warnings are silenced; only outputs and first errors count."""
    base, scale = np.asarray(cfg.base_spectrum, dtype=float), np.asarray(cfg.regime_scale, dtype=float)
    samples = np.empty((2, cfg.n_windows, cfg.window, base.size))
    for regime, w in itertools.product((0, 1), range(cfg.n_windows)):
        np.random.default_rng([cfg.seed, regime, w]).standard_normal(out=samples[regime, w])
    with np.errstate(over="ignore", invalid="ignore"):
        samples *= np.sqrt(np.stack([base, base * scale]))[:, None, None, :]
    if not np.all(np.isfinite(samples)):
        raise ValueError("data matrix contains non-finite entries")
    return entropy._window_entropies(covariance._covariance_array(samples), cfg.beta)


def traced_peak_bytes(run, cfg):
    """Peak traced allocation (bytes, above what was held before) of ``run(cfg)``, after one warm-up run."""
    run(cfg)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        run(cfg)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


class TestDrawBlocks:
    """Draws that grow with a sample size pass through one block of at most lab._DRAW_BLOCK doubles, and a
    run's working set does not grow with its trial count."""

    @pytest.mark.parametrize("dim", [1, 20])
    @pytest.mark.parametrize("n", [2, 3, "rows - 1", "rows", "rows + 1", 20000])
    def test_white_covariance_matches_the_one_shot_draw(self, dim, n):
        """With one block the blocked form and the one-shot Gram-and-sum oracle are the same operations, bit for
        bit.  Against the centred one-shot oracle, with Q_ii = sum_r x_ri^2 / n, gamma_k = k eps / (1 - k eps)
        (Higham, Accuracy and Stability, Lemma 3.1) and B blocks: the blocked form computes S_w = G / n - mu mu^T.
        G's n products each pass through at most n + B + 2 roundings (the product, the sums within and across
        blocks, the division, the subtraction) and their absolute values sum, by Cauchy-Schwarz, to at most
        n sqrt(Q_ii Q_jj); mu_i mu_j = s_i s_j / n^2 is a sum of n^2 products, each through at most 2n + 2B + 2
        roundings, whose absolute values sum to at most sqrt(Q_ii Q_jj) (sum_r |x_ri| <= n sqrt(Q_ii)).  So it lies
        within 2 gamma_{2n + 2B + 2} sqrt(Q_ii Q_jj) <= 4 gamma_k sqrt(Q_ii Q_jj) of the exact S_w, k = n + 4B + 4.
        The centred oracle's entries are sums of at most n + 8 rounded terms (the Gram sums, the means, the
        centring) whose absolute values sum to at most 4 n sqrt(Q_ii Q_jj) (|x - mu| <= |x| + |mu| and
        n mu^2 <= sum x^2), so it lies within 4 gamma_k sqrt(Q_ii Q_jj) too, and the two within twice that."""
        rows = lab._DRAW_BLOCK // dim
        n = {"rows - 1": rows - 1, "rows": rows, "rows + 1": rows + 1}.get(n, n)
        blocked_rng, one_shot_rng = np.random.default_rng([7, dim, n]), np.random.default_rng([7, dim, n])
        got = lab._white_covariance(blocked_rng, n, dim)
        one_shot = gram_and_sum_white_covariance(one_shot_rng, n, dim)
        # Row blocks consume the generator as the one (n, dim) draw does.
        assert blocked_rng.bit_generator.state == one_shot_rng.bit_generator.state
        if n <= rows:
            assert got.tobytes() == one_shot.tobytes()
        expected = one_shot_white_covariance(np.random.default_rng([7, dim, n]), n, dim)
        x = np.random.default_rng([7, dim, n]).standard_normal((n, dim))
        q = np.sqrt(np.mean(x * x, axis=0))
        k = n + 4 * -(-n // rows) + 4
        eps = np.finfo(float).eps
        tolerance = 8 * (k * eps / (1 - k * eps)) * np.outer(q, q)
        assert np.all(np.abs(got - expected) <= tolerance)

    def test_working_set_is_bounded(self):
        surrogate = {
            n: traced_peak_bytes(run_surrogate, SurrogateConfig(trials=1, sample_grid=(n,)))
            for n in (20000, 200000)
        }
        discriminate = traced_peak_bytes(run_discrimination, DiscriminationConfig())
        entropy_curve = traced_peak_bytes(run_entropy_curve, EntropyCurveConfig(trials=20))
        assert max(*surrogate.values(), discriminate, entropy_curve) < 1.5e6
        # The whole (200000, 20) draw alone would be 32 MB; allow 64 KB (an eighth of a block) of unrelated noise.
        assert surrogate[200000] <= surrogate[20000] + lab._DRAW_BLOCK
        # A regression trial's arrays (its pools, system, predictions and basis: about 0.6 MB at the defaults)
        # are freed before the next trial draws, so the peak grows with trials only by the kept metrics, 52
        # floats a trial; allow the same 64 KB.  Bounding trials=20 by trials=1 also bounds it by trials=2.
        regression = {
            t: traced_peak_bytes(run_regression, RegressionConfig(trials=t))
            for t in (1, 2, 20)
        }
        assert max(regression[2], regression[20]) <= regression[1] + lab._DRAW_BLOCK

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"n_windows": 1},
            {"n_windows": 7},
            {"window": 1000},
            {"n_windows": 7, "base_spectrum": (1e308, 1.0, 0.0)},
        ],
    )
    def test_discrimination_matches_the_all_at_once_draw(self, fields):
        cfg = DiscriminationConfig(seed=3, **fields)
        try:
            naive, vne = all_at_once_discrimination(cfg)
        except ValueError as exc:
            assert first_error(run_discrimination, cfg) == (type(exc), str(exc))
            return
        expected = [
            ({"window_index": w, "regime": regime}, {"s_naive_bits": naive[regime, w], "s_vne_bits": vne[regime, w]})
            for regime in (0, 1)
            for w in range(cfg.n_windows)
        ]
        expected.append(({"summary": "auc"}, {"auc_naive": entropy.threshold_auc(*naive),
                                              "auc_vne": entropy.threshold_auc(*vne)}))
        assert_rows_equal(run_discrimination(cfg), expected)


class TestDecomposeOnce:
    def test_stability_matches_public_api_oracle(self):
        cfg = StabilityConfig(
            dim=7, trials=3, seed=5,
            betas=(-1.0, -0.1, 0.0, 0.1, 1.0, 5.0), noise_levels=(0.01, 0.2),
        )
        records = table_rows(run_stability(cfg))
        expected = stability_oracle(cfg)
        assert [r.params for r in records] == [
            {k: float(v) if not isinstance(v, str) else v for k, v in params.items()}
            for params, _ in expected
        ]
        for name in ("delta_c_norm", "delta_rho_norm", "bound_value", "r_ratio"):
            got = np.array([r.metrics[name] for r in records if name in r.metrics])
            want = np.array([metrics[name] for _, metrics in expected if name in metrics])
            # The beta = 0 responses are pure roundoff (~1e-16), so entries are
            # also held to 1e-12 of the largest value of the same metric.
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        return count_linalg_calls(monkeypatch, "eigh")

    def test_stability_decomposes_once_per_matrix(self, eigh_calls):
        cfg = StabilityConfig(
            dim=5, trials=2, seed=1,
            betas=(-1.0, 0.0, 2.0), noise_levels=(0.1, 0.2, 0.3),
        )
        run_stability(cfg)
        # Per trial, one stack: C, then one perturbation per noise level.
        assert eigh_calls == [(1 + len(cfg.noise_levels), 5, 5)] * cfg.trials
        assert eigh_calls.matrices == cfg.trials * (1 + len(cfg.noise_levels))

    def test_entropy_curve_decomposes_once_per_family(self, eigh_calls):
        cfg = EntropyCurveConfig(dim=5, trials=2, seed=1, betas=(0.0, 1.0, 4.0))
        run_entropy_curve(cfg)
        # Each covariance's one decomposition is its PSD check (an eigvalsh,
        # counted below); no eigh is needed on top of it.
        assert eigh_calls == []

    def test_entropy_curve_range_error_names_the_first_failing_beta(self):
        # The first family's lambda_max is 1.38, so both negative betas overflow beta * lambda.
        cfg = EntropyCurveConfig(dim=5, trials=1, seed=1, betas=(1e4, -1.5e308, -1.7e308))
        data = gen_gaussian_data(cfg.dim, cfg.n_samples, cfg.families[0], seed=[cfg.seed, 0, 0])
        with pytest.raises(BetaRangeError) as expected:
            entropy.cvne(sample_covariance(data), -1.5e308)
        with pytest.raises(BetaRangeError) as got:
            run_entropy_curve(cfg)
        assert str(got.value) == str(expected.value)

    def test_entropy_curve_matches_cvne_bit_for_bit(self):
        cfg = EntropyCurveConfig(dim=6, trials=2, seed=3, betas=(0.0, 0.5, 3.0, 12.0))
        records = iter(table_rows(run_entropy_curve(cfg)))
        for t in range(cfg.trials):
            for fam_idx, family in enumerate(cfg.families):
                data = gen_gaussian_data(cfg.dim, cfg.n_samples, family, seed=[cfg.seed, t, fam_idx])
                cov = sample_covariance(data)
                for beta in cfg.betas:
                    # cvne reads the spectrum the CovarianceMatrix check computed.
                    report = entropy.cvne(cov, beta)
                    r = next(records)
                    assert r.params == {"trial": t, "family": family, "beta": beta}
                    assert r.metrics == {"entropy_nats": report.entropy_nats, "entropy_bits": report.entropy_bits}

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        return count_linalg_calls(monkeypatch, "eigvalsh")

    def test_stability_norms_from_one_stacked_eigvalsh_per_trial(self, monkeypatch, eigvalsh_calls):
        svd_calls, norm_calls = count_linalg_calls(monkeypatch, "svd"), count_linalg_calls(monkeypatch, "norm")
        cfg = StabilityConfig(
            dim=5, trials=2, seed=1,
            betas=(-1.0, 0.0, 2.0), noise_levels=(0.1, 0.2, 0.3),
        )
        run_stability(cfg)
        # Per trial: the noise draws' norms, then one stack holding, per noise level, the
        # trace-normalized delta and each beta's delta.  C is checked on the eigh spectra
        # counted above, and dC's norm is the one it was built with.
        per_trial = [(len(cfg.noise_levels), 5, 5), (len(cfg.noise_levels), 1 + len(cfg.betas), 5, 5)]
        assert eigvalsh_calls == per_trial * cfg.trials
        assert eigvalsh_calls.matrices == cfg.trials * len(cfg.noise_levels) * (2 + len(cfg.betas))
        assert svd_calls == [] and norm_calls == []

    def test_default_stability_trial_decomposes_46_matrices(self, eigh_calls, eigvalsh_calls):
        run_stability(StabilityConfig(trials=1))
        # eigvalsh of the 5 noise draws, eigh of C and its 5 perturbations, eigvalsh of 5 x (1 + 6) deltas.
        assert (eigvalsh_calls.matrices, eigh_calls.matrices) == (5 + 35, 6)

    def test_entropy_curve_reuses_the_validated_spectrum(self, eigvalsh_calls):
        cfg = EntropyCurveConfig(dim=5, trials=2, seed=1, betas=(0.0, 1.0, 4.0))
        run_entropy_curve(cfg)
        # The sample covariances' PSD check, one stack over the run, whose spectra the density map reads.
        stack = (cfg.trials * len(cfg.families), 5, 5)
        assert eigvalsh_calls == [stack]
        assert eigvalsh_calls.matrices == cfg.trials * len(cfg.families)

    def test_surrogate_decomposes_each_trial_in_two_stacks(self, eigvalsh_calls, eigh_calls):
        cfg = SurrogateConfig(dim=5, trials=3, seed=1, sample_grid=(20, 50, 200))
        run_surrogate(cfg)
        # Per trial: its Laplacians, then its sample covariances in their bases; the PSD check reads the eigh spectra.
        assert eigh_calls == [(len(cfg.sample_grid), 5, 5)] * 2 * cfg.trials
        assert eigh_calls.matrices == 2 * len(cfg.sample_grid) * cfg.trials
        assert eigvalsh_calls == []

    def test_lipschitz_decomposes_nothing(self, eigvalsh_calls, eigh_calls):
        run_lipschitz(LipschitzConfig(trials=50, seed=2))
        assert eigvalsh_calls == [] and eigh_calls == []

    def test_betafit_demo_reuses_the_validated_spectrum(self, eigvalsh_calls):
        cfg = BetafitDemoConfig(dim=5, trials=2, seed=1, noise_levels=(0.1, 0.3))
        run_betafit_demo(cfg)
        # Per trial: the sample covariance's PSD check, whose spectrum is the
        # clean target, then per noise level the noise draw's norm and the noisy spectrum.
        assert eigvalsh_calls == ([(5, 5)] + [(1, 5, 5), (5, 5)] * len(cfg.noise_levels)) * cfg.trials

    def test_regression_decomposes_once_per_covariance(self, eigh_calls):
        cfg = RegressionConfig(
            dim=5, trials=2, seed=1, betas=(0.1, 1.0, 5.0),
            noise_levels=(0.0, 2.0), sample_grid=(25, 50, 75), n_test=50,
        )
        run_regression(cfg)
        # One stacked eigh per trial, over its (noise level, grid point) covariances.
        stack = (len(cfg.noise_levels), len(cfg.sample_grid), cfg.dim, cfg.dim)
        assert eigh_calls == [stack] * cfg.trials
        assert eigh_calls.matrices == cfg.trials * len(cfg.noise_levels) * len(cfg.sample_grid)
