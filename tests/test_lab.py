import numpy as np
import pytest

from covdensity import density
from covdensity.covariance import gen_gaussian_data, sample_covariance, shift_regularize
from covdensity.errors import ConfigError
from covdensity.lab import (
    ExperimentConfig,
    TrialRecord,
    records_from_csv,
    records_to_csv,
    run_entropy_curve,
    run_experiment,
    run_lipschitz,
    run_regression,
    run_stability,
    run_surrogate,
    summarize,
)
from covdensity.spectral import operator_norm


def metric_mean(records, metric, **param_filter):
    vals = [
        r.metrics[metric]
        for r in records
        if metric in r.metrics and all(r.params.get(k) == v for k, v in param_filter.items())
    ]
    assert vals, f"no records matched {param_filter}"
    return float(np.mean(vals))


class TestRecords:
    def test_metrics_must_be_finite(self):
        with pytest.raises(ValueError):
            TrialRecord(experiment="x", seed=0, params={}, metrics={"a": np.inf})

    def test_csv_round_trip_exact(self, tmp_path):
        records = [
            TrialRecord(
                experiment="demo", seed=3,
                params={"trial": 0, "method": "density", "beta": -0.1},
                metrics={"value": 1.0 / 3.0, "other": 1e-17},
            ),
            TrialRecord(
                experiment="demo", seed=3,
                params={"trial": 1, "method": "trace_normalized"},
                metrics={"value": 2.5},
            ),
        ]
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        assert records_from_csv(path) == records

    def test_summarize_groups_by_params(self):
        records = [
            TrialRecord(experiment="e", seed=0, params={"m": "a"}, metrics={"v": 1.0}),
            TrialRecord(experiment="e", seed=0, params={"m": "a"}, metrics={"v": 3.0}),
            TrialRecord(experiment="e", seed=0, params={"m": "b"}, metrics={"v": 10.0}),
        ]
        summary = summarize(records)
        assert summary["m=a"]["v"] == pytest.approx(2.0)
        assert summary["m=b"]["v"] == pytest.approx(10.0)
        assert summary["m=a"]["n_records"] == 2


class TestConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nope")

    def test_positive_counts_required(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="stability", trials=0)


@pytest.fixture(scope="module")
def stability_records():
    cfg = ExperimentConfig(
        experiment="stability", dim=20, n_samples=40, trials=100, seed=7,
        betas=(-1.0, -0.1, 0.0, 0.1, 1.0, 5.0),
    )
    return run_stability(cfg)


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
        cfg = ExperimentConfig(
            experiment="stability", dim=6, trials=3, seed=1, betas=(1.0,), noise_levels=(0.0,)
        )
        for r in run_stability(cfg):
            assert r.metrics["delta_c_norm"] <= 1e-15
            assert r.metrics["delta_rho_norm"] <= 1e-12


class TestLipschitz:
    def test_ratio_never_exceeds_one(self):
        cfg = ExperimentConfig(experiment="lipschitz", trials=2000, seed=3)
        records = run_lipschitz(cfg)
        assert len(records) >= 1900
        max_ratio = max(r.metrics["ratio"] for r in records)
        assert max_ratio <= 1.0 + 1e-9


class TestSurrogate:
    def test_alignment_improves_with_samples(self):
        cfg = ExperimentConfig(
            experiment="surrogate", dim=8, trials=20, seed=0, sample_grid=(100, 20000)
        )
        records = run_surrogate(cfg)
        small = metric_mean(records, "alignment", n_samples=100)
        large = metric_mean(records, "alignment", n_samples=20000)
        assert large >= 0.9
        assert large > small

    def test_large_sample_proxy_alignment(self):
        cfg = ExperimentConfig(
            experiment="surrogate", dim=8, trials=10, seed=2, sample_grid=(100000,)
        )
        records = run_surrogate(cfg)
        assert metric_mean(records, "alignment", n_samples=100000) >= 0.95

    def test_constant_filter_is_degenerate(self):
        cfg = ExperimentConfig(
            experiment="surrogate", dim=6, trials=2, seed=1, sample_grid=(200,),
            filter_coeffs=(1.0,),
        )
        records = run_surrogate(cfg)
        assert all(r.metrics["degenerate"] == 1.0 for r in records)
        assert all("alignment" not in r.metrics for r in records)


@pytest.fixture(scope="module")
def regression_records():
    cfg = ExperimentConfig(experiment="regression", trials=40, seed=5)
    return run_regression(cfg)


class TestRegression:

    def test_flat_curves_for_small_beta_without_noise(self, regression_records):
        grid = (25, 50, 100, 250, 1000)
        for method in ("density_beta_0.1", "density_beta_1"):
            curve = [
                metric_mean(regression_records, "mae", noise=0.0, n_cov=float(n), method=method) for n in grid
            ]
            spread = (max(curve) - min(curve)) / float(np.mean(curve))
            assert spread <= 0.10

    def test_noise_robustness_of_moderate_betas(self, regression_records):
        raw = metric_mean(regression_records, "mae", noise=5.0, method="raw_covariance")
        for method in ("density_beta_0.1", "density_beta_1", "density_beta_5"):
            assert metric_mean(regression_records, "mae", noise=5.0, method=method) <= raw

    def test_zero_weight_ground_truth_matches_baseline(self):
        cfg = ExperimentConfig(
            experiment="regression", trials=10, seed=2, n_informative=1, weight_scale=0.0,
            betas=(1.0,), noise_levels=(2.0,), sample_grid=(100,),
        )
        records = run_regression(cfg)
        mae = metric_mean(records, "mae", method="density_beta_1")
        baseline = metric_mean(records, "baseline_mae", method="density_beta_1")
        assert mae == pytest.approx(baseline, rel=0.05)


class TestEntropyCurve:
    def test_curves_monotone_and_bounded(self):
        cfg = ExperimentConfig(
            experiment="entropy_curve", dim=6, n_samples=60, trials=5, seed=4,
            betas=tuple(np.linspace(0.0, 15.0, 11)),
        )
        records = run_entropy_curve(cfg)
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


class TestDeterminismAndThreads:
    def test_bitwise_reproducible(self):
        cfg = ExperimentConfig(experiment="stability", dim=5, trials=4, seed=11, betas=(0.5,))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b


def stability_oracle(cfg):
    """run_stability rebuilt from the public per-beta API, one decomposition per call."""
    records = []
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, t])
        data = gen_gaussian_data(cfg.dim, cfg.n_samples, "gaussian", seed=[cfg.seed, t, 1])
        cov = sample_covariance(data)
        reg = shift_regularize(cov)
        for eps in cfg.noise_levels:
            e = rng.standard_normal((cfg.dim, cfg.dim))
            e = (e + e.T) / 2.0
            dc = eps * e / operator_norm(e)
            perturbed = cov.matrix + dc
            tn_delta = perturbed / np.trace(perturbed) - cov.matrix / np.trace(cov.matrix)
            records.append(
                ({"trial": t, "noise": eps, "method": "trace_normalized"},
                 {"delta_c_norm": operator_norm(dc), "delta_rho_norm": operator_norm(tn_delta)})
            )
            for beta in cfg.betas:
                rho_base = density.density_operator(reg, beta)
                rho_pert = density.density_operator(reg.matrix + dc, beta)
                records.append(
                    ({"trial": t, "noise": eps, "method": "density", "beta": beta},
                     {
                         "delta_c_norm": operator_norm(dc),
                         "delta_rho_norm": operator_norm(rho_pert.matrix() - rho_base.matrix()),
                         "bound_value": density.density_error_bound(reg, dc, beta),
                         "r_ratio": density.partition_ratio(reg, dc, beta),
                     })
                )
    return records


class TestDecomposeOnce:
    def test_stability_matches_public_api_oracle(self):
        cfg = ExperimentConfig(
            experiment="stability", dim=7, trials=3, seed=5,
            betas=(-1.0, -0.1, 0.0, 0.1, 1.0, 5.0), noise_levels=(0.01, 0.2),
        )
        records = run_stability(cfg)
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
        calls = []
        original = np.linalg.eigh

        def counting(m, *args, **kwargs):
            calls.append(np.shape(m))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    def test_stability_decomposes_once_per_matrix(self, eigh_calls):
        cfg = ExperimentConfig(
            experiment="stability", dim=5, trials=2, seed=1,
            betas=(-1.0, 0.0, 2.0), noise_levels=(0.1, 0.2, 0.3),
        )
        run_stability(cfg)
        # Per trial: the regularized matrix, then one perturbation per noise level.
        assert len(eigh_calls) == cfg.trials * (1 + len(cfg.noise_levels))

    def test_entropy_curve_decomposes_once_per_family(self, eigh_calls):
        cfg = ExperimentConfig(experiment="entropy_curve", dim=5, trials=2, seed=1, betas=(0.0, 1.0, 4.0))
        run_entropy_curve(cfg)
        assert len(eigh_calls) == cfg.trials * len(cfg.families)

    def test_regression_decomposes_once_per_covariance(self, eigh_calls):
        cfg = ExperimentConfig(
            experiment="regression", dim=5, trials=1, seed=1, betas=(0.1, 1.0, 5.0),
            noise_levels=(0.0,), sample_grid=(25, 50), n_test=50,
        )
        run_regression(cfg)
        assert len(eigh_calls) == len(cfg.noise_levels) * len(cfg.sample_grid)
