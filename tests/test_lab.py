import csv
import json

import numpy as np
import pytest

from conftest import count_linalg_calls
from covdensity import density, entropy, filtering, spectral
from covdensity.covariance import gen_gaussian_data, sample_covariance, shift_regularize
from covdensity.errors import BetaRangeError, ConfigError
from covdensity.lab import (
    ExperimentConfig,
    TrialRecord,
    records_to_csv,
    run_betafit_demo,
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


def reference_records_to_csv(records, path):
    """records_to_csv as it was before it collected keys with one set union and wrote with writerows."""
    records = list(records)
    p_keys = sorted({k for r in records for k in r.params})
    m_keys = sorted({k for r in records for k in r.metrics})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "seed"] + [f"p:{k}" for k in p_keys] + [f"m:{k}" for k in m_keys])
        for r in records:
            row = [r.experiment, repr(r.seed)]
            row += [reference_cell(r.params.get(k)) for k in p_keys]
            row += [reference_cell(r.metrics.get(k)) for k in m_keys]
            writer.writerow(row)


def reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_summarize(records):
    """summarize as it was before one-record groups skipped np.mean."""
    groups: dict = {}
    for r in records:
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


# Missing keys, -0.0, subnormals, string and bool params, and groups of one and of three records.
ODD_RECORDS = [
    TrialRecord(experiment="odd", seed=4, params={"trial": 0, "beta": -0.0}, metrics={"a": -0.0, "b": 5e-324}),
    TrialRecord(experiment="odd", seed=4, params={"trial": 1, "method": "x,\"y\""}, metrics={"b": 2.2e-308}),
    TrialRecord(experiment="odd", seed=4, params={"method": "density", "flag": True}, metrics={"a": 1e300, "c": -1.5}),
    TrialRecord(experiment="odd", seed=4, params={"method": "density", "flag": True}, metrics={"a": 1e300}),
    TrialRecord(experiment="odd", seed=4, params={"method": "density", "flag": True}, metrics={"c": 0.1, "a": 3e-320}),
    TrialRecord(experiment="odd", seed=-2, params={}, metrics={"z": 1.0 / 3.0, "a": -7e-310}),
    TrialRecord(experiment="odd", seed=-2, params={}, metrics={"z": 0.1 + 0.2}),
]


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
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            assert row["experiment"] == record.experiment and int(row["seed"]) == record.seed
            params = {k[2:]: v for k, v in row.items() if k.startswith("p:") and v != ""}
            assert params.keys() == record.params.keys()
            for key, value in record.params.items():
                assert (float(params[key]) if isinstance(value, float) else params[key]) == value
            metrics = {k[2:]: float(v) for k, v in row.items() if k.startswith("m:") and v != ""}
            assert metrics == record.metrics

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

    @pytest.mark.parametrize("records", [ODD_RECORDS, ODD_RECORDS[:1], ODD_RECORDS[2:], []], ids=["all", "one", "tail", "none"])
    def test_artifacts_match_reference_writers(self, tmp_path, records):
        records_to_csv(records, tmp_path / "got.csv")
        reference_records_to_csv(records, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        got, want = summarize(records), reference_summarize(records)
        assert json.dumps(got, indent=1) == json.dumps(want, indent=1)
        assert [type(v) for g in got.values() for v in g.values()] == [
            type(v) for g in want.values() for v in g.values()
        ]


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

    def test_matches_public_partition_function_path(self):
        cfg = ExperimentConfig(experiment="lipschitz", trials=300, seed=4)
        for r in run_lipschitz(cfg):
            lam1, lam2, beta = r.metrics["lambda1"], r.metrics["lambda2"], r.metrics["beta"]
            t = int(r.params["trial"])
            rng = np.random.default_rng([cfg.seed, t])
            rng.uniform(size=2)
            order = int(rng.integers(1, cfg.max_filter_order + 1))
            spec = filtering.FilterSpec(coeffs=rng.standard_normal(order + 1), beta=beta)
            z = density.partition_function(np.diag([lam1, lam2]), beta)
            diff = abs(filtering.frequency_response(spec, lam2, z) - filtering.frequency_response(spec, lam1, z))
            # run_lipschitz uses ln Z directly; this path round-trips it through Z,
            # so only roundoff may differ.
            assert r.metrics["response_diff"] == pytest.approx(diff, rel=1e-12, abs=1e-300)


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
        return count_linalg_calls(monkeypatch, "eigh")

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
        # Each family's one decomposition is the shifted matrix's PSD check
        # (an eigvalsh, counted below); no eigh is needed on top of it.
        assert eigh_calls == []

    def test_entropy_curve_guard_names_the_first_failing_beta(self):
        cfg = ExperimentConfig(experiment="entropy_curve", dim=5, trials=1, seed=1, betas=(1.0, 1e4, 1e5))
        data = gen_gaussian_data(cfg.dim, cfg.n_samples, cfg.families[0], seed=[cfg.seed, 0, 0])
        with pytest.raises(BetaRangeError) as expected:
            entropy.cvne(shift_regularize(sample_covariance(data)), 1e4)
        with pytest.raises(BetaRangeError) as got:
            run_entropy_curve(cfg)
        assert str(got.value) == str(expected.value)

    def test_entropy_curve_matches_cvne_bit_for_bit(self):
        cfg = ExperimentConfig(experiment="entropy_curve", dim=6, trials=2, seed=3, betas=(0.0, 0.5, 3.0, 12.0))
        records = iter(run_entropy_curve(cfg))
        for t in range(cfg.trials):
            for fam_idx, family in enumerate(cfg.families):
                data = gen_gaussian_data(cfg.dim, cfg.n_samples, family, seed=[cfg.seed, t, fam_idx])
                reg = shift_regularize(sample_covariance(data))
                # cvne reads only the eigenvalues of a decomposition: here the stored eigvalsh spectrum.
                stored = spectral.SpectralDecomposition(reg._eigenvalues, np.eye(cfg.dim))
                for beta in cfg.betas:
                    report = entropy.cvne(stored, beta)
                    r = next(records)
                    assert r.params == {"trial": t, "family": family, "beta": beta}
                    assert r.metrics == {"entropy_nats": report.entropy_nats, "entropy_bits": report.entropy_bits}
                    # cvne on the matrix reads eigh eigenvalues, which can differ in the last bits.
                    on_matrix = entropy.cvne(reg, beta)
                    np.testing.assert_allclose(
                        [r.metrics["entropy_nats"], r.metrics["entropy_bits"]],
                        [on_matrix.entropy_nats, on_matrix.entropy_bits],
                        rtol=1e-12,
                    )

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        return count_linalg_calls(monkeypatch, "eigvalsh")

    def test_stability_norms_from_one_stacked_eigvalsh_per_noise_level(self, eigvalsh_calls):
        cfg = ExperimentConfig(
            experiment="stability", dim=5, trials=2, seed=1,
            betas=(-1.0, 0.0, 2.0), noise_levels=(0.1, 0.2, 0.3),
        )
        run_stability(cfg)
        # Per trial: the sample covariance's PSD check, the shifted matrix's PSD
        # check, then per noise level one stack of dC, the trace-normalized delta
        # and each beta's delta.
        per_trial = [(5, 5), (5, 5)] + [(2 + len(cfg.betas), 5, 5)] * len(cfg.noise_levels)
        assert eigvalsh_calls == per_trial * cfg.trials

    def test_entropy_curve_reuses_the_validated_spectrum(self, eigvalsh_calls):
        cfg = ExperimentConfig(experiment="entropy_curve", dim=5, trials=2, seed=1, betas=(0.0, 1.0, 4.0))
        run_entropy_curve(cfg)
        # The sample covariance's and the shifted matrix's PSD checks; the shift reuses the first.
        assert len(eigvalsh_calls) == cfg.trials * len(cfg.families) * 2

    def test_lipschitz_decomposes_nothing(self, eigvalsh_calls, eigh_calls):
        run_lipschitz(ExperimentConfig(experiment="lipschitz", trials=50, seed=2))
        assert eigvalsh_calls == [] and eigh_calls == []

    def test_betafit_demo_reuses_the_validated_spectrum(self, eigvalsh_calls):
        cfg = ExperimentConfig(experiment="betafit_demo", dim=5, trials=2, seed=1, noise_levels=(0.1, 0.3))
        run_betafit_demo(cfg)
        # Per trial: the sample covariance's PSD check, whose spectrum is the
        # clean target, then one noisy spectrum per noise level.
        assert eigvalsh_calls == [(5, 5)] * (1 + len(cfg.noise_levels)) * cfg.trials

    def test_regression_decomposes_once_per_covariance(self, eigh_calls):
        cfg = ExperimentConfig(
            experiment="regression", dim=5, trials=1, seed=1, betas=(0.1, 1.0, 5.0),
            noise_levels=(0.0,), sample_grid=(25, 50), n_test=50,
        )
        run_regression(cfg)
        assert len(eigh_calls) == len(cfg.noise_levels) * len(cfg.sample_grid)
