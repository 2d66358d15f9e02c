import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import covdensity
from covdensity import network
from covdensity.cli import main
from covdensity.spectral import eigh


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def rank_one_cov(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("2.0,0.0,0.0\n0.0,0.0,0.0\n0.0,0.0,0.0\n")
    return str(path)


@pytest.fixture
def gaussian_data_csv(tmp_path, rng):
    path = tmp_path / "data.csv"
    values = rng.standard_normal((60, 3))
    with open(path, "w") as fh:
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(path)


class TestEntropyCommand:
    def test_rank_one_anchor(self, capsys, tmp_path, rank_one_cov):
        code, out, _ = run_cli(
            capsys, "entropy", "--input", rank_one_cov, "--input-is-covariance",
            "--beta", "1", "--unit", "bits", "--output-dir", str(tmp_path / "out"),
        )
        assert code == 0
        assert abs(float(out.strip()) - 1.28) <= 0.005

    def test_nats_unit(self, capsys, tmp_path, rank_one_cov):
        code, out, _ = run_cli(
            capsys, "entropy", "--input", rank_one_cov, "--input-is-covariance",
            "--beta", "1", "--unit", "nats", "--output-dir", str(tmp_path / "o2"),
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.8853815523455887, abs=1e-6)

    def test_data_matrix_input(self, capsys, tmp_path, gaussian_data_csv):
        code, out, _ = run_cli(
            capsys, "entropy", "--input", gaussian_data_csv, "--beta", "2",
            "--output-dir", str(tmp_path / "o3"),
        )
        assert code == 0
        value = float(out.strip())
        assert 0.0 <= value <= math.log2(3.0) + 1e-9

    def test_outputs_written(self, capsys, tmp_path, rank_one_cov):
        out_dir = tmp_path / "o4"
        code, _, _ = run_cli(
            capsys, "entropy", "--input", rank_one_cov, "--input-is-covariance",
            "--output-dir", str(out_dir),
        )
        assert code == 0
        for name in ("results.csv", "summary.json", "manifest.json"):
            assert (out_dir / name).exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "entropy"
        assert "timestamp" in manifest

    def test_missing_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "entropy")
        assert code == 1
        assert "usage" in err.lower()
        assert out == ""

    def test_unknown_flag_rejected(self, capsys, rank_one_cov):
        code, _, err = run_cli(capsys, "entropy", "--input", rank_one_cov, "--flux", "9")
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "entropy", "--input", str(tmp_path / "nope.csv"),
            "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert "error" in err.lower()

    @pytest.mark.parametrize("subcommand", ["entropy", "density"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_covariance_is_runtime_error(self, capsys, tmp_path, subcommand, bad):
        path = tmp_path / "cov.csv"
        path.write_text(f"1,{bad}\n{bad},1\n")
        code, _, err = run_cli(
            capsys, subcommand, "--input", str(path), "--input-is-covariance",
            "--output-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert "non-finite" in err and "RuntimeWarning" not in err

    def test_non_finite_beta_is_runtime_error(self, capsys, tmp_path, rank_one_cov):
        code, _, err = run_cli(
            capsys, "entropy", "--input", rank_one_cov, "--input-is-covariance",
            "--beta", "nan", "--output-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert "error: beta must be finite" in err

    def test_overflowing_sample_covariance_is_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1e200,-1e200\n-1e200,1e200\n1e200,1e200\n")
        code, _, err = run_cli(capsys, "entropy", "--input", str(path), "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "error: sample covariance overflows a double" in err and "RuntimeWarning" not in err


class TestFitBetaCommand:
    def test_closed_form_case(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "fit-beta", "--spectrum", "1,2", "--target", "0.3333,0.6667",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert abs(float(out.strip()) + 0.6931) <= 5e-4

    def test_infeasible_target_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "fit-beta", "--spectrum", "1,2", "--target", "0,1",
            "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert "hull" in err or "bracket" in err

    @pytest.mark.parametrize("covariance", [True, False])
    def test_input_with_the_default_target(self, capsys, tmp_path, gaussian_data_csv, covariance):
        if covariance:
            path = tmp_path / "cov.csv"
            path.write_text("2.0,0.5,0.0\n0.5,1.0,0.0\n0.0,0.0,0.0\n")
            argv, cov = [str(path), "--input-is-covariance"], np.loadtxt(path, delimiter=",")
        else:
            argv, cov = [gaussian_data_csv], np.cov(np.loadtxt(gaussian_data_csv, delimiter=","), rowvar=False, bias=True)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "fit-beta", "--input", *argv, "--output-dir", str(out_dir))
        assert (code, err) == (0, "")
        spectrum = eigh(cov).eigenvalues
        clipped = np.clip(spectrum, 0.0, None)
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        np.testing.assert_allclose(config["spectrum"], spectrum, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(config["target"], clipped / clipped.sum(), rtol=1e-12, atol=1e-15)
        fit = covdensity.fit_beta(config["spectrum"], config["target"])
        assert out == f"{fit.beta_star:.10g}\n"
        assert json.loads((out_dir / "summary.json").read_text())["fit"] == dataclasses.asdict(fit)

    @pytest.mark.parametrize("spectrum", [["--spectrum", "0,0,0"], ["--spectrum=-2,-1"], None])
    def test_default_target_needs_a_positive_eigenvalue(self, capsys, tmp_path, spectrum):
        if spectrum is None:
            path = tmp_path / "zero.csv"
            path.write_text("0,0\n0,0\n")
            spectrum = ["--input", str(path), "--input-is-covariance"]
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fit-beta", *spectrum, "--output-dir", str(out_dir))
        message = "fit-beta without --target needs a positive eigenvalue: its default target is the spectrum clipped at 0 and normalized"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("error")
    def test_default_target_sum_overflow_is_rejected(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "fit-beta", "--spectrum", "1e308,1e308,1", "--output-dir", str(out_dir))
        message = "fit-beta without --target: its default target's sum overflows a double; give --target"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()
        # A sum just below the largest double is a finite default target; the fit then finds it infeasible.
        code, out, err = run_cli(capsys, "fit-beta", "--spectrum", "8e307,8e307,1", "--output-dir", str(out_dir))
        assert (code, out) == (2, "") and err.startswith("error: target mean 8e+307 lies outside the open spectral hull")
        # A NaN or infinite entry is the spectrum's fault, named by the solver, and draws no warning.
        for spectrum in ("inf,1", "nan,1"):
            code, out, err = run_cli(capsys, "fit-beta", "--spectrum", spectrum, "--output-dir", str(out_dir))
            assert (code, out, err) == (2, "", "error: spectrum must be a non-empty, finite 1-D sequence\n")
            assert not out_dir.exists()

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_negative_or_non_finite_tol_rejected(self, capsys, tmp_path, tol):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "fit-beta", "--spectrum", "1,2,3", f"--tol={tol}", "--output-dir", str(out_dir))
        assert (code, out, err) == (2, "", f"error: tol must be finite and >= 0, got {float(tol)!r}\n")
        assert not out_dir.exists()


class TestDensityCommand:
    def test_prints_density_eigenvalues(self, capsys, tmp_path, rank_one_cov):
        code, out, _ = run_cli(
            capsys, "density", "--input", rank_one_cov, "--input-is-covariance",
            "--beta", "1", "--output-dir", str(tmp_path),
        )
        assert code == 0
        values = [float(v) for v in out.strip().split(",")]
        z = 2.0 + math.exp(-2.0)
        np.testing.assert_allclose(sorted(values), sorted([1 / z, 1 / z, math.exp(-2.0) / z]), rtol=1e-6)

    def test_overflowing_partition_function_writes_nothing(self, capsys, tmp_path, rank_one_cov):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "density", "--input", rank_one_cov, "--input-is-covariance",
            "--beta", "-800", "--output-dir", str(out_dir),
        )
        assert code == 2
        assert "error: Z = exp(1600) overflows a double" in err
        assert out == "" and not out_dir.exists()


class TestExperimentCommands:
    def test_discriminate_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "disc"
        code, out, _ = run_cli(
            capsys, "discriminate", "--seed", "3", "--output-dir", str(out_dir),
        )
        assert code == 0
        assert "auc_naive" in out and "auc_vne" in out
        assert (out_dir / "results.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary

    def test_lipschitz_headline(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "lipschitz", "--trials", "500", "--seed", "1",
            "--output-dir", str(tmp_path / "lip"),
        )
        assert code == 0
        assert "max_ratio" in out
        max_ratio = float(out.split("max_ratio=")[1].split()[0])
        assert max_ratio <= 1.0 + 1e-9

    def test_determinism_byte_identical_results(self, capsys, tmp_path):
        dirs = [tmp_path / f"run{i}" for i in range(2)]
        for d in dirs:
            code, _, _ = run_cli(
                capsys, "stability", "--dim", "6", "--trials", "5", "--seed", "42",
                "--betas", "0.5,-0.5", "--noise-levels", "0.1",
                "--output-dir", str(d),
            )
            assert code == 0
        assert (dirs[0] / "results.csv").read_bytes() == (dirs[1] / "results.csv").read_bytes()

    def test_overflowing_error_bound_is_runtime_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dim": 4, "trials": 1, "betas": [-1000]}))
        code, out, err = run_cli(capsys, "stability", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "error: exp(|beta| ||C||) = exp(" in err and "overflows a double" in err
        assert out == ""

    @pytest.mark.filterwarnings("error")
    def test_overflowing_bound_product_is_a_range_error_without_warning(self, capsys, tmp_path):
        # Every factor of the bound is finite at beta = -400; their product is not.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dim": 4, "trials": 1, "betas": [-400]}))
        code, out, err = run_cli(capsys, "stability", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert err == "error: density error bound overflows a double at beta = -400, ||C|| = 0.930767\n"
        cfg_path.write_text(json.dumps({"dim": 4, "trials": 1, "betas": [-350]}))
        code, out, err = run_cli(capsys, "stability", "--config", str(cfg_path), "--output-dir", str(tmp_path / "ok"))
        assert (code, out, err) == (0, "records=10\n", "")

    @pytest.mark.parametrize("subcommand", ["regression", "surrogate"])
    @pytest.mark.parametrize("bad", ["-5", "0", "1"])
    def test_sample_grid_below_two_rejected(self, capsys, tmp_path, subcommand, bad):
        code, _, err = run_cli(
            capsys, subcommand, "--trials", "1", f"--sample-grid=30,{bad}", "--output-dir", str(tmp_path)
        )
        assert code == 2
        assert err == f"error: sample_grid entries must be integers >= 2, got {bad}\n"
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("subcommand", ["regression", "surrogate"])
    @pytest.mark.parametrize("bad", [2.5, True])
    def test_sample_grid_non_integer_in_config_rejected(self, capsys, tmp_path, subcommand, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 1, "sample_grid": [30, bad]}))
        code, _, err = run_cli(capsys, subcommand, "--config", str(cfg_path), "--output-dir", str(tmp_path))
        assert code == 2
        assert err == f"error: sample_grid entries must be integers >= 2, got {bad!r}\n"
        assert not (tmp_path / "results.csv").exists()

    def test_lipschitz_with_every_trial_skipped(self, capsys, tmp_path):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({"beta_range": [0, 0]}))  # beta = 0 gives zero-alpha filters only
        code, out, _ = run_cli(capsys, "lipschitz", "--config", str(cfg_path), "--output-dir", str(out_dir))
        assert (code, out) == (0, "records=0\n")
        assert json.loads((out_dir / "summary.json").read_text()) == {"groups": {}, "headline": "records=0"}
        assert (out_dir / "results.csv").read_text() == "experiment,seed\n"

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dim": 6, "trials": 3, "seed": 1, "betas": [0.5]}))
        out_dir = tmp_path / "cfgrun"
        code, _, _ = run_cli(
            capsys, "stability", "--config", str(cfg_path), "--trials", "2",
            "--noise-levels", "0.1", "--output-dir", str(out_dir),
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["trials"] == 2  # flag wins
        assert manifest["config"]["dim"] == 6

    @pytest.mark.parametrize(
        "subcommand,flags",
        [
            ("entropy-curve", ["--dim", "4", "--trials", "2", "--n-samples", "30", "--betas", "0,1,5"]),
            ("surrogate", ["--dim", "5", "--trials", "2", "--sample-grid", "200"]),
            ("regression", ["--trials", "2", "--sample-grid", "30,60", "--betas", "1", "--noise-levels", "0"]),
            ("betafit-demo", ["--dim", "5", "--trials", "2", "--noise-levels", "0.1"]),
        ],
    )
    def test_all_experiment_subcommands_run(self, capsys, tmp_path, subcommand, flags):
        out_dir = tmp_path / subcommand
        code, _, err = run_cli(
            capsys, subcommand, "--seed", "5", "--output-dir", str(out_dir), *flags
        )
        assert code == 0, err
        assert (out_dir / "results.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "headline" in summary and "groups" in summary

    def test_config_experiment_must_match_the_subcommand(self, capsys, tmp_path):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({"experiment": "regression"}))
        code, out, err = run_cli(capsys, "stability", "--config", str(cfg_path), "--output-dir", str(out_dir))
        assert (code, out, err) == (2, "", "error: /experiment: got 'regression', but stability runs 'stability'\n")
        assert not out_dir.exists()
        cfg_path.write_text(json.dumps({"experiment": "entropy_curve", "dim": 3, "trials": 1, "betas": [1.0]}))
        code, out, err = run_cli(capsys, "entropy-curve", "--config", str(cfg_path), "--output-dir", str(out_dir))
        assert (code, err) == (0, "")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "subcommand,cfg,message",
        [
            ("lipschitz", {"max_filter_order": 0}, "/max_filter_order: must be >= 1, got 0"),
            ("regression", {"n_informative": 50}, "/n_informative: must be in [0, dim = 20], got 50"),
            ("regression", {"n_train": 0}, "/n_train: must be >= 1, got 0"),
            ("regression", {"n_test": 0}, "/n_test: must be >= 1, got 0"),
            ("discriminate", {"n_windows": 0}, "/n_windows: must be >= 1, got 0"),
            ("entropy-curve", {"families": []}, "/families: must be non-empty, got []"),
        ],
    )
    def test_count_key_out_of_range_is_named(self, capsys, tmp_path, subcommand, cfg, message):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, subcommand, "--config", str(cfg_path), "--output-dir", str(out_dir))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("cfg", [{"base_spectrum": [-1, 1, 0]}, {"regime_scale": [1, -1, 1]}])
    def test_negative_spectrum_entry_prints_only_the_error(self, capsys, tmp_path, cfg):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({**cfg, "n_windows": 5}))
        code, out, err = run_cli(capsys, "discriminate", "--config", str(cfg_path), "--output-dir", str(out_dir))
        assert (code, out, err) == (2, "", "error: data matrix contains non-finite entries\n")
        assert not out_dir.exists()

    def test_config_schema_version_checked(self, capsys, tmp_path):
        cfg_path = tmp_path / "versioned.json"
        cfg_path.write_text(json.dumps({"schema_version": 1, "dim": 5, "trials": 2, "betas": [0.5]}))
        code, _, _ = run_cli(
            capsys, "stability", "--config", str(cfg_path), "--noise-levels", "0.1",
            "--output-dir", str(tmp_path / "v1"),
        )
        assert code == 0
        cfg_path.write_text(json.dumps({"schema_version": 2, "dim": 5}))
        code, _, err = run_cli(
            capsys, "stability", "--config", str(cfg_path), "--output-dir", str(tmp_path / "v2")
        )
        assert code == 2
        assert "schema_version" in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"dimension": 6}))
        code, _, err = run_cli(
            capsys, "stability", "--config", str(cfg_path), "--output-dir", str(tmp_path)
        )
        assert code == 2
        assert "/dimension" in err

    def test_negative_seed_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -2}))
        for flags, value in ((["--seed", "-1"], -1), (["--config", str(cfg_path)], -2)):
            code, out, err = run_cli(capsys, "stability", *flags, "--output-dir", str(tmp_path / "out"))
            assert (code, out, err) == (2, "", f"error: seed must be >= 0, got {value}\n")
        assert not (tmp_path / "out").exists()

    def test_every_experiment_config_field_is_a_config_key(self, capsys, tmp_path):
        import dataclasses

        from covdensity.lab import ExperimentConfig

        defaults = ExperimentConfig(experiment="stability")
        payload = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(ExperimentConfig)}
        payload.update(schema_version=1, dim=4, trials=1, betas=[0.5], noise_levels=[0.1])
        cfg_path = tmp_path / "full.json"
        cfg_path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "stability", "--config", str(cfg_path), "--output-dir", str(tmp_path / "ok"))
        assert code == 0, err
        cfg_path.write_text(json.dumps({**payload, "unknown": 1}))
        code, _, err = run_cli(capsys, "stability", "--config", str(cfg_path), "--output-dir", str(tmp_path / "bad"))
        assert code == 2
        assert "unknown experiment config key at /unknown" in err


def test_config_key_sets(tmp_path):
    import dataclasses

    from covdensity.cli import _TrainSettings, _load_json_config
    from covdensity.lab import ExperimentConfig

    experiment_keys = {
        "schema_version", "experiment", "dim", "n_samples", "sample_grid", "betas", "noise_levels",
        "trials", "seed", "window", "n_windows", "regime_scale",
        "base_spectrum", "edge_prob", "filter_coeffs", "families", "n_informative",
        "n_train", "n_test", "ridge", "weight_scale", "max_filter_order",
        "beta_range", "eigenvalue_range",
    }
    train_keys = {
        "schema_version", "learning_rate", "epochs", "batch_size", "hidden_dim", "num_layers",
        "activation", "head_activation", "dropout", "betas", "betas_learnable",
        "betas_init", "order", "loss", "seed", "task", "aggregation", "skip_k0",
        "val_fraction",
    }
    path = tmp_path / "keys.json"
    for config_class, keys in ((ExperimentConfig, experiment_keys), (_TrainSettings, train_keys)):
        path.write_text(json.dumps(dict.fromkeys(keys, 1)))  # every key is accepted ...
        assert set(_load_json_config(path, config_class, "config")) == keys - {"schema_version"}
        # ... and no other, since the loader accepts exactly the fields.
        assert {f.name for f in dataclasses.fields(config_class)} == keys - {"schema_version"}


def _config_fields():
    import dataclasses

    from covdensity.cli import _TrainSettings
    from covdensity.lab import ExperimentConfig

    return [
        pytest.param(subcommand, f, id=f"{subcommand}-{f.name}")
        for subcommand, config_class in (("stability", ExperimentConfig), ("train", _TrainSettings))
        for f in dataclasses.fields(config_class)
    ]


# Values of a wrong type for each annotation in use, whether or not the field also takes None.
_WRONG_VALUES = {
    "int": [2.5, True, "5", {}],
    "float": [True, "1.0", {}],
    "bool": [1, "true", None, {}],
    "str": [1, ["a"], {}],
    "tuple": ["abc", [True], 1.5, {}],
}


@pytest.mark.parametrize("subcommand,field", _config_fields())
def test_wrong_typed_config_value_exits_2_naming_its_key(capsys, tmp_path, gaussian_data_csv, subcommand, field):
    from covdensity.errors import ConfigError
    from covdensity.lab import ExperimentConfig

    kind = field.type.split("[")[0].split(" |")[0]
    for value in _WRONG_VALUES[kind]:
        if field.name == "experiment":  # the CLI rejects any value but the subcommand's before the type check
            with pytest.raises(ConfigError, match=re.escape(f"/experiment: expected str, got {value!r}")):
                ExperimentConfig(experiment=value)
            continue
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({field.name: value}))
        argv = [subcommand, "--config", str(cfg_path), "--output-dir", str(out_dir)]
        code, out, err = run_cli(capsys, *argv, *(["--input", gaussian_data_csv] if subcommand == "train" else []))
        assert (code, out) == (2, ""), (value, err)
        assert err.startswith(f"error: /{field.name}: expected ") or (
            err == f"error: sample_grid entries must be integers >= 2, got {value[0]!r}\n"
        ), err
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "subcommand,cfg,message",
    [
        ("stability", {"dim": "5"}, "/dim: expected int, got '5'"),
        ("stability", {"trials": 2.5}, "/trials: expected int, got 2.5"),
        ("stability", {"betas": "abc"}, "/betas: expected tuple[float, ...], got 'abc'"),
        ("entropy-curve", {"families": "gaussian"}, "/families: expected tuple[str, ...], got 'gaussian'"),
        ("lipschitz", {"beta_range": [1]}, "/beta_range: expected tuple[float, float], got [1]"),
        ("lipschitz", {"max_filter_order": 2.5}, "/max_filter_order: expected int, got 2.5"),
        ("stability", {"edge_prob": "x"}, "/edge_prob: expected float, got 'x'"),
        ("train", {"betas": [True]}, "/betas: expected tuple[float, ...] | None, got [True]"),
        ("stability", {"schema_version": True}, "unsupported schema_version at /schema_version"),
        ("train", {"schema_version": True}, "unsupported schema_version at /schema_version"),
    ],
)
def test_config_probes_exit_2_naming_the_key(capsys, tmp_path, gaussian_data_csv, subcommand, cfg, message):
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(cfg))
    argv = [subcommand, "--config", str(cfg_path), "--output-dir", str(out_dir)]
    code, out, err = run_cli(capsys, *argv, *(["--input", gaussian_data_csv] if subcommand == "train" else []))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert not out_dir.exists()


@pytest.fixture
def classification_csv(tmp_path, rng):
    path = tmp_path / "train.csv"
    rows = []
    for i in range(80):
        label = i % 2
        center = 1.5 if label else -1.5
        features = center + 0.5 * rng.standard_normal(4)
        rows.append(",".join(repr(float(v)) for v in features) + f",{label}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestTrainPredict:
    def test_train_then_predict(self, capsys, tmp_path, classification_csv):
        cfg_path = tmp_path / "train_cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "learning_rate": 0.02,
                    "epochs": 30,
                    "batch_size": 16,
                    "hidden_dim": 8,
                    "num_layers": 1,
                    "activation": "tanh",
                    "dropout": 0.0,
                    "betas": [0.1, 5.0],
                    "task": "classification",
                    "seed": 3,
                }
            )
        )
        out_dir = tmp_path / "trained"
        code, out, _ = run_cli(
            capsys, "train", "--input", classification_csv, "--config", str(cfg_path),
            "--output-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "model.json").exists()
        assert float(out.strip()) >= 0.0

        pred_dir = tmp_path / "preds"
        code, out, _ = run_cli(
            capsys, "predict", "--input", classification_csv,
            "--model", str(out_dir / "model.json"), "--output-dir", str(pred_dir),
        )
        assert code == 2  # predict input still carries the label column
        features_path = tmp_path / "features.csv"
        rows = [line.rsplit(",", 1)[0] for line in Path(classification_csv).read_text().splitlines()]
        features_path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "predict", "--input", str(features_path),
            "--model", str(out_dir / "model.json"), "--output-dir", str(pred_dir),
        )
        assert code == 0
        labels = [int(v) for v in out.strip().splitlines()]
        truth = [i % 2 for i in range(80)]
        agreement = float(np.mean([a == b for a, b in zip(labels, truth)]))
        assert agreement >= 0.9
        assert (pred_dir / "results.csv").exists()

    def test_horizon_regression(self, capsys, tmp_path, rng):
        path = tmp_path / "series.csv"
        t = np.arange(60)
        values = np.stack([np.sin(t / 5.0), np.cos(t / 5.0), 0.1 * t], axis=1)
        values += 0.01 * rng.standard_normal(values.shape)
        with open(path, "w") as fh:
            for row in values:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 5, "betas": [1.0], "hidden_dim": 4, "seed": 0}))
        out_dir = tmp_path / "hmodel"
        code, out, _ = run_cli(
            capsys, "train", "--input", str(path), "--config", str(cfg_path),
            "--horizon", "1", "--output-dir", str(out_dir),
        )
        assert code == 0
        model = json.loads((out_dir / "model.json").read_text())
        assert model["task"] == "regression"
        assert len(model["covariance"]) == 3

    def test_predict_regression_with_horizon(self, capsys, tmp_path, rng):
        values = np.cumsum(rng.standard_normal((40, 3)), axis=0)
        train_path, features_path = tmp_path / "series.csv", tmp_path / "features.csv"
        train_path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in values.tolist()))
        features_path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in values[:7].tolist()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 2, "betas": [0.5, 2.0], "hidden_dim": 4, "seed": 1}))
        code, _, _ = run_cli(
            capsys, "train", "--input", str(train_path), "--config", str(cfg_path),
            "--horizon", "1", "--output-dir", str(tmp_path / "model"),
        )
        assert code == 0
        pred_dir = tmp_path / "preds"
        code, out, _ = run_cli(
            capsys, "predict", "--input", str(features_path), "--model", str(tmp_path / "model" / "model.json"),
            "--horizon", "1", "--output-dir", str(pred_dir),
        )
        assert code == 0
        model, cov = network.load_model(tmp_path / "model" / "model.json")
        expected = network.forward_rows(model, eigh(cov), values[:7])
        assert out.splitlines() == [",".join(f"{v:.10g}" for v in row) for row in expected]
        with open(pred_dir / "results.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["experiment", "seed", "p:row", "p:target_row", "m:y0", "m:y1", "m:y2"]
        assert [row[:4] for row in rows] == [["predict", "0", repr(float(i)), repr(float(i + 1))] for i in range(7)]
        assert np.array([[float(v) for v in row[4:]] for row in rows]).tobytes() == expected.tobytes()
        assert json.loads((pred_dir / "summary.json").read_text()) == {"rows": 7, "task": "regression"}

    def test_negative_epochs_rejected(self, capsys, tmp_path, classification_csv):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"epochs": -5, "betas": [1.0]}))
        code, _, err = run_cli(
            capsys, "train", "--input", classification_csv, "--config", str(cfg_path),
            "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert "/epochs" in err

    @pytest.mark.parametrize(
        "cfg,message",
        [
            ({"order": -1}, "/order: must be >= 0"),
            ({"hidden_dim": 0}, "/hidden_dim: must be >= 1"),
            ({"betas": []}, "/betas: must be non-empty"),
            ({"betas": None, "betas_init": []}, "/betas: must be non-empty"),
            ({"epochs": "5"}, "/epochs: expected int, got '5'"),
            ({"epochs": True}, "/epochs: expected int, got True"),
            ({"epochs": 5.0}, "/epochs: expected int, got 5.0"),
            ({"dropout": False}, "/dropout: expected float, got False"),
            ({"skip_k0": 1}, "/skip_k0: expected bool, got 1"),
            ({"activation": None}, "/activation: expected str, got None"),
            ({"seed": -1}, "/seed: must be >= 0, got -1"),
            ({"epochs": 0}, "/epochs: must be >= 1"),
            ({"learning_rate": -1}, "/learning_rate: must be nonnegative"),
            ({"batch_size": 0}, "/batch_size: must be >= 1"),
            ({"dropout": 1}, "/dropout: must be in [0, 1)"),
        ],
    )
    def test_wrong_type_or_impossible_size_rejected(self, capsys, tmp_path, classification_csv, cfg, message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "betas": [1.0], **cfg}))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "train", "--input", classification_csv, "--config", str(cfg_path), "--output-dir", str(out_dir)
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    def test_negative_seed_flag_rejected(self, capsys, tmp_path, classification_csv):
        code, out, err = run_cli(
            capsys, "train", "--input", classification_csv, "--seed", "-1", "--output-dir", str(tmp_path / "out")
        )
        assert (code, out, err) == (2, "", "error: /seed: must be >= 0, got -1\n")

    def test_config_is_checked_before_the_input_is_read(self, capsys, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"epochs": 0, "betas": [1.0]}))
        code, out, err = run_cli(
            capsys, "train", "--input", str(tmp_path / "missing.csv"), "--config", str(cfg_path),
            "--output-dir", str(tmp_path / "out"),
        )
        assert (code, out, err) == (2, "", "error: /epochs: must be >= 1\n")

    def test_negative_horizon_rejected(self, capsys, tmp_path, classification_csv):
        model_path, cfg_path = tmp_path / "model.json", tmp_path / "cfg.json"
        network.save_model(model_path, network.init_model(dim=5, n_outputs=1, betas=[1.0]), np.eye(5))
        cfg_path.write_text(json.dumps({"epochs": 1, "betas": [1.0]}))
        for argv, horizon in (
            (["train", "--input", classification_csv, "--config", str(cfg_path)], -2),
            (["predict", "--input", classification_csv, "--model", str(model_path)], -3),
        ):
            code, out, err = run_cli(capsys, *argv, "--horizon", str(horizon), "--output-dir", str(tmp_path / "out"))
            assert (code, out, err) == (2, "", f"error: --horizon must be >= 0, got {horizon}\n")
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_classification_with_horizon_rejected(self, capsys, tmp_path, classification_csv, horizon):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({"task": "classification", "epochs": 1, "betas": [1.0]}))
        for data in (classification_csv, str(tmp_path / "missing.csv")):  # rejected before the CSV is read
            code, out, err = run_cli(
                capsys, "train", "--input", data, "--config", str(cfg_path), "--horizon", str(horizon),
                "--output-dir", str(out_dir),
            )
            message = f"--horizon {horizon} forecasts full future rows, which task 'classification' cannot fit"
            assert (code, out, err) == (2, "", f"error: {message}\n")
            assert not out_dir.exists()

    def test_float_keys_take_ints(self, capsys, tmp_path, classification_csv):
        cfg = {"learning_rate": 0, "dropout": 0, "val_fraction": 0.5, "betas": [1], "epochs": 1, "hidden_dim": 2}
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(
            capsys, "train", "--input", classification_csv, "--config", str(cfg_path), "--output-dir", str(out_dir)
        )
        assert code == 0, err
        manifest = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert {key: manifest[key] for key in cfg} == cfg
        assert [type(manifest[key]) for key in ("learning_rate", "dropout")] == [int, int]
        assert type(manifest["betas"][0]) is int

    def test_learnable_beta_config_without_betas(self, capsys, tmp_path, classification_csv):
        cfg_path = tmp_path / "learn.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "epochs": 3,
                    "betas_learnable": True,
                    "betas_init": [0.0, 0.0, 0.0, 0.0],
                    "task": "classification",
                    "hidden_dim": 4,
                }
            )
        )
        code, _, _ = run_cli(
            capsys, "train", "--input", classification_csv, "--config", str(cfg_path),
            "--output-dir", str(tmp_path / "learned"),
        )
        assert code == 0
        model = json.loads((tmp_path / "learned" / "model.json").read_text())
        assert len(model["layers"][0]["betas"]) == 4


class TestPredictInput:
    def test_column_count_mismatch_names_both_counts(self, capsys, tmp_path, rng):
        from covdensity.network import init_model, save_model

        model_path = tmp_path / "model.json"
        save_model(model_path, init_model(dim=5, n_outputs=2, betas=[1.0], task="classification"), np.eye(5))
        data_path = tmp_path / "rows.csv"
        data_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rng.standard_normal((6, 4))))
        code, out, err = run_cli(
            capsys, "predict", "--input", str(data_path), "--model", str(model_path),
            "--output-dir", str(tmp_path / "preds"),
        )
        assert code == 2
        assert out == ""
        assert "input has 4 columns, model expects 5" in err

    def test_non_finite_model_covariance_is_runtime_error(self, capsys, tmp_path, rng):
        from covdensity.network import init_model, model_to_dict

        payload = model_to_dict(init_model(dim=3, n_outputs=2, betas=[1.0], task="classification"), np.eye(3))
        payload["covariance"][1][1] = math.nan
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))  # written as the token NaN, which json reads back
        data_path = tmp_path / "rows.csv"
        data_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rng.standard_normal((4, 3))))
        code, out, err = run_cli(
            capsys, "predict", "--input", str(data_path), "--model", str(model_path),
            "--output-dir", str(tmp_path / "preds"),
        )
        assert code == 2
        assert out == ""
        assert "non-finite" in err


    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda p: p.pop("head"), "checkpoint lacks key 'head'"),
            (lambda p: p["layers"][0].pop("coeffs"), "missing 1 required positional argument: 'coeffs'"),
            (lambda p: p["layers"][0].update(gain=2.0), "unexpected keyword argument 'gain'"),
            (lambda p: p["layers"][0].update(betas_learnable="true"), "betas_learnable and skip_k0 must be bools"),
            (lambda p: p["layers"][0].update(skip_k0=0), "betas_learnable and skip_k0 must be bools"),
            (lambda p: p["layers"][0].update(coeffs=[[[]]]), "coeffs must have a non-empty shape"),
        ],
    )
    def test_malformed_checkpoint_is_runtime_error(self, capsys, tmp_path, rng, corrupt, message):
        from covdensity.network import init_model, model_to_dict

        payload = model_to_dict(init_model(dim=3, n_outputs=2, betas=[1.0], task="classification"), np.eye(3))
        data_path = tmp_path / "rows.csv"
        data_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rng.standard_normal((4, 3))))
        model_path, out_dir = tmp_path / "model.json", tmp_path / "preds"
        argv = ["predict", "--input", str(data_path), "--model", str(model_path), "--output-dir"]
        del payload["layers"][0]["skip_k0"]  # a checkpoint without skip_k0 loads with the default
        model_path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, *argv, str(tmp_path / "ok"))
        assert code == 0 and len(out.splitlines()) == 4
        corrupt(payload)
        model_path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, *argv, str(out_dir))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda p: [1], "checkpoint /: expected an object, got list"),
        (lambda p: {**p, "layers": p["layers"][0]}, "checkpoint /layers: expected a list, got dict"),
        (lambda p: {**p, "layers": [[1]]}, "checkpoint /layers/0: expected an object, got list"),
        (lambda p: {**p, "head": [1]}, "checkpoint /head: expected an object, got list"),
    ],
)
def test_checkpoint_of_the_wrong_json_kind_names_its_path(capsys, tmp_path, rng, corrupt, message):
    payload = network.model_to_dict(network.init_model(dim=3, n_outputs=2, betas=[1.0]), np.eye(3))
    data_path, model_path, out_dir = tmp_path / "rows.csv", tmp_path / "model.json", tmp_path / "preds"
    data_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rng.standard_normal((4, 3))))
    model_path.write_text(json.dumps(corrupt(payload)))
    code, out, err = run_cli(
        capsys, "predict", "--input", str(data_path), "--model", str(model_path), "--output-dir", str(out_dir)
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_dir.exists()


def _failing_run(name, tmp_path, rng):
    """argv of a subcommand that fails after reading its inputs, for the failure-path check."""
    cov_path, cfg_path = tmp_path / "cov.csv", tmp_path / "cfg.json"
    cov_path.write_text("2.0,0.0,0.0\n0.0,0.0,0.0\n0.0,0.0,0.0\n")
    data_path = tmp_path / "rows.csv"
    data_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rng.standard_normal((30, 4))))
    if name == "density":
        return ["density", "--input", str(cov_path), "--input-is-covariance", "--beta", "-800"]
    if name == "stability":
        cfg_path.write_text(json.dumps({"dim": 4, "trials": 1, "betas": [-1000]}))
        return ["stability", "--config", str(cfg_path)]
    if name == "regression":
        return ["regression", "--trials", "1", "--sample-grid=30,1"]
    if name == "train":
        cfg_path.write_text(json.dumps({"hidden_dim": 0, "betas": [1.0]}))
        return ["train", "--input", str(data_path), "--config", str(cfg_path)]
    model_path = tmp_path / "model.json"
    network.save_model(model_path, network.init_model(dim=5, n_outputs=1, betas=[1.0]), np.eye(5))
    return ["predict", "--input", str(data_path), "--model", str(model_path)]


@pytest.mark.parametrize("name", ["density", "stability", "regression", "train", "predict"])
def test_failing_subcommand_writes_nothing(capsys, tmp_path, rng, name):
    out_dir = tmp_path / "out" / "nested"
    code, out, err = run_cli(capsys, *_failing_run(name, tmp_path, rng), "--output-dir", str(out_dir))
    assert code == 2 and err.startswith("error: ")
    assert out == "" and not (tmp_path / "out").exists()


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(covdensity.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, covdensity.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_console_script_version():
    import subprocess

    result = subprocess.run(["covdensity", "--version"], capture_output=True, text=True)
    assert result.returncode == 0


class TestConfigRecipes:
    """The documented training recipes must validate as-is."""

    @staticmethod
    def _validate(path):
        from covdensity.cli import _load_json_config, _TrainSettings

        cfg = _TrainSettings(**_load_json_config(path, _TrainSettings, "train config"))
        # The ranges of the optimizer's keys are checked where training takes them.
        network.TrainConfig(
            learning_rate=cfg.learning_rate, epochs=cfg.epochs, batch_size=cfg.batch_size, dropout=cfg.dropout
        )
        return cfg

    def test_eeg_style_recipe_accepted(self, tmp_path):
        path = tmp_path / "eeg.json"
        path.write_text(
            json.dumps(
                {
                    "learning_rate": 0.0001,
                    "epochs": 50,
                    "batch_size": 64,
                    "hidden_dim": 128,
                    "num_layers": 1,
                    "activation": "tanh",
                    "dropout": 0.7,
                    "betas": [0.1, 5.0, 15.1],
                }
            )
        )
        cfg = self._validate(path)
        assert cfg.betas == (0.1, 5.0, 15.1)
        assert cfg.dropout == 0.7
        assert cfg.hidden_dim == 128

    def test_financial_learnable_recipe_accepted(self, tmp_path):
        path = tmp_path / "fin.json"
        path.write_text(
            json.dumps(
                {
                    "learning_rate": 0.001,
                    "epochs": 500,
                    "batch_size": 64,
                    "hidden_dim": 128,
                    "num_layers": 1,
                    "activation": "elu",
                    "dropout": 0.5,
                    "betas_learnable": True,
                    "betas_init": [0.0, 0.0, 0.0, 0.0],
                }
            )
        )
        cfg = self._validate(path)
        assert cfg.betas == (0.0, 0.0, 0.0, 0.0)
        assert cfg.betas_learnable is True
        assert cfg.activation == "elu"
