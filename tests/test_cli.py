import csv
import json
import math
import os
import subprocess
import sys
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


def test_config_key_sets():
    from covdensity.cli import _EXPERIMENT_KEYS, _TRAIN_KEYS

    assert _EXPERIMENT_KEYS == {
        "schema_version", "experiment", "dim", "n_samples", "sample_grid", "betas", "noise_levels",
        "trials", "seed", "window", "n_windows", "regime_scale",
        "base_spectrum", "edge_prob", "filter_coeffs", "families", "n_informative",
        "n_train", "n_test", "ridge", "weight_scale", "max_filter_order",
        "beta_range", "eigenvalue_range",
    }
    assert _TRAIN_KEYS == {
        "schema_version", "learning_rate", "epochs", "batch_size", "hidden_dim", "num_layers",
        "activation", "head_activation", "dropout", "betas", "betas_learnable",
        "betas_init", "order", "loss", "seed", "task", "aggregation", "skip_k0",
        "val_fraction",
    }


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

    def test_eeg_style_recipe_accepted(self, tmp_path):
        from covdensity.cli import _load_json_config, _validate_train_config, _TRAIN_KEYS

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
        cfg = _validate_train_config(_load_json_config(path, _TRAIN_KEYS, "train config"))
        assert cfg["betas"] == [0.1, 5.0, 15.1]
        assert cfg["dropout"] == 0.7
        assert cfg["hidden_dim"] == 128

    def test_financial_learnable_recipe_accepted(self, tmp_path):
        from covdensity.cli import _load_json_config, _validate_train_config, _TRAIN_KEYS

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
        cfg = _validate_train_config(_load_json_config(path, _TRAIN_KEYS, "train config"))
        assert cfg["betas"] == [0.0, 0.0, 0.0, 0.0]
        assert cfg["betas_learnable"] is True
        assert cfg["activation"] == "elu"
