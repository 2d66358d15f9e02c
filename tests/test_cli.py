import contextlib
import copy
import csv
import dataclasses
import functools
import io
import json
import math
import operator
import os
import platform
import re
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import covdensity
from conftest import count_linalg_calls
from covdensity import cli, errors, lab, network
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

    def test_manifest_records_the_environment(self, capsys, tmp_path, rank_one_cov, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        code, _, _ = run_cli(
            capsys, "entropy", "--input", rank_one_cov, "--input-is-covariance", "--output-dir", str(tmp_path)
        )
        assert code == 0
        env = json.loads((tmp_path / "manifest.json").read_text())["env"]
        threads = {key: value for key, value in os.environ.items() if key.endswith("_NUM_THREADS")}
        assert threads["OMP_NUM_THREADS"] == "3"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env == {"cpus_usable": lab._WORKERS, "python": platform.python_version(), "numpy": np.__version__,
                       "blas": {"name": blas["name"], "version": blas["version"]}, **threads}
        assert env["cpus_usable"] >= 1

    def test_manifest_blas_is_null_where_numpy_cannot_report_it(self, capsys, tmp_path, rank_one_cov, monkeypatch):
        monkeypatch.setattr(np, "show_config", lambda: None)  # a NumPy before 1.26 takes no mode and prints
        code, _, err = run_cli(capsys, "entropy", "--input", rank_one_cov, "--output-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / "manifest.json").read_text())["env"]["blas"] == {"name": None, "version": None}

    def test_json_artifacts_are_compact_with_sorted_keys(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "stability", "--trials", "1", "--dim", "3", "--output-dir", str(tmp_path))
        assert code == 0
        for name in ("manifest.json", "summary.json"):
            text = (tmp_path / name).read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True)
        network.save_model(tmp_path / "model.json", network.init_model(np.eye(3), 1, network.TrainConfig(betas=(1.0,))))
        text = (tmp_path / "model.json").read_text()
        assert text == json.dumps(json.loads(text))

    def test_missing_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "entropy")
        assert code == 1
        assert "usage" in err.lower()
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["--version"],
            ["stability", "--help"],
            ["entropy"],
            ["stability", "--dim", "five"],
            ["regression", "--betas", "1,x"],
            ["bogus"],
            ["fit-beta"],
        ],
    )
    def test_cached_parser_prints_what_a_fresh_parser_prints(self, capsys, tmp_path, rank_one_cov, argv):
        cli._build_parser.cache_clear()
        fresh = run_cli(capsys, *argv)
        # Calls that parse, fail to parse and print help in between leave the cached parser as it was built.
        run_cli(capsys, "entropy", "--input", rank_one_cov, "--flux", "9")
        run_cli(capsys, "surrogate", "--help")
        assert run_cli(capsys, "entropy", "--input", rank_one_cov, "--beta", "2", "--output-dir", str(tmp_path))[0] == 0
        assert cli._build_parser() is cli._build_parser()
        assert run_cli(capsys, *argv) == fresh
        assert fresh[0] in (0, 1) and fresh[1] + fresh[2]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--spectrum", "1,2,3", "--input", "/nonexistent.csv"], "argument --input: not allowed with argument --spectrum"),
            ([], "one of the arguments --spectrum --input is required"),
        ],
    )
    def test_fit_beta_reads_exactly_one_spectrum_source(self, capsys, tmp_path, argv, message):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "fit-beta", *argv, "--output-dir", str(out_dir))
        assert (code, out) == (1, "") and err.startswith(f"{message}\n"), err
        assert not out_dir.exists()

    def test_unknown_flag_rejected(self, capsys, rank_one_cov):
        code, _, err = run_cli(capsys, "entropy", "--input", rank_one_cov, "--flux", "9")
        assert code == 1
        assert "usage" in err.lower()

    @pytest.mark.parametrize(
        "argv,code,err",
        [
            (["stability", "--betas", "-1,0.5", "--dim", "4", "--trials", "1"], 0, ""),
            (["entropy", "--beta", "-1e-3", "--input", "{cov}", "--input-is-covariance"], 0, ""),
            (["fit-beta", "--spectrum", "-2,-1"], 2, "error: spectrum has no positive eigenvalue to normalize"),
            (["stability", "--noise-levels", "-0.1,0.2"], 2, "error: /noise_levels: entries must be >= 0"),
            # An unknown flag is still one, whatever its value looks like.
            (["stability", "--bogus", "-1"], 1, "unrecognized arguments: --bogus -1\n"),
        ],
    )
    def test_a_value_that_starts_with_a_minus_sign_is_a_value(self, capsys, tmp_path, rank_one_cov, argv, code, err):
        out_dir = tmp_path / "out"
        argv = [rank_one_cov if arg == "{cov}" else arg for arg in argv]
        got = run_cli(capsys, *argv, "--output-dir", str(out_dir))
        assert got[0] == code and got[2].startswith(err), got
        assert out_dir.exists() == (code == 0)

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

    @pytest.mark.parametrize(
        "spectrum", [["--spectrum", "0,0,0"], ["--spectrum=-2,-1"], ["--spectrum", "-2,-1"], None]
    )
    def test_default_target_needs_a_positive_eigenvalue(self, capsys, tmp_path, spectrum):
        if spectrum is None:
            path = tmp_path / "zero.csv"
            path.write_text("0,0\n0,0\n")
            spectrum = ["--input", str(path), "--input-is-covariance"]
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fit-beta", *spectrum, "--output-dir", str(out_dir))
        assert (code, out, err) == (2, "", "error: spectrum has no positive eigenvalue to normalize\n")
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("error")
    def test_default_target_of_an_overflowing_sum_is_formed(self, capsys, tmp_path):
        # A clipped sum that overflows a double is formed after dividing by the largest entry: the target
        # (0.5, 0.5, 5e-309) reaches the fit, which finds its mean on the hull, as it does below the overflow.
        out_dir = tmp_path / "out"
        for spectrum, mean in (("1e308,1e308,1", "1e+308"), ("8e307,8e307,1", "8e+307")):
            code, out, err = run_cli(capsys, "fit-beta", "--spectrum", spectrum, "--output-dir", str(out_dir))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: target mean {mean} lies outside the open spectral hull")
            assert len(err.splitlines()) == 1
            assert not out_dir.exists()
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

    def test_overflowing_partition_function_writes_its_log(self, capsys, tmp_path, rank_one_cov):
        # Z = exp(1600) overflows a double; the summary keeps ln Z, as every density eigenvalue is finite.
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "density", "--input", rank_one_cov, "--input-is-covariance",
            "--beta", "-800", "--output-dir", str(out_dir),
        )
        assert (code, out, err) == (0, "0,0,1\n", "")
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary == {"log_partition": 1600.0, "beta": -800.0, "dim": 3}


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
        assert err == f"error: /sample_grid: entries must be integers >= 2, got {bad}\n"
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("subcommand", ["regression", "surrogate"])
    @pytest.mark.parametrize("bad", [2.5, True])
    def test_sample_grid_non_integer_in_config_rejected(self, capsys, tmp_path, subcommand, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 1, "sample_grid": [30, bad]}))
        code, _, err = run_cli(capsys, subcommand, "--config", str(cfg_path), "--output-dir", str(tmp_path))
        assert code == 2
        assert err == f"error: /sample_grid: entries must be integers >= 2, got {bad!r}\n"
        assert not (tmp_path / "results.csv").exists()

    def test_no_connected_graph_is_runtime_error(self, capsys, tmp_path):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({"edge_prob": 1e-9, "trials": 1}))
        code, out, err = run_cli(capsys, "surrogate", "--config", str(cfg_path), "--output-dir", str(out_dir))
        assert (code, out, err) == (2, "", "error: no connected graph in 100 attempts (dim=20, edge_prob=1e-09)\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "cfg",
        [{"beta_range": [0, 0]}, {"eigenvalue_range": [1, 1], "trials": 5}],
        ids=["zero_alpha_filters", "tied_pairs"],  # beta = 0 gives zero-alpha filters only; a zero-width range ties
    )
    def test_lipschitz_with_every_trial_skipped(self, capsys, tmp_path, cfg):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "lipschitz", "--config", str(cfg_path), "--output-dir", str(out_dir))
        assert (code, out) == (0, "records=0\n")
        assert json.loads((out_dir / "summary.json").read_text()) == {"groups": {}, "headline": "records=0"}
        assert (out_dir / "results.csv").read_text() == "experiment,seed\n"

    @pytest.mark.parametrize(
        "cfg",
        [
            {"trials": 1, "seed": 6, "eigenvalue_range": [1e-310, 1e308]},  # a gap near 1e308 (seed 0's alpha is < 1)
            {"trials": 1, "beta_range": [1e-310, 1e308]},  # an alpha near 1e308
        ],
    )
    def test_lipschitz_ratio_past_the_largest_double(self, capsys, tmp_path, cfg):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "lipschitz", "--config", str(cfg_path), "--output-dir", str(out_dir))
        assert (code, err) == (0, "")  # the suite turns an overflow warning into an error, which exits 2
        with open(out_dir / "results.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        alpha, diff = float(row["m:alpha"]), float(row["m:response_diff"])
        gap = abs(float(row["m:lambda2"]) - float(row["m:lambda1"]))
        assert math.isinf(alpha * gap)
        assert float(row["m:ratio"]) == diff / alpha / gap > 0.0

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

    @pytest.mark.parametrize("grid", ["2", "2,100", "100,2"])
    def test_surrogate_headline_names_every_n_of_the_grid(self, capsys, tmp_path, grid):
        # At n = 2 every draw is degenerate and records no alignment; that n is still named, in ascending order.
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "surrogate", "--dim", "5", "--sample-grid", grid, "--trials", "2", "--output-dir", str(out_dir)
        )
        assert (code, err) == (0, "")
        with open(out_dir / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        parts = ["n=2:none"]
        if grid != "2":
            alignments = [float(r["m:alignment"]) for r in rows if r["p:n_samples"] == "100.0"]
            parts.append(f"n=100:{np.mean(alignments):.4f}")
        headline = "mean_alignment " + " ".join(parts)
        assert out == f"{headline}\n"
        assert json.loads((out_dir / "summary.json").read_text())["headline"] == headline

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

    @pytest.mark.parametrize(
        "subcommand,flags,cfg,message",
        [
            ("regression", ["--noise-levels", "-1"], {}, "/noise_levels: entries must be >= 0, got [-1.0]"),
            ("stability", ["--noise-levels", "-0.1"], {}, "/noise_levels: entries must be >= 0, got [-0.1]"),
            ("betafit-demo", ["--noise-levels", "-0.1"], {}, "/noise_levels: entries must be >= 0, got [-0.1]"),
            ("lipschitz", [], {"beta_range": [3, -3]}, "/beta_range: must be [low, high] with low <= high, got [3, -3]"),
            (
                "lipschitz", [], {"eigenvalue_range": [10, 0]},
                "/eigenvalue_range: must be [low, high] with low <= high, got [10, 0]",
            ),
            ("regression", [], {"weight_scale": -1}, "/weight_scale: must be >= 0, got -1"),
            ("regression", [], {"ridge": -1}, "/ridge: must be >= 0, got -1"),
            ("stability", ["--noise-levels", "inf"], {}, "/noise_levels: entries must be finite, got [inf]"),
            ("regression", ["--noise-levels", "0,inf"], {}, "/noise_levels: entries must be finite, got [0.0, inf]"),
            # A repeated grid entry would merge its rows into one summary group.
            ("stability", ["--betas", "1,1"], {}, "/betas: entries must be distinct, got [1.0, 1.0]"),
            ("stability", ["--betas", "0,-0"], {}, "/betas: entries must be distinct, got [0.0, -0.0]"),
            ("regression", ["--sample-grid", "50,50"], {}, "/sample_grid: entries must be distinct, got [50, 50]"),
            ("entropy-curve", ["--betas", "2,2"], {}, "/betas: entries must be distinct, got [2.0, 2.0]"),
            ("surrogate", ["--sample-grid", "100,100"], {}, "/sample_grid: entries must be distinct, got [100, 100]"),
            ("betafit-demo", ["--noise-levels", "0.1,0.1"], {}, "/noise_levels: entries must be distinct, got [0.1, 0.1]"),
            (
                "entropy-curve", [], {"families": ["gamma", "gaussian", "gamma"]},
                "/families: entries must be distinct, got ['gamma', 'gaussian', 'gamma']",
            ),
            # An unknown family is named before any draw.
            (
                "entropy-curve", [], {"families": ["gaussian", "gausian"]},
                "/families: entries must be 'gaussian' or 'exponential' or 'gamma', got ['gaussian', 'gausian']",
            ),
            (
                "lipschitz", [], {"beta_range": [-1e308, 1e308]},
                "/beta_range: high - low must be finite, got [-1e+308, 1e+308]",
            ),
            (
                "lipschitz", [], {"eigenvalue_range": [-1e308, 1e308]},
                "/eigenvalue_range: high - low must be finite, got [-1e+308, 1e+308]",
            ),
            # g(L) itself overflows, then g(lambda)^2, then g(L) S_w g(L)^T.
            (
                "surrogate", ["--dim", "5"], {"filter_coeffs": [1.0, 1e308]},
                "filter_coeffs: the filter g(L) overflows a double, got [1.0, 1e+308]",
            ),
            (
                "surrogate", ["--dim", "5"], {"filter_coeffs": [1e200, 1.0]},
                "filter_coeffs: the population covariance g(L)^2 overflows a double, got [1e+200, 1.0]",
            ),
            (
                "surrogate", ["--dim", "5", "--seed", "6", "--sample-grid", "2"], {"filter_coeffs": [1.5e154, 1.0]},
                "filter_coeffs: the population covariance g(L)^2 overflows a double, got [1.5e+154, 1.0]",
            ),
            # A constant g = 1e154 squares to a finite 1e308, but g(L) S_w g(L)^T with a two-sample S_w does not.
            (
                "surrogate", ["--dim", "5", "--seed", "0", "--sample-grid", "2"], {"filter_coeffs": [1e154, 0.0]},
                "sample covariance overflows a double",
            ),
            # The regime-1 spectrum base * scale overflows a double.
            (
                "discriminate", [], {"regime_scale": [1e308, 1, 1], "base_spectrum": [10, 1, 0]},
                "/regime_scale: base_spectrum * regime_scale must be finite, got [10, 1, 0] * [1e+308, 1, 1]",
            ),
            ("discriminate", ["--beta", "inf"], {}, "/beta: must be finite, got inf"),
            # The same bounds on JSON integers whose difference or product no double holds.
            pytest.param(
                "lipschitz", [], {"beta_range": [-10**308, 10**308]},
                f"/beta_range: high - low must be finite, got [{-10**308}, {10**308}]", id="lipschitz-int-range",
            ),
            pytest.param(
                "regression", [], {"ridge": 10**308}, f"/ridge: ridge * n_train must be finite, got {10**308} * 100",
                id="regression-int-ridge",
            ),
            pytest.param(
                "discriminate", [], {"regime_scale": [10**200, 1, 1], "base_spectrum": [10**200, 1, 0]},
                "/regime_scale: base_spectrum * regime_scale must be finite, "
                f"got [{10**200}, 1, 0] * [{10**200}, 1, 1]",
                id="discriminate-int-spectra",
            ),
            # Z'/Z = exp(ln Z' - ln Z) underflows to 0.0, which the error bound divides by.
            (
                "stability", ["--betas", "1e300"], {},
                "density error bound overflows a double at beta = 1e+300, ||C|| = 2.29051",
            ),
            ("regression", [], {"weight_scale": 1e308}, "/weight_scale: the labels overflow a double, got 1e+308"),
            ("regression", [], {"ridge": 1e308}, "/ridge: ridge * n_train must be finite, got 1e+308 * 100"),
            (
                "regression", [], {"ridge": 1e307, "n_train": 50},
                "/ridge: ridge * n_train must be finite, got 1e+307 * 50",
            ),
            ("regression", [], {"betas": [1e308]}, "/betas: 1/Z = exp(3.84965e+306) overflows a double"),
            # A level's draws are seeded with round(noise * 1000), which overflows here.
            (
                "regression", ["--noise-levels", "1e306"], {},
                "/noise_levels: entries * 1000 must be finite to seed the draws, got [1e+306]",
            ),
            # Finite labels whose mean overflows; then labels whose ridge-free fit overflows.
            ("regression", [], {"weight_scale": 1e306}, "/weight_scale: the labels overflow a double, got 1e+306"),
            (
                "regression", [], {"weight_scale": 1e304, "ridge": 0},
                "/weight_scale: the labels overflow a double, got 1e+304",
            ),
            # beta * lambda overflows, named by its larger factor; then alpha = sum_k |h_k| |beta k| overflows.
            (
                "lipschitz", ["--seed", "5"], {"eigenvalue_range": [1e-310, 1e308]},
                "/eigenvalue_range: beta * lambda overflows a double at beta = -2.72835, ||C|| = 8.07941e+307",
            ),
            (
                "lipschitz", [], {"max_filter_order": 1, "beta_range": [1e308, 1.7e308]},
                "/beta_range: beta * lambda overflows a double at beta = 1.56929e+308, ||C|| = 6.36962",
            ),
            (
                "lipschitz", [], {"trials": 3, "beta_range": [1e307, 1.7e308], "eigenvalue_range": [0, 1e-10]},
                "/beta_range: alpha = sum_k |h_k| |beta k| overflows a double at beta = 1.07062e+308",
            ),
            (
                "lipschitz", [], {"trials": 5, "beta_range": [1e308, 1.7e308]},
                "/beta_range: alpha = sum_k |h_k| |beta k| overflows a double at beta = 1.42465e+308",
            ),
        ],
    )
    def test_out_of_range_experiment_value_is_named(self, capsys, tmp_path, subcommand, flags, cfg, message):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps(cfg if subcommand == "discriminate" else {"trials": 1, **cfg}))  # no trials key
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, subcommand, *flags, "--config", str(cfg_path), "--output-dir", str(out_dir)
            )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert [str(w.message) for w in caught] == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("noise,gradient", [("1e100", "2.43e+83"), ("1e300", "5.74e+299")])
    def test_betafit_demo_unconverged_fit_exits_2_without_warnings(self, capsys, tmp_path, noise, gradient):
        # At such scales rounding keeps |f'(beta)| far above tol; at 1e300 the spectrum also spreads past
        # sqrt(DBL_MAX), where (lambda - mean)^2 overflows.
        out_dir = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "betafit-demo", "--dim", "5", "--trials", "2", "--noise-levels", noise,
                "--output-dir", str(out_dir),
            )
        message = f"fit_beta did not converge: |f'(beta)| = {gradient} > tol = 1e-10 after 100 steps"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert [str(w.message) for w in caught] == []
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "subcommand,message",
        [
            # betafit-demo stops at its fit, before its alternative betas meet the range error.
            ("betafit-demo", "fit_beta did not converge: |f'(beta)| = 5.74e+307 > tol = 1e-10 after 100 steps"),
            ("stability", "beta * lambda overflows a double at beta = 5, ||C|| = 1e+308"),
        ],
    )
    def test_noise_near_the_largest_double_is_a_range_error_without_warning(
        self, capsys, tmp_path, subcommand, message
    ):
        # norms * e overflows for a noise norm of 1e308 although every entry of the perturbation is finite.
        out_dir = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, subcommand, "--dim", "5", "--trials", "2", "--noise-levels", "1e308",
                "--output-dir", str(out_dir),
            )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert [str(w.message) for w in caught] == []
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["stability", "--betas", "1e308", "--trials", "1"],
             "density error bound overflows a double at beta = 1e+308, ||C|| = 2.29051"),
            (["fit-beta", "--spectrum", "-1e308,1e308", "--target", "0.5,0.5"],
             "metric 'curvature_at_solution' is not finite: inf"),
        ],
    )
    def test_exponents_straddling_the_double_range_print_only_the_error(self, capsys, tmp_path, argv, message):
        # A density row whose exponents differ by more than the largest double shifts its smallest to -inf.
        out_dir = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv, "--output-dir", str(out_dir))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert [str(w.message) for w in caught] == []
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "spectrum,message",
        [
            ("-1e308,0,1e308", "target mean 1e+308 lies outside the open spectral hull (-1e+308, 1e+308)"),
            ("0,1e300,2e300", "fit_beta did not converge: |f'(beta)| = 3.33e+299 > tol = 1e-10 after 100 steps"),
        ],
    )
    def test_fit_beta_past_the_spread_range_prints_only_the_error(self, capsys, tmp_path, spectrum, message):
        out_dir = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "fit-beta", f"--spectrum={spectrum}", "--output-dir", str(out_dir))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert [str(w.message) for w in caught] == []
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "cfg,message",
        [
            ({"base_spectrum": [-1, 1, 0]}, "/base_spectrum: entries must be >= 0, got [-1, 1, 0]"),
            ({"regime_scale": [1, -1, 1]}, "/regime_scale: entries must be >= 0, got [1, -1, 1]"),
        ],
    )
    def test_negative_spectrum_entry_prints_only_the_error(self, capsys, tmp_path, cfg, message):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({**cfg, "n_windows": 5}))
        code, out, err = run_cli(capsys, "discriminate", "--config", str(cfg_path), "--output-dir", str(out_dir))
        assert (code, out, err) == (2, "", f"error: {message}\n")
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
        assert err == f"error: {cfg_path}: /schema_version: must be the integer 1, got 2\n"

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
            assert (code, out, err) == (2, "", f"error: /seed: must be >= 0, got {value}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand,experiment", cli.EXPERIMENT_SUBCOMMANDS.items())
    def test_every_experiment_config_field_is_a_config_key(self, capsys, tmp_path, subcommand, experiment):
        config_class = lab.RUNNERS[experiment][0]
        tiny = {"dim": 4, "trials": 1, "n_windows": 5, "sample_grid": [30], "n_test": 20, "n_informative": 2}
        payload = {f.name: tiny.get(f.name, f.default) for f in dataclasses.fields(config_class)}
        payload.update(schema_version=1, experiment=experiment)
        cfg_path = tmp_path / "full.json"
        cfg_path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, subcommand, "--config", str(cfg_path), "--output-dir", str(tmp_path / "ok"))
        assert code == 0, err
        manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
        del payload["schema_version"], payload["experiment"]
        assert manifest["config"] == json.loads(json.dumps(payload))  # the declared keys, as they ran
        unread = "window" if experiment != "discrimination" else "dim"
        for key in ("unknown", unread):
            cfg_path.write_text(json.dumps({**payload, key: 1}))
            code, _, err = run_cli(capsys, subcommand, "--config", str(cfg_path), "--output-dir", str(tmp_path / "bad"))
            assert (code, err) == (2, f"error: {cfg_path}: /{key}: unknown key, got 1\n")

    def test_manifest_records_the_defaults_that_ran(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "regression", "--trials", "1", "--output-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / "manifest.json").read_text())["config"] == {
            "betas": [0.1, 1.0, 5.0, 15.0], "dim": 20, "n_informative": 5, "n_test": 500, "n_train": 100,
            "noise_levels": [0.0, 5.0], "ridge": 2e-4, "sample_grid": [25, 50, 100, 250, 1000], "seed": 0,
            "trials": 1, "weight_scale": 0.7,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["lipschitz", "--dim", "999999", "--betas", "5", "--noise-levels", "3", "--trials", "2"],
            ["lipschitz", "--n-samples", "1"],
            ["discriminate", "--trials", "7"],
            ["surrogate", "--betas", "1"],
            ["betafit-demo", "--sample-grid", "30"],
            ["discriminate", "--betas", "1,7,9"],
        ],
    )
    def test_flag_of_an_unread_key_is_a_usage_error(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, "--output-dir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err.startswith(f"unrecognized arguments: {argv[1]} ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "subcommand,key",
        [
            (subcommand, key)
            for subcommand, experiment in cli.EXPERIMENT_SUBCOMMANDS.items()
            for key in ("betas", "noise_levels", "sample_grid")
            if key in {f.name for f in dataclasses.fields(lab.RUNNERS[experiment][0])}
        ],
    )
    def test_empty_grid_is_rejected(self, capsys, tmp_path, subcommand, key):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({key: []}))
        for flags in ([f"--{key.replace('_', '-')}="], ["--config", str(cfg_path)]):
            code, out, err = run_cli(capsys, subcommand, *flags, "--output-dir", str(out_dir))
            assert (code, out, err) == (2, "", f"error: /{key}: must be non-empty, got []\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "subcommand,cfg,message",
        [
            ("surrogate", {"edge_prob": 0}, "/edge_prob: must be in (0, 1], got 0"),
            ("surrogate", {"edge_prob": 1.5}, "/edge_prob: must be in (0, 1], got 1.5"),
            ("discriminate", {"window": 3}, "/window: too small for dim 3 (need >= dim + 1), got 3"),
            ("discriminate", {"regime_scale": [1.0, 2.0]}, "/regime_scale: must match the base spectrum length 3"),
            ("surrogate", {"filter_coeffs": [1.0, math.nan]}, "/filter_coeffs: entries must be finite, got [1.0, nan]"),
            ("surrogate", {"filter_coeffs": [math.inf]}, "/filter_coeffs: entries must be finite, got [inf]"),
        ],
    )
    def test_declared_check_runs_before_any_draw(self, capsys, tmp_path, monkeypatch, subcommand, cfg, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking the config")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, subcommand, "--config", str(cfg_path), "--output-dir", str(out_dir))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()


_EXPERIMENT_KEYS = {
    "stability": {"dim", "n_samples", "betas", "noise_levels", "trials", "seed"},
    "lipschitz": {"trials", "seed", "max_filter_order", "beta_range", "eigenvalue_range"},
    "surrogate": {"dim", "sample_grid", "trials", "seed", "edge_prob", "filter_coeffs"},
    "regression": {
        "dim", "sample_grid", "betas", "noise_levels", "trials", "seed", "n_informative", "n_train", "n_test",
        "ridge", "weight_scale",
    },
    "entropy_curve": {"dim", "n_samples", "betas", "trials", "seed", "families"},
    "discrimination": {"beta", "seed", "window", "n_windows", "regime_scale", "base_spectrum"},
    "betafit_demo": {"dim", "n_samples", "noise_levels", "trials", "seed"},
}


def test_config_key_sets(tmp_path):
    from covdensity.cli import _load_json_config

    train_keys = {
        "learning_rate", "epochs", "batch_size", "hidden_dim", "num_layers",
        "activation", "head_activation", "dropout", "betas", "betas_learnable",
        "betas_init", "order", "loss", "seed", "task", "aggregation", "skip_k0",
        "val_fraction",
    }
    assert set(lab.RUNNERS) == set(_EXPERIMENT_KEYS)
    assert sum(map(len, _EXPERIMENT_KEYS.values())) == 45
    path = tmp_path / "keys.json"
    cases = [(lab.RUNNERS[name][0], keys) for name, keys in _EXPERIMENT_KEYS.items()] + [(network.TrainConfig, train_keys)]
    for config_class, keys in cases:
        path.write_text(json.dumps(dict.fromkeys(keys | {"schema_version"}, 1)))  # every key is accepted ...
        assert set(_load_json_config(path, config_class)) == keys
        # ... and no other, since the loader accepts exactly the fields.
        assert {f.name for f in dataclasses.fields(config_class)} == keys


def test_every_checked_key_is_a_declared_key():
    # A bound in the shared table must belong to some config the CLI builds, and a config's own rules to its own keys.
    configs = [config_class for config_class, _ in lab.RUNNERS.values()] + [network.TrainConfig]
    declared = [{f.name for f in dataclasses.fields(config_class)} for config_class in configs]
    assert {key for key, _, _ in errors._KEY_RULES} <= set().union(*declared)
    for config_class, keys in zip(configs, declared):
        cfg = config_class(betas=(1.0,)) if config_class is network.TrainConfig else config_class()
        assert {key for key, _, _ in cfg._rules()} <= keys, config_class.__name__


def _config_fields():
    return [
        pytest.param(subcommand, f, id=f"{subcommand}-{f.name}")
        for subcommand, config_class in (
            *((subcommand, lab.RUNNERS[experiment][0]) for subcommand, experiment in cli.EXPERIMENT_SUBCOMMANDS.items()),
            ("train", network.TrainConfig),
        )
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
    kind = field.type.split("[")[0].split(" |")[0]
    for value in _WRONG_VALUES[kind]:
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({field.name: value}))
        argv = [subcommand, "--config", str(cfg_path), "--output-dir", str(out_dir)]
        code, out, err = run_cli(capsys, *argv, *(["--input", gaussian_data_csv] if subcommand == "train" else []))
        assert (code, out) == (2, ""), (value, err)
        assert err.startswith(f"error: /{field.name}: expected ") or (
            err == f"error: /sample_grid: entries must be integers >= 2, got {value[0]!r}\n"
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
        ("surrogate", {"edge_prob": "x"}, "/edge_prob: expected float, got 'x'"),
        ("train", {"betas": [True]}, "/betas: expected tuple[float, ...] | None, got [True]"),
        # An int past the largest double is no float.
        pytest.param(
            "lipschitz", {"beta_range": [0, 10**400]}, f"/beta_range: expected tuple[float, float], got [0, {10**400}]",
            id="lipschitz-beta_range-int-past-the-doubles",
        ),
        pytest.param(
            "stability", {"noise_levels": [10**400]}, f"/noise_levels: expected tuple[float, ...], got [{10**400}]",
            id="stability-noise_levels-int-past-the-doubles",
        ),
        pytest.param(
            "regression", {"n_train": 10**400}, f"/n_train: must be a count a double holds, got {10**400}",
            id="regression-n_train-int-past-the-doubles",
        ),
        ("stability", {"schema_version": True}, "/schema_version: must be the integer 1, got True"),
        ("train", {"schema_version": True}, "/schema_version: must be the integer 1, got True"),
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


@pytest.mark.parametrize(
    "subcommand,key,cfg",
    [
        ("stability", "betas", {"dim": 5, "trials": 1}),
        ("regression", "betas", {"trials": 1, "sample_grid": [30]}),
        ("entropy-curve", "betas", {"dim": 4, "trials": 1}),
        ("discriminate", "beta", {"n_windows": 5}),
    ],
)
def test_integer_beta_past_int64_runs_as_its_double(capsys, tmp_path, subcommand, key, cfg):
    # A JSON integer that a double holds but int64 does not gives what the double gives, not a NumPy type error.
    runs = []
    for value in (10**300, 1e300):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / f"out{len(runs)}"
        cfg_path.write_text(json.dumps({**cfg, key: [value] if key == "betas" else value}))
        code, out, err = run_cli(capsys, subcommand, "--config", str(cfg_path), "--output-dir", str(out_dir))
        results = (out_dir / "results.csv").read_text() if code == 0 else None
        runs.append((code, out, err, results))
    assert runs[0] == runs[1]


ACTIVATION_NAMES = "'tanh' or 'elu' or 'relu' or 'identity'"


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
        model = network.load_model(tmp_path / "model" / "model.json")
        expected = network.forward_rows(model, values[:7])
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
            ({"order": -1}, "/order: must be >= 0, got -1"),
            ({"hidden_dim": 0}, "/hidden_dim: must be >= 1, got 0"),
            ({"betas": []}, "/betas: must be non-empty, got []"),
            ({"betas": None, "betas_init": []}, "/betas: must be non-empty, got []"),
            ({"epochs": "5"}, "/epochs: expected int, got '5'"),
            ({"epochs": True}, "/epochs: expected int, got True"),
            ({"epochs": 5.0}, "/epochs: expected int, got 5.0"),
            ({"dropout": False}, "/dropout: expected float, got False"),
            ({"skip_k0": 1}, "/skip_k0: expected bool, got 1"),
            ({"activation": None}, "/activation: expected str, got None"),
            ({"seed": -1}, "/seed: must be >= 0, got -1"),
            ({"epochs": 0}, "/epochs: must be >= 1, got 0"),
            ({"learning_rate": -1}, "/learning_rate: must be finite and >= 0, got -1"),
            ({"batch_size": 0}, "/batch_size: must be >= 1, got 0"),
            ({"dropout": 1}, "/dropout: must be in [0, 1), got 1"),
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

    @pytest.mark.parametrize(
        "label, got",
        [("1e300", "1e+300"), ("2.5e9", "2.5e+09"), ("80", "80")],  # a cast warning, a 596 GiB head, one class too many
    )
    def test_label_past_the_row_count_is_rejected_before_the_cast(self, capsys, tmp_path, classification_csv, label, got):
        lines = Path(classification_csv).read_text().splitlines()
        lines[5] = f"{lines[5].rsplit(',', 1)[0]},{label}"
        data_path, cfg_path, out_dir = tmp_path / "labels.csv", tmp_path / "cfg.json", tmp_path / "out"
        data_path.write_text("\n".join(lines) + "\n")
        cfg_path.write_text(json.dumps({"epochs": 1, "betas": [1.0], "task": "classification"}))
        code, out, err = run_cli(
            capsys, "train", "--input", str(data_path), "--config", str(cfg_path), "--output-dir", str(out_dir)
        )
        message = f"classification targets must be below the row count 80 (n rows hold at most n classes), got {got}"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("label", [repr(1.0 + 1e-10), repr(1.0 - 1e-10)])
    def test_label_near_an_integer_is_rejected(self, capsys, tmp_path, classification_csv, label):
        # A label is a class only if it is exactly an integer, however close it lies on either side.
        lines = Path(classification_csv).read_text().splitlines()
        lines[5] = f"{lines[5].rsplit(',', 1)[0]},{label}"
        data_path, cfg_path, out_dir = tmp_path / "labels.csv", tmp_path / "cfg.json", tmp_path / "out"
        data_path.write_text("\n".join(lines) + "\n")
        cfg_path.write_text(json.dumps({"epochs": 1, "betas": [1.0], "task": "classification"}))
        code, out, err = run_cli(
            capsys, "train", "--input", str(data_path), "--config", str(cfg_path), "--output-dir", str(out_dir)
        )
        assert (code, out, err) == (2, "", "error: classification targets must be nonnegative integers\n")
        assert not out_dir.exists()

    def test_negative_seed_flag_rejected(self, capsys, tmp_path, classification_csv):
        code, out, err = run_cli(
            capsys, "train", "--input", classification_csv, "--seed", "-1", "--output-dir", str(tmp_path / "out")
        )
        assert (code, out, err) == (2, "", "error: /seed: must be >= 0, got -1\n")

    @pytest.mark.parametrize(
        "cfg,message",
        [
            ({"epochs": 0}, "/epochs: must be >= 1, got 0"),
            ({"activation": "foo"}, f"/activation: expected {ACTIVATION_NAMES}, got 'foo'"),
            ({"head_activation": "foo"}, f"/head_activation: expected {ACTIVATION_NAMES}, got 'foo'"),
            ({"aggregation": "max"}, "/aggregation: expected 'concatenate' or 'sum' or 'mean', got 'max'"),
            ({"task": "regresion"}, "/task: expected 'regression' or 'classification', got 'regresion'"),
            ({"loss": "hinge"}, "/loss: expected 'mse' or 'mae' for task 'regression', got 'hinge'"),
            (
                {"loss": "mse", "task": "classification"},
                "/loss: expected 'cross_entropy' for task 'classification', got 'mse'",
            ),
            ({"learning_rate": math.nan}, "/learning_rate: must be finite and >= 0, got nan"),
            ({"learning_rate": math.inf}, "/learning_rate: must be finite and >= 0, got inf"),
            ({"betas": [math.nan]}, "/betas: entries must be finite, got [nan]"),
            ({"betas": None, "betas_init": [0.0, math.nan]}, "/betas_init: entries must be finite, got [0.0, nan]"),
        ],
    )
    def test_config_is_checked_before_the_input_is_read(self, capsys, tmp_path, cfg, message):
        cfg_path, out_dir = tmp_path / "bad.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({"betas": [1.0], **cfg}))  # NaN and Infinity, as Python's json reads them
        code, out, err = run_cli(
            capsys, "train", "--input", str(tmp_path / "missing.csv"), "--config", str(cfg_path),
            "--output-dir", str(out_dir),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "rows,argv,message",
        [
            (["1,2", "3,4", "5,6", "7,8", "9,10"], ["--horizon", "5"], "need more than 5 rows for horizon 5"),
            (["1", "2", "3", "4"], [], "need at least two columns (features + target)"),
        ],
    )
    def test_input_too_small_for_the_targets_is_rejected(self, capsys, tmp_path, rows, argv, message):
        data, cfg_path, out_dir = tmp_path / "data.csv", tmp_path / "cfg.json", tmp_path / "out"
        data.write_text("\n".join(rows) + "\n")
        cfg_path.write_text(json.dumps({"betas": [1.0], "epochs": 1}))
        code, out, err = run_cli(
            capsys, "train", "--input", str(data), "--config", str(cfg_path), *argv, "--output-dir", str(out_dir)
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    def test_betas_init_that_differs_from_betas_is_rejected(self, capsys, tmp_path, classification_csv):
        # Given both, a different betas_init would be ignored: training starts from betas.
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({"betas": [1.0, 2.0], "betas_init": [3.0, 4.0, 5.0], "betas_learnable": True,
                                        "epochs": 1}))
        code, out, err = run_cli(
            capsys, "train", "--input", classification_csv, "--config", str(cfg_path), "--output-dir", str(out_dir)
        )
        message = "/betas_init: must equal betas when both are given, got [3.0, 4.0, 5.0] and betas [1.0, 2.0]"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    def test_betas_init_equal_to_betas_passes(self):
        # The rule compares values: the integer 1 and the float 1.0 are one scale.
        assert network.TrainConfig(betas=(1.0, 2.0), betas_init=(1, 2.0), betas_learnable=True).betas == (1.0, 2.0)

    def test_train_betas_may_repeat(self):
        # Train betas index filter scales, not rows: the experiments' distinct-entries rule does not apply.
        assert network.TrainConfig(betas=(1.0, 1.0)).betas == (1.0, 1.0)
        assert network.TrainConfig(betas_init=(0, 0, 0, 0)).betas == (0, 0, 0, 0)

    def test_negative_horizon_rejected(self, capsys, tmp_path, classification_csv):
        model_path, cfg_path = tmp_path / "model.json", tmp_path / "cfg.json"
        network.save_model(model_path, network.init_model(np.eye(5), 1, network.TrainConfig(betas=(1.0,))))
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

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_predict_with_horizon_on_a_classification_model_rejected(self, capsys, tmp_path, classification_csv,
                                                                     horizon):
        model_path, out_dir = tmp_path / "model.json", tmp_path / "out"
        cfg = network.TrainConfig(betas=(1.0,), task="classification")
        network.save_model(model_path, network.init_model(np.eye(4), 2, cfg))
        features_path = tmp_path / "features.csv"
        rows = Path(classification_csv).read_text().splitlines()
        features_path.write_text("".join(row.rsplit(",", 1)[0] + "\n" for row in rows))  # the label column goes
        code, out, err = run_cli(
            capsys, "predict", "--input", str(features_path), "--model", str(model_path), "--horizon", str(horizon),
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

    def test_divergence_in_the_first_epoch_exits_2_naming_the_stage(self, capsys, tmp_path, classification_csv):
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({"learning_rate": 1e200, "betas": [1.0], "epochs": 2}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "train", "--input", classification_csv, "--config", str(cfg_path), "--output-dir", str(out_dir)
            )
        message = "train epoch 1 of 2 diverged before any finite validation loss: non-finite batch loss inf"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert [str(w.message) for w in caught] == []
        assert not out_dir.exists()

    def test_adam_second_moment_overflow_exits_2_naming_the_stage(self, capsys, tmp_path):
        # At learning rate 1e40 the gradients pass 1.3e154 in the first epoch, where their squares overflow.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((120, 5))
        csv_path, cfg_path, out_dir = tmp_path / "train.csv", tmp_path / "cfg.json", tmp_path / "out"
        rows = np.c_[x, x @ rng.standard_normal(5)].tolist()
        csv_path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
        cfg_path.write_text(json.dumps({
            "epochs": 30, "betas": [0.5], "learning_rate": 1e40, "hidden_dim": 4,
            "activation": "identity", "head_activation": "identity",
        }))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "train", "--input", str(csv_path), "--config", str(cfg_path), "--output-dir", str(out_dir)
            )
        stage = "train epoch 1 of 30 diverged before any finite validation loss"
        assert (code, out) == (2, "")
        message = rf"{stage}: Adam's second moment overflows a double \(largest \|gradient\| \S+\)"
        assert re.fullmatch(rf"error: {message}\n", err)
        assert [str(w.message) for w in caught] == []
        assert not out_dir.exists()

    def test_every_train_config_field_is_a_train_config_key(self, capsys, tmp_path, classification_csv):
        # Every TrainConfig field is a train config key, and the manifest records it as given.
        payload = {f.name: f.default for f in dataclasses.fields(network.TrainConfig)}
        payload.update(epochs=1, betas=[0.5], hidden_dim=2)
        cfg_path, out_dir = tmp_path / "full.json", tmp_path / "out"
        cfg_path.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, "train", "--input", classification_csv, "--config", str(cfg_path), "--output-dir", str(out_dir)
        )
        assert code == 0, err
        manifest = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert {key: manifest[key] for key in payload} == payload


class TestPredictInput:
    def test_column_count_mismatch_names_both_counts(self, capsys, tmp_path, rng):
        from covdensity.network import init_model, save_model

        model_path = tmp_path / "model.json"
        save_model(model_path, init_model(np.eye(5), 2, network.TrainConfig(betas=(1.0,), task="classification")))
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

        payload = model_to_dict(init_model(np.eye(3), 2, network.TrainConfig(betas=(1.0,), task="classification")))
        payload["covariance"][1][1] = math.nan
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))  # written as the token NaN, which json reads back
        data_path = tmp_path / "rows.csv"
        data_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rng.standard_normal((4, 3))))
        code, out, err = run_cli(
            capsys, "predict", "--input", str(data_path), "--model", str(model_path),
            "--output-dir", str(tmp_path / "preds"),
        )
        assert (code, out, err) == (2, "", "error: checkpoint /covariance: entries must be finite, got nan\n")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("key", ["w1", "b1", "w2", "b2"])
    def test_non_finite_head_weight_is_runtime_error(self, capsys, tmp_path, rng, key, value):
        payload = network.model_to_dict(
            network.init_model(np.eye(3), 2, network.TrainConfig(betas=(1.0,), task="classification"))
        )
        entries = payload["head"][key]
        (entries[0] if key.startswith("w") else entries)[0] = value
        model_path, data_path, out_dir = tmp_path / "model.json", tmp_path / "rows.csv", tmp_path / "preds"
        model_path.write_text(json.dumps(payload))  # written as the token NaN or Infinity, which json reads back
        data_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rng.standard_normal((4, 3))))
        code, out, err = run_cli(
            capsys, "predict", "--input", str(data_path), "--model", str(model_path), "--output-dir", str(out_dir)
        )
        assert (code, out, err) == (2, "", f"error: checkpoint /head/{key}: entries must be finite, got {value!r}\n")
        assert not out_dir.exists()

    def test_non_psd_model_covariance_is_named(self, capsys, tmp_path, rng):
        payload = network.model_to_dict(
            network.init_model(np.eye(3), 2, network.TrainConfig(betas=(1.0,), task="classification"))
        )
        payload["covariance"] = np.diag([1.0, -5.0, 0.5]).tolist()
        model_path, data_path, out_dir = tmp_path / "model.json", tmp_path / "rows.csv", tmp_path / "preds"
        model_path.write_text(json.dumps(payload))
        data_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rng.standard_normal((4, 3))))
        code, out, err = run_cli(
            capsys, "predict", "--input", str(data_path), "--model", str(model_path), "--output-dir", str(out_dir)
        )
        message = "checkpoint /covariance: matrix is not PSD within tolerance: min eigenvalue -5.000e+00"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda p: p.pop("head"), "checkpoint /head: missing key"),
            (lambda p: p["layers"][0].pop("coeffs"), "checkpoint /layers/0/coeffs: missing key"),
            (lambda p: p["layers"][0].update(gain=2.0), "checkpoint /layers/0/gain: unknown key, got 2.0"),
            (lambda p: p["layers"][0].update(betas_learnable="true"),
             "checkpoint /layers/0/betas_learnable: expected bool, got 'true'"),
            (lambda p: p["layers"][0].update(skip_k0=0), "checkpoint /layers/0/skip_k0: expected bool, got 0"),
            (lambda p: p["layers"][0].update(coeffs=[[[]]]),
             "checkpoint /layers/0/coeffs: must have non-empty shape [f_out, f_in, taps], got [1, 1, 0]"),
        ],
    )
    def test_malformed_checkpoint_is_runtime_error(self, capsys, tmp_path, rng, corrupt, message):
        from covdensity.network import init_model, model_to_dict

        payload = model_to_dict(init_model(np.eye(3), 2, network.TrainConfig(betas=(1.0,), task="classification")))
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
        (lambda p: [1], "checkpoint /: must be an object, got [1]"),
        (
            lambda p: {**p, "layers": p["layers"][0]},
            "checkpoint /layers: must be a non-empty list, got {'activation': 'tanh', 'aggregation': 'concatenate', "
            "'betas': [1.0], 'betas_learnable': False, ...}",
        ),
        (lambda p: {**p, "layers": [[1]]}, "checkpoint /layers/0: must be an object, got [1]"),
        (lambda p: {**p, "head": [1]}, "checkpoint /head: must be an object, got [1]"),
    ],
)
def test_checkpoint_of_the_wrong_json_kind_names_its_path(capsys, tmp_path, rng, corrupt, message):
    payload = network.model_to_dict(network.init_model(np.eye(3), 2, network.TrainConfig(betas=(1.0,))))
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
        return ["density", "--input", str(cov_path), "--input-is-covariance", "--beta", "-1e308"]
    if name == "stability":
        cfg_path.write_text(json.dumps({"dim": 4, "trials": 1, "betas": [-1000]}))
        return ["stability", "--config", str(cfg_path)]
    if name == "regression":
        return ["regression", "--trials", "1", "--sample-grid=30,1"]
    if name == "train":
        cfg_path.write_text(json.dumps({"hidden_dim": 0, "betas": [1.0]}))
        return ["train", "--input", str(data_path), "--config", str(cfg_path)]
    model_path = tmp_path / "model.json"
    network.save_model(model_path, network.init_model(np.eye(5), 1, network.TrainConfig(betas=(1.0,))))
    return ["predict", "--input", str(data_path), "--model", str(model_path)]


@pytest.mark.parametrize("name", ["density", "stability", "regression", "train", "predict"])
def test_failing_subcommand_writes_nothing(capsys, tmp_path, rng, name):
    out_dir = tmp_path / "out" / "nested"
    code, out, err = run_cli(capsys, *_failing_run(name, tmp_path, rng), "--output-dir", str(out_dir))
    assert code == 2 and err.startswith("error: ")
    assert out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", ["entropy", "density", "fit-beta", "predict"])
def test_config_flag_is_rejected_where_no_config_is_read(capsys, tmp_path, rank_one_cov, subcommand):
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps({"beta": 3}))
    inputs = ["--spectrum", "1,2"] if subcommand == "fit-beta" else ["--input", rank_one_cov]
    code, out, err = run_cli(capsys, subcommand, *inputs, "--config", str(cfg_path), "--output-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith(f"unrecognized arguments: --config {cfg_path}\n"), err
    assert not out_dir.exists()


@pytest.mark.parametrize("subcommand", ["entropy", "density", "fit-beta", "predict"])
def test_seed_flag_is_rejected_where_nothing_is_drawn(capsys, tmp_path, rank_one_cov, subcommand):
    out_dir = tmp_path / "out"
    inputs = ["--spectrum", "1,2"] if subcommand == "fit-beta" else ["--input", rank_one_cov]
    code, out, err = run_cli(capsys, subcommand, *inputs, "--seed", "99", "--output-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith("unrecognized arguments: --seed 99\n"), err
    assert not out_dir.exists()


@pytest.mark.parametrize("subcommand", ["entropy", "density", "fit-beta"])
@pytest.mark.parametrize("is_covariance", [False, True])
def test_input_subcommands_decompose_once(capsys, tmp_path, monkeypatch, gaussian_data_csv, subcommand, is_covariance):
    eigvalsh_calls, eigh_calls = count_linalg_calls(monkeypatch, "eigvalsh"), count_linalg_calls(monkeypatch, "eigh")
    flags = ["--input-is-covariance"] if is_covariance else []
    path = gaussian_data_csv
    if is_covariance:
        path = tmp_path / "cov.csv"
        path.write_text("2.0,0.5,0.0\n0.5,1.0,0.0\n0.0,0.0,0.0\n")
    code, _, err = run_cli(capsys, subcommand, "--input", str(path), *flags, "--output-dir", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    # The CovarianceMatrix check's eigvalsh; every later reader takes its spectrum.
    assert (eigvalsh_calls, eigh_calls) == ([(3, 3)], [])


def child_env(**extra) -> dict:
    """The environment for a child interpreter that imports this covdensity, with ``extra`` variables set."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(covdensity.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def test_cli_import_does_not_load_scipy():
    probe = "import sys, covdensity.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_console_script_version():
    import subprocess

    result = subprocess.run(["covdensity", "--version"], capture_output=True, text=True)
    assert result.returncode == 0


class TestConfigRecipes:
    """The documented training recipes must validate as-is."""

    @staticmethod
    def _validate(path):
        from covdensity.cli import _load_json_config

        return network.TrainConfig(**_load_json_config(path, network.TrainConfig))

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


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """The model.json that ``train`` writes for a two-layer model on 3 features, and a CSV of rows to predict."""
    root = tmp_path_factory.mktemp("trained")
    rows = np.random.default_rng(8).standard_normal((16, 4))
    train_csv, predict_csv, cfg = root / "train.csv", root / "predict.csv", root / "cfg.json"
    train_csv.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows))
    predict_csv.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows[:4, :3]))
    cfg.write_text(json.dumps({"epochs": 1, "hidden_dim": 3, "num_layers": 2, "betas": [0.5, 2.0]}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--input", str(train_csv), "--config", str(cfg), "--output-dir", str(root / "model")]) == 0
    return json.loads((root / "model" / "model.json").read_text()), predict_csv


def predict_with(payload, predict_csv):
    """Exit code, stdout, stderr and warnings of an in-process ``predict`` on ``payload`` written as model.json,
    and whether it created its output directory."""
    with tempfile.TemporaryDirectory() as root:
        model_path, out_dir = os.path.join(root, "model.json"), os.path.join(root, "out")
        with open(model_path, "w") as fh:
            fh.write(json.dumps(payload))  # NaN and Infinity as the tokens json reads back
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["predict", "--input", str(predict_csv), "--model", model_path, "--output-dir", out_dir])
        return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught], os.path.exists(out_dir)


def checkpoint_paths(payload):
    """Every path the checkpoint checker reads, in document order."""
    return ["/version", "/task", "/covariance", *(f"/layers/{i}/{key}" for i, layer in enumerate(payload["layers"])
                                                 for key in layer), *(f"/head/{key}" for key in payload["head"])]


def mutated(payload, path, replace):
    """A copy of ``payload`` whose value at ``path`` is ``replace(value)`` (``replace(None)`` for a new key)."""
    payload = copy.deepcopy(payload)
    *parents, key = [int(part) if part.isdigit() else part for part in path.split("/")[1:]]
    node = functools.reduce(operator.getitem, parents, payload)
    node[key] = replace(node.get(key))
    return payload


def with_entry(value, index, entry):
    """A copy of the nested list ``value`` whose ``index``-th entry (modulo its size, in row order) is ``entry``."""
    value = copy.deepcopy(value)
    *outer, last = np.unravel_index(index % np.size(value), np.shape(value))
    functools.reduce(operator.getitem, outer, value)[last] = entry
    return value


_ENTRIES = {"NaN": math.nan, "inf": math.inf, "-inf": -math.inf, "bool": True, "string": "bogus", "null": None,
            "int past the double range": 10**400}  # each replaces one entry of an array, or a whole other value
_SHAPES = {"list": lambda v: [], "object": lambda v: {"bogus": 1.0}, "ragged list": lambda v: [[1.0], [1.0, 2.0]],
           "wrong shape": lambda v: [v]}  # each replaces the whole value


def test_trained_checkpoint_predicts(trained_checkpoint):
    code, out, err, caught, wrote = predict_with(*trained_checkpoint)
    assert (code, len(out.splitlines()), err, caught, wrote) == (0, 4, "", [], True)


@pytest.mark.parametrize(
    "cfg,flags",
    [
        ({"betas": [0.1, 5.0, 15.1], "dropout": 0.7, "task": "classification"}, []),
        ({"betas_learnable": True, "betas_init": [0.0, 0.0, 0.0, 0.0]}, []),
        ({"betas": [1.0]}, ["--horizon", "1"]),
    ],
    ids=["fixed", "learned", "horizon"],
)
def test_train_decomposes_its_covariance_once(capsys, tmp_path, classification_csv, monkeypatch, cfg, flags):
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps({"epochs": 2, "hidden_dim": 4, **cfg}))
    eigvalsh_calls, eigh_calls = count_linalg_calls(monkeypatch, "eigvalsh"), count_linalg_calls(monkeypatch, "eigh")
    code, _, err = run_cli(
        capsys, "train", "--input", classification_csv, "--config", str(cfg_path), *flags, "--output-dir", str(out_dir)
    )
    assert (code, err) == (0, "")
    # The model's eigh of the trace-normalized training covariance: its PSD check and every pass read it.
    assert (eigvalsh_calls.matrices, eigh_calls.matrices) == (0, 1)


def test_train_on_one_training_row_names_the_count(capsys, tmp_path, gaussian_data_csv):
    # val_fraction 0.99 of 60 rows leaves one training row, which has no sample covariance.
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps({"val_fraction": 0.99, "betas": [1.0]}))
    code, out, err = run_cli(
        capsys, "train", "--input", gaussian_data_csv, "--config", str(cfg_path), "--output-dir", str(out_dir)
    )
    assert (code, out, err) == (2, "", "error: need at least 2 observations, got 1\n")
    assert not out_dir.exists()


def test_predict_decomposes_the_model_covariance_once(trained_checkpoint, monkeypatch):
    eigvalsh_calls, eigh_calls = count_linalg_calls(monkeypatch, "eigvalsh"), count_linalg_calls(monkeypatch, "eigh")
    code, _, err, _, _ = predict_with(*trained_checkpoint)
    assert (code, err) == (0, "")
    # The model's eigh of its covariance: the PSD check and every forward pass read that one decomposition.
    assert (eigvalsh_calls.matrices, eigh_calls.matrices) == (0, 1)


def test_predict_on_a_model_file_that_is_not_json_names_it(capsys, tmp_path, rng):
    model_path, data_path, out_dir = tmp_path / "bad.json", tmp_path / "rows.csv", tmp_path / "preds"
    model_path.write_text("not a checkpoint")
    data_path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rng.standard_normal((4, 3))))
    code, out, err = run_cli(
        capsys, "predict", "--input", str(data_path), "--model", str(model_path), "--output-dir", str(out_dir)
    )
    assert (code, out, err) == (2, "", f"error: {model_path}: invalid JSON: Expecting value: line 1 column 1 (char 0)\n")
    assert not out_dir.exists()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_predict_names_the_path_of_any_mutated_checkpoint_value(trained_checkpoint, data):
    # Whatever replaces the value at one checked path, predict exits 2 with one error line naming that path, with
    # no warning and no traceback, and writes nothing.
    payload, predict_csv = trained_checkpoint
    path = data.draw(st.sampled_from(checkpoint_paths(payload)), label="path")
    kind = data.draw(st.sampled_from([*_ENTRIES, *_SHAPES]), label="mutation")
    assume(not (kind == "bool" and path.rsplit("/", 1)[1] in ("betas_learnable", "skip_k0")))  # a valid value there
    if kind in _SHAPES:
        replace = _SHAPES[kind]
    else:
        index = data.draw(st.integers(0, 10**6), label="entry")
        replace = lambda v: with_entry(v, index, _ENTRIES[kind]) if isinstance(v, list) else _ENTRIES[kind]  # noqa: E731
    code, out, err, caught, wrote = predict_with(mutated(payload, path, replace), predict_csv)
    assert (code, out, caught, wrote) == (2, "", [], False)
    assert err.startswith(f"error: checkpoint {path}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "path,replace,message",
    [
        ("/version", lambda v: True, "must be the integer 1, got True"),
        ("/version", lambda v: 1.0, "must be the integer 1, got 1.0"),
        ("/bogus", lambda v: 1, "unknown key, got 1"),
        ("/layers/0/coeffs", lambda v: [[[True] * len(v[0][0])] * len(v[0])] * len(v), "entries must be numbers a "
         "double holds, got True"),
        ("/layers/0/betas", lambda v: ["1", "2"], "entries must be numbers a double holds, got '1'"),
        ("/layers/0/activation", lambda v: ["tanh"], "expected str, got ['tanh']"),
        ("/layers/0/activation", lambda v: "max", "expected 'tanh' or 'elu' or 'relu' or 'identity', got 'max'"),
        ("/task", lambda v: ["regression"], "expected str, got ['regression']"),
        ("/task", lambda v: "regresion", "expected 'regression' or 'classification', got 'regresion'"),
        ("/layers/1/bogus", lambda v: 1.0, "unknown key, got 1.0"),
        ("/head/w1", lambda v: [row[:-1] if i else row for i, row in enumerate(v)],  # ragged: its rows are its cells
         "must have non-empty shape [hidden, features], not ragged, got [["),
        ("/layers/0/coeffs", lambda v: with_entry(v, 0, math.nan), "entries must be finite, got nan"),
        ("/layers/0/coeffs", lambda v: [[*scale, scale[0]] for scale in v],  # reads 2 channels, the signal is 1
         "must have non-empty shape [f_out, 1, taps], got [2, 2, 3]"),
        ("/layers/1/coeffs", lambda v: [[*scale, scale[0]] for scale in v],  # reads 3 channels, layer 0 writes 2
         "must have non-empty shape [f_out, 2, taps], got [2, 3, 3]"),
        ("/head/w1", lambda v: [row + row for row in v], "must have non-empty shape [hidden, 6], got [3, 12]"),
    ],
)
def test_checkpoint_probe_names_its_path(trained_checkpoint, path, replace, message):
    payload, predict_csv = trained_checkpoint
    code, out, err, caught, wrote = predict_with(mutated(payload, path, replace), predict_csv)
    assert (code, out, caught, wrote) == (2, "", [], False)
    assert err.startswith(f"error: checkpoint {path}: {message}") and err.count("\n") == 1, err


def test_checkpoint_without_a_key_names_it(trained_checkpoint):
    payload, predict_csv = trained_checkpoint
    payload = copy.deepcopy(payload)
    del payload["head"]["b2"]
    code, out, err, caught, wrote = predict_with(payload, predict_csv)
    assert (code, out, caught, wrote) == (2, "", [], False)
    assert err == "error: checkpoint /head/b2: missing key, got ['w1', 'b1', 'w2', 'activation']\n"


@pytest.mark.parametrize("kind", ["NaN", "inf", "wrong shape"])
@pytest.mark.parametrize("path", ["/covariance", "/layers/0/coeffs", "/layers/0/betas", "/layers/1/coeffs",
                                  "/layers/1/betas", "/head/w1", "/head/b1", "/head/w2", "/head/b2"])
def test_every_array_field_names_a_bad_value(trained_checkpoint, path, kind):
    payload, predict_csv = trained_checkpoint
    replace = _SHAPES[kind] if kind in _SHAPES else lambda v: with_entry(v, 1, _ENTRIES[kind])
    code, out, err, caught, wrote = predict_with(mutated(payload, path, replace), predict_csv)
    assert (code, out, caught, wrote) == (2, "", [], False)
    rule = "must have non-empty shape" if kind == "wrong shape" else "entries must be finite"
    assert err.startswith(f"error: checkpoint {path}: {rule}") and err.count("\n") == 1, err


_SCALED_COVARIANCES = {
    **{f"diag(s, 2s, 4s) at s = {s:g}": [s, 2.0 * s, 4.0 * s] for s in (1e-300, 1.0, 1e300)},
    "diag(6e307, 7e307, 8e307)": [6e307, 7e307, 8e307],  # its trace overflows a double
}


@pytest.mark.parametrize("subcommand", ["entropy", "density", "fit-beta"])
def test_covariance_subcommands_keep_the_scale_contract(tmp_path, subcommand):
    # At any scale a double holds, a run exits 0 with nothing on stderr or exits 2 with one error line, and warns
    # nothing; wherever entropy runs, its trace-normalized entropy is the one at s = 1.
    naive = {}
    for name, diagonal in _SCALED_COVARIANCES.items():
        path, out_dir = tmp_path / "cov.csv", tmp_path / name
        path.write_text("\n".join(",".join(map(repr, row)) for row in np.diag(diagonal).tolist()))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([subcommand, "--input", str(path), "--input-is-covariance", "--output-dir", str(out_dir)])
        assert [str(w.message) for w in caught] == [], name
        if code == 0:
            assert err.getvalue() == "", name
        else:
            assert code == 2 and out.getvalue() == "", name
            assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1, name
        if subcommand == "entropy":
            assert code == 0, name
            naive[name] = json.loads((out_dir / "summary.json").read_text())["entropy"]["naive_entropy_bits"]
    if subcommand == "entropy":
        assert naive.pop("diag(6e307, 7e307, 8e307)") == 1.5751145914106572
        assert set(naive.values()) == {naive["diag(s, 2s, 4s) at s = 1"]}


@pytest.mark.parametrize("scale, message", [(1e-8, None), (1e-160, None), (0.0, "too small to normalize")])
def test_train_normalizes_any_trace_a_normal_double_holds(capsys, tmp_path, scale, message):
    # train forms its covariance from the features divided by a power of two near their largest magnitude, which is
    # exact: features scaled by 1e-8 or by 1e-160 (whose own covariance would underflow to subnormal doubles) train.
    # All-zero features have a zero trace, which no scale normalizes.
    path, cfg_path, out_dir = tmp_path / "data.csv", tmp_path / "cfg.json", tmp_path / "out"
    rows = scale * np.random.default_rng(0).standard_normal((60, 4))
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
    cfg_path.write_text(json.dumps({"epochs": 2, "hidden_dim": 4, "betas": [1.0]}))
    argv = ["train", "--input", str(path), "--config", str(cfg_path), "--output-dir", str(out_dir)]
    code, out, err = run_cli(capsys, *argv)
    if message is None:
        assert (code, err) == (0, "")
        covariance = np.array(json.loads((out_dir / "model.json").read_text())["covariance"])
        assert np.trace(covariance) == pytest.approx(1.0, abs=1e-14)
    else:
        assert (code, out) == (2, "") and err.startswith("error: trace ") and err.endswith(f"{message}\n")
        assert not out_dir.exists()


@pytest.mark.parametrize("document", ["experiment config", "train config", "model.json"])
def test_a_repeated_json_key_is_named(capsys, tmp_path, gaussian_data_csv, document):
    # json.load keeps the last value of a repeated key; the reader refuses the document instead, naming the key.
    path, out_dir = tmp_path / "doc.json", tmp_path / "out"
    if document == "experiment config":
        path.write_text('{"dim": 3, "trials": 1, "trials": 2}')
        argv, key = ["stability", "--config", str(path)], "trials"
    elif document == "train config":
        path.write_text('{"epochs": 1, "betas": [1.0], "epochs": 2}')
        argv, key = ["train", "--config", str(path), "--input", gaussian_data_csv], "epochs"
    else:
        payload = json.dumps(network.model_to_dict(network.init_model(np.eye(3), 1, network.TrainConfig(betas=(1.0,)))))
        head = payload.index('"head": {') + len('"head": {')
        path.write_text(payload[:head] + '"b2": [0.0], ' + payload[head:])  # a nested object repeats its key
        argv, key = ["predict", "--model", str(path), "--input", gaussian_data_csv], "b2"
    code, out, err = run_cli(capsys, *argv, "--output-dir", str(out_dir))
    assert (code, out, err) == (2, "", f"error: {path}: invalid JSON: repeated key {key!r}\n")
    assert not out_dir.exists()


# A child interpreter runs every subcommand once, seeded, on the CSVs in ``root``; it prints {label: [code, stdout]}.
_EVERY_SUBCOMMAND = r"""
import contextlib, io, json, os, sys
from covdensity.cli import EXPERIMENT_SUBCOMMANDS, main

root, out = sys.argv[1], sys.argv[2]
features, labelled = os.path.join(root, "features.csv"), os.path.join(root, "labelled.csv")
calls = {name: [name, "--seed", "3", *(["--trials", "3"] if name != "discriminate" else [])]
         for name in EXPERIMENT_SUBCOMMANDS}
for name in ("train", "train_fixed", "train_learned"):
    calls[name] = ["train", "--input", labelled, "--config", os.path.join(root, f"{name}.json"), "--seed", "3"]
calls["predict"] = ["predict", "--input", features, "--model", os.path.join(out, "train", "model.json")]
for name in ("entropy", "density", "fit-beta"):
    calls[name] = [name, "--input", features]
results = {}
for label, argv in calls.items():
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main([*argv, "--output-dir", os.path.join(out, label)])
    results[label] = [code, stdout.getvalue()]
print(json.dumps(results))
"""


def test_every_subcommand_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # At dim 20, no result depends on how many threads OpenBLAS splits a product or a decomposition over.  Training
    # runs one small config and the benchmark's two (fixed betas with dropout; learned betas).
    benchmark = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))
    rng = np.random.default_rng(11)
    x = rng.standard_normal((240, 20)) @ rng.standard_normal((20, 20)) * np.geomspace(1.0, 0.05, 20)
    labels = (x @ rng.standard_normal(20) > 0).astype(float)
    for name, rows in (("features", x), ("labelled", np.column_stack([x, labels]))):
        (tmp_path / f"{name}.csv").write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
    (tmp_path / "train.json").write_text(json.dumps(
        {"epochs": 2, "hidden_dim": 16, "dropout": 0.5, "betas": [0.5, 2.0], "task": "classification"}))
    (tmp_path / "train_fixed.json").write_text(json.dumps(benchmark["FIXED_CONFIG"]))
    (tmp_path / "train_learned.json").write_text(json.dumps(benchmark["LEARNED_CONFIG"]))
    children = {
        threads: subprocess.Popen(
            [sys.executable, "-c", _EVERY_SUBCOMMAND, str(tmp_path), str(tmp_path / f"threads{threads}")],
            env=child_env(OPENBLAS_NUM_THREADS=str(threads)), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for threads in (1, 2)
    }
    runs = {}
    for threads, child in children.items():
        stdout, stderr = child.communicate(timeout=120)
        assert (child.returncode, stderr) == (0, ""), threads
        runs[threads] = json.loads(stdout)
    assert runs[1] == runs[2]
    assert len(runs[1]) == 14 and all(code == 0 for code, _ in runs[1].values()), runs[1]
    for label in runs[1]:
        for name in ("results.csv", "summary.json", *(["model.json"] if label.startswith("train") else [])):
            one, two = (tmp_path / f"threads{threads}" / label / name for threads in (1, 2))
            assert one.read_bytes() == two.read_bytes(), (label, name)
