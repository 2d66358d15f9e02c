"""The package's public surface: its exports, and error types that the code really raises."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import covdensity
from covdensity import cli, errors

SRC = Path(covdensity.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_are_pinned():
    # The submodules imported by covdensity/__init__.py are bound on the package and exported too.
    assert sorted(covdensity.__all__) == [
        "BetaFitResult",
        "CovarianceMatrix",
        "DataMatrix",
        "DensityOperator",
        "EntropyReport",
        "FilterSpec",
        "SpectralDecomposition",
        "betafit",
        "covariance",
        "cvne",
        "density",
        "density_operator",
        "eigh",
        "entropy",
        "errors",
        "f_factor",
        "filter_apply",
        "filtering",
        "fit_beta",
        "gen_gaussian_data",
        "lipschitz_alpha",
        "moment_objective",
        "naive_entropy",
        "sample_covariance",
        "spectral",
    ]


def loaded_names(tree) -> set[str]:
    """Names that a module's code loads, each outside the body of the top-level function or class so named."""
    names = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None and name != own:
                names.add(name)
    return names


def src_loaded_names() -> set[str]:
    """Names that any covdensity submodule's code loads (``loaded_names`` of each)."""
    return set().union(*(loaded_names(ast.parse(p.read_text())) for p in SRC.glob("*.py") if p.name != "__init__.py"))


def quick_tour() -> str:
    """The code block of the README's library quick tour."""
    return README.read_text().split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def public_definitions() -> set[str]:
    """``module.name`` of every public function and class that a covdensity submodule defines."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"covdensity.{path.stem}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__:
                names.add(f"{path.stem}.{name}")
    return {name for name in names if not name.split(".")[1].startswith("_")}


def test_every_exported_function_and_class_has_a_caller():
    # Every public function and class of every submodule, exported or not: a public name that only
    # the tests use is an oracle, and belongs in tests/conftest.py.
    used = src_loaded_names()
    toured = {node.name for node in ast.walk(ast.parse(quick_tour())) if isinstance(node, ast.alias)}
    defined = public_definitions()
    exported = {
        f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
        for obj in map(vars(covdensity).get, covdensity.__all__)
        if inspect.isfunction(obj) or inspect.isclass(obj)
    }
    assert len(exported) > 10 and exported <= defined
    assert sorted(name for name in defined if name.split(".")[1] not in used | toured) == []


def test_every_property_of_a_public_class_is_read():
    # A property that only the tests read is public API without a caller, as a function would be.
    properties = set()
    for name in public_definitions():
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"covdensity.{module}"), attr)
        if inspect.isclass(obj):
            properties |= {f"{name}.{key}" for key, value in vars(obj).items() if isinstance(value, property)}
    assert len(properties) > 5
    read = src_loaded_names() | loaded_names(ast.parse(quick_tour()))
    assert sorted(name for name in properties if name.rsplit(".", 1)[1] not in read) == []


def counted_property(prop: property, name: str, reads: dict) -> property:
    """``prop``, counting in ``reads[name]`` each read made by a covdensity submodule's code."""

    def fget(obj):
        if Path(sys._getframe(1).f_code.co_filename).parent == SRC:
            reads[name] += 1
        return prop.fget(obj)

    return property(fget)


def run_every_subcommand(root: Path) -> None:
    """One small, successful call of each CLI subcommand, writing under ``root``."""
    values = np.random.default_rng(0).standard_normal((30, 4))
    data, features, cov = root / "data.csv", root / "features.csv", root / "cov.csv"
    data.write_text("".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
    features.write_text("".join(",".join(map(repr, row)) + "\n" for row in values[:, :3].tolist()))
    cov.write_text("2.0,0.5,0.0\n0.5,1.0,0.0\n0.0,0.0,0.0\n")
    configs = {
        "stability": {"dim": 4, "trials": 1},
        "lipschitz": {"trials": 2},
        "surrogate": {"dim": 4, "trials": 1, "sample_grid": [30]},
        "regression": {"trials": 1, "sample_grid": [30], "n_test": 30},
        "entropy-curve": {"dim": 4, "trials": 1},
        "discriminate": {"n_windows": 5},
        "betafit-demo": {"dim": 4, "trials": 1},
        "train": {"epochs": 1, "hidden_dim": 3, "betas": [1.0]},
    }
    runs = [["entropy", "--input", str(cov), "--input-is-covariance"], ["density", "--input", str(data)],
            ["fit-beta", "--input", str(cov), "--input-is-covariance"]]
    for name, cfg in configs.items():
        (root / f"{name}.json").write_text(json.dumps(cfg))
        runs.append([name, "--config", str(root / f"{name}.json"), *(["--input", str(data)] if name == "train" else [])])
    runs.append(["predict", "--input", str(features), "--model", str(root / "train" / "model.json")])
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            assert cli.main([*argv, "--output-dir", str(root / argv[0])]) == 0, argv


def test_every_property_of_a_public_class_is_read_by_the_package(monkeypatch, tmp_path):
    # Class-aware, unlike the name match above: each public class's own properties are wrapped, and only the reads
    # made by covdensity's code count, over the README tour and one small call of each subcommand.
    reads = {}
    for name in public_definitions():
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"covdensity.{module}"), attr)
        for key, value in vars(obj).items() if inspect.isclass(obj) else ():
            if isinstance(value, property):
                reads[f"{name}.{key}"] = 0
                monkeypatch.setattr(obj, key, counted_property(value, f"{name}.{key}", reads))
    assert len(reads) > 5
    exec(compile(quick_tour(), "README.md quick tour", "exec"), {})
    run_every_subcommand(tmp_path)
    assert sorted(name for name, count in reads.items() if count == 0) == []


def test_quick_tour_runs_as_its_comments_say():
    scope = {}
    exec(compile(quick_tour(), "README.md quick tour", "exec"), scope)
    assert scope["report"].entropy_bits == pytest.approx(1.277, abs=1e-3)
    assert scope["fit"].beta_star == pytest.approx(-math.log(2), abs=1e-9)


def raised_names(path) -> set[str]:
    """Names of the exceptions that a ``raise`` statement in one source file constructs or re-raises."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_type_is_raised():
    defined = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    }
    assert defined, "no error types found"
    raised = set().union(*(raised_names(path) for path in SRC.glob("*.py")))
    assert sorted(defined - raised) == []


def test_range_errors_are_raised_in_density_only():
    # Which doubles overflow, and how that is reported, is decided in one module.
    raising = sorted(path.name for path in SRC.glob("*.py") if "BetaRangeError" in raised_names(path))
    assert raising == ["density.py"]


def test_only_write_run_writes_cli_artifacts():
    # Subcommands compute and return their run; one writer emits it, so a failing subcommand writes nothing.
    writers = {"open", "makedirs", "records_to_csv", "save_model"}
    calls = set()
    for top in ast.parse((SRC / "cli.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in writers:
                    calls.add((getattr(top, "name", None), name))
    assert calls == {("_write_run", name) for name in writers}
