"""The package's public surface: its exports, and error types that the code really raises."""

import ast
import importlib
import inspect
from pathlib import Path

import covdensity
from covdensity import errors

SRC = Path(covdensity.__file__).parent


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
        "shift_regularize",
        "spectral",
        "trace_normalize",
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
    used = set().union(*(loaded_names(ast.parse(p.read_text())) for p in SRC.glob("*.py") if p.name != "__init__.py"))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    toured = {node.name for node in ast.walk(ast.parse(tour)) if isinstance(node, ast.alias)}
    defined = public_definitions()
    exported = {
        f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
        for obj in map(vars(covdensity).get, covdensity.__all__)
        if inspect.isfunction(obj) or inspect.isclass(obj)
    }
    assert len(exported) > 10 and exported <= defined
    assert sorted(name for name in defined if name.split(".")[1] not in used | toured) == []


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
