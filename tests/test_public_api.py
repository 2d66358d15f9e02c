"""The package's public surface: its exports, and error types that the code really raises."""

import ast
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
        "Regularization",
        "SpectralDecomposition",
        "betafit",
        "check_permutation_equivariance",
        "check_subadditivity",
        "covariance",
        "cvne",
        "density",
        "density_error_bound",
        "density_operator",
        "eigh",
        "entropy",
        "errors",
        "f_factor",
        "filter_apply",
        "filtering",
        "fit_beta",
        "frequency_response",
        "gen_gaussian_data",
        "gen_graph_stationary",
        "lipschitz_alpha",
        "moment_derivatives",
        "moment_objective",
        "naive_entropy",
        "operator_norm",
        "partition_function",
        "sample_covariance",
        "shift_regularize",
        "spectral",
        "trace_normalize",
    ]


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
    defined = {name for name, obj in vars(errors).items() if inspect.isclass(obj) and obj.__module__ == errors.__name__}
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
