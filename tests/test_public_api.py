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
        "discrimination_experiment",
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


def raised_names() -> set[str]:
    """Names of the exceptions that a ``raise`` statement under src/ constructs or re-raises."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_type_is_raised():
    defined = {name for name, obj in vars(errors).items() if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert defined, "no error types found"
    assert sorted(defined - raised_names()) == []
