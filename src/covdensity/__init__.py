"""Density operators over covariance matrices.

Spectral filters, multiscale von Neumann entropy, inverse-temperature fitting,
a small trainable network, and a seeded experiment harness.
"""

__version__ = "0.1.0"

from .betafit import BetaFitResult, fit_beta, moment_derivatives, moment_objective
from .covariance import (
    CovarianceMatrix,
    DataMatrix,
    Regularization,
    gen_gaussian_data,
    gen_graph_stationary,
    sample_covariance,
    shift_regularize,
    trace_normalize,
)
from .density import (
    DensityOperator,
    density_error_bound,
    density_operator,
    f_factor,
    partition_function,
)
from .entropy import (
    EntropyReport,
    check_subadditivity,
    cvne,
    naive_entropy,
)
from .filtering import (
    FilterSpec,
    check_permutation_equivariance,
    filter_apply,
    frequency_response,
    lipschitz_alpha,
)
from .spectral import SpectralDecomposition, eigh, operator_norm

__all__ = [name for name in dir() if not name.startswith("_")]
