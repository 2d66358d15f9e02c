"""Density operators over covariance matrices.

Spectral filters, multiscale von Neumann entropy, inverse-temperature fitting,
a small trainable network, and a seeded experiment harness.
"""

__version__ = "0.1.0"

from .betafit import BetaFitResult, fit_beta, moment_objective
from .covariance import (
    CovarianceMatrix,
    DataMatrix,
    gen_gaussian_data,
    sample_covariance,
    shift_regularize,
    trace_normalize,
)
from .density import DensityOperator, density_operator, f_factor
from .entropy import EntropyReport, cvne, naive_entropy
from .filtering import FilterSpec, filter_apply, lipschitz_alpha
from .spectral import SpectralDecomposition, eigh

__all__ = [name for name in dir() if not name.startswith("_")]
