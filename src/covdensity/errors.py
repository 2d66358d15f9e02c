"""Exception types shared across the package, and the field checker behind every ConfigError for a wrong type."""

import numbers
import types
import typing

import numpy as np


class ShapeError(ValueError):
    """Input has the wrong shape (non-square, dimension mismatch, ragged rows)."""


class SymmetryError(ValueError):
    """Matrix is not symmetric within tolerance."""


class InsufficientDataError(ValueError):
    """Too few observations for the requested estimate."""


class DegenerateCovarianceError(ValueError):
    """Covariance matrix is degenerate for the requested operation (e.g. zero trace)."""


class BetaRangeError(ValueError):
    """beta * lambda, or a scalar formed from it such as Z or exp(|beta| ||C||), overflows a double."""


class InfeasibleTargetError(ValueError):
    """Target mean lies outside the open spectral hull; no finite beta matches it."""


class GraphGenerationError(RuntimeError):
    """Random graph generation failed (e.g. no connected graph within the retry budget)."""


class TrainingError(RuntimeError):
    """Training produced a non-finite loss or gradients."""


class ConfigError(ValueError):
    """Configuration file failed schema validation."""


def _matches(hint, value) -> bool:
    """Whether ``value`` has the annotated type: an int rejects a bool, a float takes an int, and a tuple
    (a list, tuple or 1-D array) checks its length, when fixed, and each item."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_matches(arg, value) for arg in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        if not (isinstance(value, (tuple, list)) or isinstance(value, np.ndarray) and value.ndim == 1):
            return False
        args = typing.get_args(hint)
        items = args[:1] * len(value) if args[1:] == (...,) else args
        return len(items) == len(value) and all(map(_matches, items, value))
    if hint is int or hint is float:
        return isinstance(value, numbers.Integral if hint is int else numbers.Real) and not isinstance(value, bool)
    return isinstance(value, hint)


def _check_fields(config) -> None:
    """Check each field of the dataclass ``config`` against its annotation, in declaration order, and store
    a tuple field as a tuple.  A mismatch raises ``ConfigError("/<field>: expected <type>, got <value>")``."""
    for name, hint in typing.get_type_hints(type(config)).items():
        value = getattr(config, name)
        if not _matches(hint, value):
            raise ConfigError(f"/{name}: expected {hint.__name__ if type(hint) is type else hint}, got {value!r}")
        if isinstance(value, (list, np.ndarray)):
            object.__setattr__(config, name, tuple(value))
