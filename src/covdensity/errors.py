"""Exception types shared across the package, and the one config base whose checks raise each ConfigError for a key."""

from __future__ import annotations

import math
import numbers
import types
import typing
from dataclasses import dataclass

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
    """Whether ``value`` has the annotated type: an int rejects a bool, a float takes an int a double holds, and a tuple
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
        if isinstance(value, bool) or not isinstance(value, numbers.Integral if hint is int else numbers.Real):
            return False
        try:
            hint(value)  # float() rejects an int past the largest double
        except OverflowError:
            return False
        return True
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


_KEY_RULES = (  # (key, test, rule): the bound of one key, checked in this order on every config that declares it
    *((key, lambda v: v >= 1, "must be >= 1") for key in ("dim", "trials", "n_train", "n_test", "n_windows",
                                                          "max_filter_order", "hidden_dim", "num_layers", "epochs",
                                                          "batch_size")),
    ("n_samples", lambda v: v >= 2, "must be >= 2"),
    *((key, lambda v: v >= 0, "must be >= 0") for key in ("seed", "weight_scale", "ridge", "order")),
    ("betas", lambda v: v is not None, "required unless betas_init is given"),
    *((key, bool, "must be non-empty") for key in ("betas", "noise_levels", "sample_grid", "families", "base_spectrum",
                                                  "filter_coeffs")),
    *((key, lambda v: all(e >= 0 for e in v), "entries must be >= 0") for key in ("noise_levels", "base_spectrum",
                                                                                   "regime_scale")),
    *((key, lambda v: all(map(math.isfinite, v or ())), "entries must be finite") for key in (
        "noise_levels", "base_spectrum", "regime_scale", "filter_coeffs", "betas_init",
        "betas")),  # betas may be betas_init's
    ("beta", math.isfinite, "must be finite"),
    ("edge_prob", lambda v: 0 < v <= 1, "must be in (0, 1]"),
    ("val_fraction", lambda v: 0 < v < 1, "must be in (0, 1)"),
    ("dropout", lambda v: 0 <= v < 1, "must be in [0, 1)"),
    ("learning_rate", lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
    *((key, test, rule) for key in ("beta_range", "eigenvalue_range") for test, rule in (
        (lambda v: v[0] <= v[1], "must be [low, high] with low <= high"),
        (lambda v: math.isfinite(float(v[1]) - v[0]), "high - low must be finite"))),  # float: ints may be huge
)


@dataclass(frozen=True)
class _Config:
    """A config's keys with their defaults: a runner's config declares every key it reads and no other.  Building one
    checks their types, then ``_KEY_RULES``, then that each ``_distinct`` key repeats no entry, then ``_rules``, each
    raising ``ConfigError("/<key>: ...")``."""

    seed: int = 0  # every config seeds its draws with it
    _distinct = ("betas", "noise_levels", "sample_grid", "families")  # grids whose entries each index rows

    def __post_init__(self):
        grid = getattr(self, "sample_grid", ())
        for n in grid if isinstance(grid, (tuple, list, np.ndarray)) else ():  # named with its bound, type or size
            if not (isinstance(n, (int, np.integer)) and n >= 2):
                raise ConfigError(f"/sample_grid: entries must be integers >= 2, got {n!r}")
        _check_fields(self)
        if "betas_init" in self.__dict__ and self.betas is None:  # betas defaults to betas_init, once both are typed
            object.__setattr__(self, "betas", self.betas_init)
        for key, test, rule in _KEY_RULES:
            if key in self.__dict__ and not test(v := self.__dict__[key]):
                raise ConfigError(f"/{key}: {rule}, got {list(v) if isinstance(v, tuple) else v!r}")
        for key in self._distinct:  # a repeated entry would merge its rows into one summary group
            if key in self.__dict__ and len(set(v := self.__dict__[key])) < len(v):
                raise ConfigError(f"/{key}: entries must be distinct, got {list(v)}")
        if failed := next((f"/{key}: {rule}" for key, ok, rule in self._rules() if not ok), None):
            raise ConfigError(failed)

    def _rules(self):  # the (key, ok, rule) checks that read a second key or a table of another module, in order
        return ()
