"""Exception types shared across the package, and the one checker of configs and checkpoints."""

from __future__ import annotations

import functools
import json
import math
import numbers
import reprlib
import types
import typing
from dataclasses import MISSING, dataclass, fields

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
    """A config or checkpoint value failed its key's rule."""


def _matches(hint, value) -> bool:
    """Whether ``value`` has the annotated type: an int rejects a bool, a float takes an int a double holds, a tuple (a
    list, tuple or 1-D array) checks its length, when fixed, and each item, and another generic has no rule here."""
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
    return typing.get_origin(hint) is not None or isinstance(value, hint)


def _array(path: str, value, axes: tuple, sizes: dict) -> np.ndarray:
    """``value`` as a new float array with the named ``axes``; an axis not in ``sizes`` yet is sized into it.  A float
    array's cells are numbers already; any other value's (a JSON list's, a bool array's) are checked one by one."""
    shape = f"[{', '.join(str(sizes.get(axis, axis)) for axis in axes)}]"
    cells = value if isinstance(value, np.ndarray) and value.dtype.kind == "f" else np.array(value, dtype=object)
    if cells.dtype.kind == "O" and (bad := [c for c in cells.flat if type(c) is not float and not _matches(float, c)]):
        if any(isinstance(c, (list, tuple, np.ndarray)) for c in bad):  # a ragged list keeps its rows as cells
            raise ShapeError(f"{path}: must have non-empty shape {shape}, not ragged, got {reprlib.repr(value)}")
        raise ConfigError(f"{path}: entries must be numbers a double holds, got {reprlib.repr(bad[0])}")
    array = cells.astype(float)
    if array.ndim != len(axes) or not array.size or any(sizes.setdefault(a, n) != n for a, n in zip(axes, array.shape)):
        raise ShapeError(f"{path}: must have non-empty shape {shape}, got {list(array.shape)}")
    if not np.isfinite(array).all():
        raise ConfigError(f"{path}: entries must be finite, got {reprlib.repr(float(array[~np.isfinite(array)][0]))}")
    return array


def _version(path: str, value, version: int) -> None:
    """Raise unless a document's version ``value``, at ``path``, is the integer ``version``."""
    if not (_matches(int, value) and value == version):
        raise ConfigError(f"{path}: must be the integer {version}, got {value!r}")


def _read_json(path):
    """The JSON document in the file at ``path``: one that does not parse raises ``<path>: invalid JSON: <fault>``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError for bytes that are not text
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _keys(path: str, node, keys, optional=()) -> dict:
    """``node``, the JSON object at ``path`` (``/`` for a document's root), checked to name no key but ``keys`` (a
    record class's fields, or a tuple of names) and ``optional``, and to hold each of ``keys`` that has no default."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: must be an object, got {reprlib.repr(node)}")
    defaults = dict.fromkeys(keys, MISSING) if isinstance(keys, tuple) else {f.name: f.default for f in fields(keys)}
    if unknown := [key for key in node if key not in defaults and key not in optional]:
        raise ConfigError(f"{path.rstrip('/')}/{unknown[0]}: unknown key, got {reprlib.repr(node[unknown[0]])}")
    if missing := [key for key, default in defaults.items() if default is MISSING and key not in node]:
        raise ConfigError(f"{path.rstrip('/')}/{missing[0]}: missing key, got {list(node)}")
    return node


_KEY_RULES = (  # (key, test, rule): the bound of one key, checked in this order on every record that declares it
    *((key, lambda v: v >= 1, "must be >= 1") for key in ("dim", "trials", "n_train", "n_test", "n_windows",
                                                          "max_filter_order", "hidden_dim", "num_layers", "epochs",
                                                          "batch_size")),
    ("n_samples", lambda v: v >= 2, "must be >= 2"),
    *((key, lambda v: v >= 0, "must be >= 0") for key in ("seed", "weight_scale", "ridge", "order")),
    ("betas", lambda v: v is not None, "required unless betas_init is given"),
    *((key, len, "must be non-empty") for key in ("betas", "noise_levels", "sample_grid", "families", "base_spectrum",
                                                 "filter_coeffs")),
    *((key, lambda v: all(e >= 0 for e in v), "entries must be >= 0") for key in ("noise_levels", "base_spectrum",
                                                                                   "regime_scale")),
    *((key, lambda v: v is None or all(map(math.isfinite, v)), "entries must be finite") for key in (
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

_hints = functools.cache(typing.get_type_hints)  # a record class's field annotations, resolved once


class _Checked:
    """A dataclass checked as it is built: each field's type (an array's by its named ``_axes``), in declaration order,
    then each ``_KEY_RULES`` bound, ``_distinct`` field, ``_names`` field and ``_rules`` check.  The first fault raises
    ``/<key>: <rule>, got <value>``, a ShapeError for an array's shape, else a ConfigError."""

    _axes = {}  # each array field's named axes: the first array to reach an axis sizes it, and later ones must match
    _names = {}  # each name field's table: its value must be one of the table's names
    _distinct = ()  # each tuple field whose entries must be distinct

    def __post_init__(self):
        hints, sizes = _hints(type(self)), {}
        for key, hint in hints.items():
            value = getattr(self, key)
            if key in self._axes:
                value = _array(f"/{key}", value, self._axes[key], sizes)
            elif not _matches(hint, value):
                raise ConfigError(f"/{key}: expected {hint.__name__ if type(hint) is type else hint}, got {value!r}")
            elif isinstance(value, (list, np.ndarray)) and typing.get_origin(hint) is not list:  # a tuple field
                value = tuple(value)
            object.__setattr__(self, key, value)
        if "betas_init" in hints and self.betas is None:  # betas defaults to betas_init, once both are typed
            object.__setattr__(self, "betas", self.betas_init)
        distinct = ((key, lambda v: len(set(v)) == len(v), "entries must be distinct") for key in self._distinct)
        names = ((key, t.__contains__, f"expected {' or '.join(map(repr, t))}") for key, t in self._names.items())
        for key, test, rule in (*_KEY_RULES, *distinct, *names):
            if key in hints and not test(v := getattr(self, key)):
                raise ConfigError(f"/{key}: {rule}, got {list(v) if isinstance(v, tuple) else v!r}")
        if failed := next((f"/{key}: {rule}" for key, ok, rule in self._rules() if not ok), None):
            raise ConfigError(failed)

    def _rules(self):  # the (key, ok, rule) checks that read a second key, in order
        return ()


@dataclass(frozen=True)
class _Config(_Checked):
    """A config's keys with their defaults: a runner's config declares every key it reads and no other.  Building one
    checks it as a ``_Checked`` record, after the entries of a ``sample_grid``."""

    seed: int = 0  # every config seeds its draws with it
    _distinct = ("betas", "noise_levels", "sample_grid", "families")  # grids whose entries each index rows

    def __post_init__(self):
        grid = getattr(self, "sample_grid", ())
        for n in grid if isinstance(grid, (tuple, list, np.ndarray)) else ():  # named with its bound, type or size
            if not (isinstance(n, (int, np.integer)) and n >= 2):
                raise ConfigError(f"/sample_grid: entries must be integers >= 2, got {n!r}")
        super().__post_init__()
