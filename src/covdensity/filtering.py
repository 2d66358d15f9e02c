"""Polynomial filters on density operators and their stability diagnostics.

A filter with coefficients h_0..h_K applied to a density operator rho acts as
sum_k h_k rho^k x, computed in the eigenbasis.  Its response at a source
eigenvalue lambda is the polynomial at rho = exp(-beta lambda) / Z, which
changes by at most alpha = sum_k |h_k| |beta k| per unit eigenvalue change;
that constant is what lets beta trade discriminability against stability.

The response depends on the partition function Z of the whole operating
spectrum, not on lambda alone, so it is evaluated at density eigenvalues, which
``density.density_values`` forms in the log domain.  Every evaluation of the
polynomial reads one power ladder, :func:`_powers`: :func:`polynomial_response`
(and through it :func:`filter_apply`, ``lipschitz`` and the ``surrogate`` filter g
on Laplacian eigenvalues) and the network's filter-bank layers, forward and backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityOperator
from .errors import ShapeError


@dataclass(frozen=True)
class FilterSpec:
    """Polynomial filter taps h_0..h_K with the inverse temperature they assume.

    ``skip_k0`` drops the unfiltered k = 0 term from application and response
    (used to reduce noise in some recipes); it does not change the Lipschitz
    constant since k = 0 contributes nothing there.
    """

    coeffs: np.ndarray
    beta: float
    skip_k0: bool = False

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)  # a copy: the caller's array stays writable
        if c.ndim != 1 or c.size == 0:
            raise ShapeError("coeffs must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("filter coefficients must be finite")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @property
    def k_start(self) -> int:
        return 1 if self.skip_k0 else 0


def _powers(r: np.ndarray, order: int) -> np.ndarray:
    """r**k for k = 0..order by repeated products, on a new second-to-last axis: (..., order + 1, m) for r (..., m)."""
    powers = np.ones((*r.shape[:-1], order + 1, r.shape[-1]))
    for k in range(1, order + 1):
        powers[..., k, :] = powers[..., k - 1, :] * r
    return powers


def polynomial_response(f: FilterSpec, rho_values) -> np.ndarray:
    """Evaluate sum_k h_k r^k elementwise over density eigenvalues r, summed in order of k."""
    r = np.asarray(rho_values, dtype=float)
    terms = f.coeffs[f.k_start :, None] * _powers(np.atleast_1d(r), f.order)[..., f.k_start :, :]
    return terms.sum(axis=-2).reshape(r.shape)


def filter_apply(f: FilterSpec, rho: DensityOperator, x) -> np.ndarray:
    """Apply the filter to a signal in the operator's eigenbasis."""
    x = np.asarray(x, dtype=float)
    if x.shape != (rho.dim,):
        raise ShapeError(f"signal length {x.shape} does not match dim {rho.dim}")
    response = polynomial_response(f, rho.density_eigenvalues)
    v = rho.basis.eigenvectors
    return v @ (response * (v.T @ x))


def lipschitz_alpha(f: FilterSpec) -> float:
    """alpha = sum_k |h_k| |beta k|, the response's Lipschitz constant in lambda."""
    k = np.arange(f.coeffs.size)
    return float(np.sum(np.abs(f.coeffs) * np.abs(f.beta * k)))
