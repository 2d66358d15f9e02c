"""Polynomial filters on density operators and their stability diagnostics.

A filter with coefficients h_0..h_K applied to a density operator rho acts as
sum_k h_k rho^k x, computed in the eigenbasis.  Its frequency response at a
source eigenvalue lambda is sum_k h_k exp(-beta lambda k) / Z^k, which changes
by at most alpha = sum_k |h_k| |beta k| per unit eigenvalue change; that
constant is what lets beta trade discriminability against stability.

Note the response depends on the partition function Z of the whole operating
spectrum, not on lambda alone, so :func:`frequency_response` takes that spectrum's ln Z.
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


def polynomial_response(f: FilterSpec, rho_values) -> np.ndarray:
    """Evaluate sum_k h_k r^k elementwise over density eigenvalues r."""
    r = np.asarray(rho_values, dtype=float)
    out = np.zeros_like(r)
    power = np.ones_like(r) if f.k_start == 0 else r.copy()
    for k in range(f.k_start, f.order + 1):
        out += f.coeffs[k] * power
        power = power * r
    return out


def filter_apply(f: FilterSpec, rho: DensityOperator, x) -> np.ndarray:
    """Apply the filter to a signal in the operator's eigenbasis."""
    x = np.asarray(x, dtype=float)
    if x.shape != (rho.dim,):
        raise ShapeError(f"signal length {x.shape} does not match dim {rho.dim}")
    response = polynomial_response(f, rho.density_eigenvalues)
    v = rho.basis.eigenvectors
    return v @ (response * (v.T @ x))


def frequency_response(f: FilterSpec, lam: float, log_z: float) -> float:
    """Scalar response at eigenvalue lam given ln Z of the operating spectrum.

    Computed as sum_k h_k exp(-beta lam k - k ln Z), which stays in range even
    when Z^k would overflow.
    """
    total = 0.0
    for k in range(f.k_start, f.order + 1):
        total += f.coeffs[k] * math.exp(-f.beta * lam * k - k * log_z)
    return total


def lipschitz_alpha(f: FilterSpec) -> float:
    """alpha = sum_k |h_k| |beta k|, the response's Lipschitz constant in lambda."""
    k = np.arange(f.coeffs.size)
    return float(np.sum(np.abs(f.coeffs) * np.abs(f.beta * k)))
