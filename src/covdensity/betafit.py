"""Fit the inverse temperature that matches a density distribution to a target.

Given a spectrum lambda and a target probability vector p, the moment
objective f(beta) = beta sum_i p_i lambda_i + ln sum_j exp(-beta lambda_j) is
the KL divergence D(p || q_beta) up to a constant and is strictly convex
whenever the spectrum is non-constant, so its stationary point is the unique
global minimizer.  The optimality condition matches the density mean to the
target mean: sum_i p_i lambda_i = E_{q_beta}[lambda].

The solver expands a sign-change bracket for f' and then runs Newton steps
safeguarded by bisection; plain gradient descent has no advantage on a 1-D
strictly convex problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import density_values
from .errors import InfeasibleTargetError

_BRACKET_BUDGET = 60
_DEGENERATE_RTOL = 1e-12


@dataclass(frozen=True)
class BetaFitResult:
    beta_star: float
    objective_value: float
    gradient_at_solution: float
    curvature_at_solution: float
    iterations: int
    degenerate: bool


def _validate(spectrum, target_p):
    lam = np.asarray(spectrum, dtype=float)
    p = np.asarray(target_p, dtype=float)
    if lam.ndim != 1 or lam.size == 0 or not np.all(np.isfinite(lam)):
        raise ValueError("spectrum must be a non-empty, finite 1-D sequence")
    if p.shape != lam.shape:
        raise ValueError(f"target length {p.shape} does not match spectrum {lam.shape}")
    if np.any(p < 0):
        raise ValueError("target probabilities must be nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-10:
        raise ValueError(f"target probabilities sum to {float(p.sum())!r}, expected 1")
    return lam, p


def _softmax_stats(lam: np.ndarray, beta: float):
    """Mean and variance of the spectrum under q_beta = softmax(-beta lambda)."""
    q = density_values(lam, (beta,))[0][0]
    mean = float(np.dot(q, lam))
    var = float(np.dot(q, (lam - mean) ** 2))
    return mean, var


def moment_objective(spectrum, target_p, beta):
    """f(beta) = beta <p, lambda> + ln Z(beta), for a scalar beta or a 1-D array of betas."""
    lam, p = _validate(spectrum, target_p)
    log_z = density_values(lam, np.atleast_1d(beta))[1]
    values = beta * np.dot(p, lam) + log_z
    return float(values[0]) if np.ndim(beta) == 0 else values


def moment_derivatives(spectrum, target_p, beta: float) -> tuple[float, float]:
    """(f', f''): gradient <p, lambda> - E_q[lambda] and curvature Var_q[lambda]."""
    lam, p = _validate(spectrum, target_p)
    mean, var = _softmax_stats(lam, beta)
    return float(np.dot(p, lam) - mean), var


def fit_beta(
    spectrum,
    target_p,
    max_iter: int = 100,
    tol: float = 1e-10,
    bracket_growth: float = 2.0,
    initial_bracket: tuple[float, float] = (-1.0, 1.0),
) -> BetaFitResult:
    """Solve f'(beta) = 0 by bracketed, safeguarded Newton iteration.

    The bracket is grown outward from ``initial_bracket`` until it straddles
    the sign change of f'; strict convexity makes the root unique, so any
    starting bracket converges to the same answer.

    A constant spectrum makes f flat, so the canonical beta = 0 is returned
    with ``degenerate=True``.  A target mean outside the open interval
    (min lambda, max lambda) cannot be matched by any finite beta.

    Raises:
        InfeasibleTargetError: target mean at or beyond the spectral hull.
    """
    lam, p = _validate(spectrum, target_p)
    spread = float(lam.max() - lam.min())
    if spread <= _DEGENERATE_RTOL * max(1.0, float(np.max(np.abs(lam)))):
        value = moment_objective(lam, p, 0.0)
        return BetaFitResult(
            beta_star=0.0,
            objective_value=value,
            gradient_at_solution=0.0,
            curvature_at_solution=0.0,
            iterations=0,
            degenerate=True,
        )

    target_mean = float(np.dot(p, lam))
    if target_mean <= float(lam.min()) or target_mean >= float(lam.max()):
        raise InfeasibleTargetError(
            f"target mean {target_mean!r} lies outside the open spectral hull "
            f"({float(lam.min())!r}, {float(lam.max())!r})"
        )

    def grad(beta):
        mean, _ = _softmax_stats(lam, beta)
        return target_mean - mean

    # f' is increasing (its derivative is a variance), so bracket a sign change:
    # push the ends outward with geometrically growing steps until f'(lo) < 0 < f'(hi).
    lo, hi = float(initial_bracket[0]), float(initial_bracket[1])
    if not lo < hi:
        raise ValueError(f"invalid initial bracket {initial_bracket!r}")
    iterations = 0
    step = max(hi - lo, 1.0)
    for _ in range(_BRACKET_BUDGET):
        if grad(lo) < 0.0:
            break
        lo -= step
        step *= bracket_growth
        iterations += 1
    else:
        raise InfeasibleTargetError("no sign change found while expanding the lower bracket")
    step = max(hi - lo, 1.0)
    for _ in range(_BRACKET_BUDGET):
        if grad(hi) > 0.0:
            break
        hi += step
        step *= bracket_growth
        iterations += 1
    else:
        raise InfeasibleTargetError("no sign change found while expanding the upper bracket")

    beta = 0.5 * (lo + hi)
    g = grad(beta)
    for _ in range(max_iter):
        iterations += 1
        if abs(g) <= tol:
            break
        if g > 0.0:
            hi = beta
        else:
            lo = beta
        _, curvature = _softmax_stats(lam, beta)
        step_ok = curvature > 0.0 and math.isfinite(curvature)
        candidate = beta - g / curvature if step_ok else None
        if candidate is None or not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        beta = candidate
        g = grad(beta)

    mean, curvature = _softmax_stats(lam, beta)
    return BetaFitResult(
        beta_star=float(beta),
        objective_value=moment_objective(lam, p, beta),
        gradient_at_solution=float(target_mean - mean),
        curvature_at_solution=curvature,
        iterations=iterations,
        degenerate=False,
    )


def kl_to_density(spectrum, target_p, beta):
    """D_KL(p || q_beta); differs from the moment objective by sum p ln p.

    ``beta`` may be a scalar or a 1-D array of betas, which are scored in one pass.
    """
    lam, p = _validate(spectrum, target_p)
    nonzero = p > 0.0
    entropy_term = float(np.sum(p[nonzero] * np.log(p[nonzero])))
    return entropy_term + moment_objective(lam, p, beta)
