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
from .entropy import _shannon_nats
from .errors import InfeasibleTargetError

_BRACKET_BUDGET = 60  # outward steps per bracket end
_BRACKET_GROWTH = 2.0  # each outward step is this many times the last
_MAX_ITER = 100  # safeguarded Newton steps after bracketing
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
    if not np.all(np.isfinite(p)):
        raise ValueError(f"target probabilities must be finite, got {float(p[~np.isfinite(p)][0])!r}")
    if np.any(p < 0):
        raise ValueError("target probabilities must be nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-10:
        raise ValueError(f"target probabilities sum to {float(p.sum())!r}, expected 1")
    return lam, p


def _moments(lam: np.ndarray, target_mean: float, beta: float) -> tuple[float, float, float]:
    """(f, f', f'') at beta, all read from one softmax q_beta; ``target_mean`` is <p, lambda>."""
    q, log_z = density_values(lam, (beta,))
    mean = float(np.dot(q[0], lam))
    # Past a spread of sqrt(DBL_MAX) the squares overflow and 0 * inf gives NaN: fit_beta takes no
    # Newton step from a curvature that is not finite, and a run table refuses it as a cell.
    with np.errstate(over="ignore", invalid="ignore"):
        curvature = float(np.dot(q[0], (lam - mean) ** 2))
    return beta * target_mean + float(log_z[0]), target_mean - mean, curvature


def moment_objective(spectrum, target_p, beta):
    """f(beta) = beta <p, lambda> + ln Z(beta), for a scalar beta or a 1-D array of betas."""
    lam, p = _validate(spectrum, target_p)
    log_z = density_values(lam, np.atleast_1d(beta))[1]
    values = beta * np.dot(p, lam) + log_z
    return float(values[0]) if np.ndim(beta) == 0 else values


def fit_beta(
    spectrum, target_p, tol: float = 1e-10, initial_bracket: tuple[float, float] = (-1.0, 1.0)
) -> BetaFitResult:
    """Solve f'(beta) = 0 by bracketed, safeguarded Newton iteration.

    The bracket is grown outward from ``initial_bracket`` until it straddles
    the sign change of f'; strict convexity makes the root unique, so any
    starting bracket converges to the same answer.  Each visited beta is
    evaluated once, and the result reports the last evaluation.

    A constant spectrum makes f flat, so the canonical beta = 0 is returned
    with ``degenerate=True``.  A target mean outside the open interval
    (min lambda, max lambda) cannot be matched by any finite beta.

    Raises:
        ValueError: ``tol`` is negative or not finite, or |f'| is still above it after the step budget.
        InfeasibleTargetError: target mean at or beyond the spectral hull.
    """
    lam, p = _validate(spectrum, target_p)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    target_mean = float(np.dot(p, lam))
    spread = float(lam.max()) - float(lam.min())  # a Python float: inf where the spread overflows, without a warning
    if spread <= _DEGENERATE_RTOL * max(1.0, float(np.max(np.abs(lam)))):
        return BetaFitResult(0.0, _moments(lam, target_mean, 0.0)[0], 0.0, 0.0, iterations=0, degenerate=True)

    if target_mean <= float(lam.min()) or target_mean >= float(lam.max()):
        raise InfeasibleTargetError(
            f"target mean {target_mean!r} lies outside the open spectral hull "
            f"({float(lam.min())!r}, {float(lam.max())!r})"
        )

    # f' is increasing (its derivative is a variance), so bracket a sign change:
    # push each end outward with geometrically growing steps until f'(lo) < 0 < f'(hi).
    ends = [float(initial_bracket[0]), float(initial_bracket[1])]
    if not ends[0] < ends[1]:
        raise ValueError(f"invalid initial bracket {initial_bracket!r}")
    iterations = 0
    for side, sign, name in ((0, -1.0, "lower"), (1, 1.0, "upper")):
        step = max(ends[1] - ends[0], 1.0)
        for _ in range(_BRACKET_BUDGET):
            if sign * _moments(lam, target_mean, ends[side])[1] > 0.0:
                break
            ends[side] += sign * step
            step *= _BRACKET_GROWTH
            iterations += 1
        else:
            raise InfeasibleTargetError(f"no sign change found while expanding the {name} bracket")
    lo, hi = ends

    beta = 0.5 * (lo + hi)
    f, g, curvature = _moments(lam, target_mean, beta)
    for _ in range(_MAX_ITER):
        iterations += 1
        if abs(g) <= tol:
            break
        lo, hi = (lo, beta) if g > 0.0 else (beta, hi)
        newton = beta - g / curvature if curvature > 0.0 and math.isfinite(curvature) else math.nan
        beta = newton if lo < newton < hi else 0.5 * (lo + hi)  # bisect where the Newton step leaves the bracket
        f, g, curvature = _moments(lam, target_mean, beta)
    if not abs(g) <= tol:
        raise ValueError(
            f"fit_beta did not converge: |f'(beta)| = {abs(g):.3g} > tol = {tol:.3g} after {_MAX_ITER} steps"
        )

    return BetaFitResult(float(beta), f, g, curvature, iterations=iterations, degenerate=False)


def kl_to_density(spectrum, target_p, beta):
    """D_KL(p || q_beta): the moment objective less the target's Shannon entropy -sum p ln p.

    ``beta`` may be a scalar or a 1-D array of betas, which are scored in one pass.
    """
    objective = moment_objective(spectrum, target_p, beta)  # validates the inputs
    return objective - float(_shannon_nats(np.asarray(target_p, dtype=float)))
