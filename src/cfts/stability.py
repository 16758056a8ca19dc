"""Exponential-stability classification of the linear fractional equation.

With K = 1 - lambda*(1-alpha) and p = lambda*alpha/K, stability is
membership of p in the stability set of the time scale: for a step-h grid
the real slice of the Hilger disc, p in (-2/h, 0); for the reals,
Re p < 0, which in terms of lambda reads "lambda < 0 or
lambda > 1/(1-alpha)".  A windowed average of log|1 + mu*p|/mu provides
finite-horizon numeric evidence for general hybrid scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calculus import _kills
from .errors import DomainError, NonRegressiveParameter
from .timescale import TimeScale

#: Absolute tolerance for "sits exactly on an interval endpoint".
BOUNDARY_TOL = 1e-12

STABLE = "stable"
UNSTABLE = "unstable"
BOUNDARY = "boundary"
REGRESSIVITY_VIOLATION = "regressivity-violation"

IN_SC = "in-S_C"
IN_SR = "in-S_R"
OUTSIDE = "outside"


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of classifying one (lambda, alpha, scale) triple.

    ``boundary_values`` are the endpoints of the lambda-interval that
    decided the verdict (math.inf endpoints for unbounded sides).
    """

    status: str
    mechanism: str
    p_alpha: float
    boundary_values: tuple[float, float]
    branch: str = ""


def _near(x: float, y: float) -> bool:
    if math.isinf(y):
        return False
    return abs(x - y) <= BOUNDARY_TOL * max(1.0, abs(x), abs(y))


def classify_hz(lam: float, alpha: float, h: float) -> StabilityVerdict:
    """Classify the equation on the step-h grid.

    Branch (a), h > 2(1/alpha - 1): stable iff
    lambda in (-2/(h*alpha - 2(1-alpha)), 0).
    Branch (b), h <= 2(1/alpha - 1): stable iff lambda < 0 or
    lambda > 2/(2(1-alpha) - h*alpha).  Both are the real Hilger-circle
    condition p in (-2/h, 0).
    """
    if h <= 0.0:
        raise DomainError("grid step h must be positive")
    if not 0.0 < alpha <= 1.0:
        raise DomainError("classify_hz needs alpha in (0, 1]")
    K = 1.0 - lam * (1.0 - alpha)
    A = h * alpha - 2.0 * (1.0 - alpha)
    branch = "a" if A > 0.0 else "b"
    if _near(K, 0.0):
        return StabilityVerdict(REGRESSIVITY_VIOLATION, OUTSIDE, math.nan,
                                (math.nan, math.nan), branch)
    p = lam * alpha / K
    if _near(1.0 + h * p, 0.0):
        return StabilityVerdict(REGRESSIVITY_VIOLATION, IN_SR, p,
                                (math.nan, math.nan), branch)
    if branch == "a":
        bounds = (-2.0 / A, 0.0)
    else:
        thr = 2.0 / -A if A < 0.0 else math.inf
        if lam < 0.0:
            bounds = (-math.inf, 0.0)
        elif lam > thr:
            bounds = (thr, math.inf)
        else:
            bounds = (0.0, thr)
    if (_near(lam, bounds[0]) or _near(lam, bounds[1])
            or _near(p, 0.0) or _near(p, -2.0 / h)):
        return StabilityVerdict(BOUNDARY, OUTSIDE, p, bounds, branch)
    stable = -2.0 / h < p < 0.0
    return StabilityVerdict(STABLE if stable else UNSTABLE,
                            IN_SC if stable else OUTSIDE, p, bounds, branch)


def classify_r(lam: float, alpha: float) -> StabilityVerdict:
    """Classify the equation on the reals: stable iff lambda < 0 or
    lambda > 1/(1-alpha), equivalently p(alpha) < 0 with K nonzero."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("classify_r needs alpha in (0, 1)")
    thr = 1.0 / (1.0 - alpha)
    K = 1.0 - lam * (1.0 - alpha)
    if _near(K, 0.0):
        # lambda == 1/(1-alpha) is exactly the upper stability boundary
        return StabilityVerdict(REGRESSIVITY_VIOLATION, OUTSIDE, math.nan,
                                (thr, math.inf), "continuous")
    p = lam * alpha / K
    if lam < 0.0:
        bounds = (-math.inf, 0.0)
    elif lam > thr:
        bounds = (thr, math.inf)
    else:
        bounds = (0.0, thr)
    if _near(lam, 0.0) or _near(lam, thr):
        return StabilityVerdict(BOUNDARY, OUTSIDE, p, bounds, "continuous")
    stable = lam < 0.0 or lam > thr
    assert stable == (p < 0.0)
    return StabilityVerdict(STABLE if stable else UNSTABLE,
                            IN_SC if stable else OUTSIDE, p, bounds, "continuous")


def estimate_sc(ts: TimeScale, p: float, horizon: float | None = None) -> float:
    """Windowed average of the decay-rate integrand over [t_min, horizon].

    The integrand is log|1 + mu(t)*p| / mu(t) at scattered points and p at
    dense points (its mu -> 0 limit).  A negative value is finite-horizon
    evidence that p lies in the exponential-stability set; it is not a
    proof, since the true criterion is a limit over an unbounded scale.
    """
    t0 = ts.t_min
    T = ts.t_max if horizon is None else ts.snap(horizon)
    if T <= t0:
        raise DomainError("horizon must exceed the window start")
    total = 0.0
    for lo, hi, mu in ts.cells((t0, T)):
        if mu:
            factor = 1.0 + mu * p
            if _kills(mu, p):
                raise NonRegressiveParameter(
                    f"1 + mu*p vanishes at t={lo!r}; the average is -inf")
            total += math.log(abs(factor))
        else:
            total += p * (hi - lo)
    return total / (T - t0)
