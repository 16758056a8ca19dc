"""Exponential-stability classification of the linear fractional equation.

With K = 1 - lambda*(1-alpha) and p = lambda*alpha/K, stability is
membership of p in the stability set of the time scale: for a step-h grid
the real slice of the Hilger disc, p in (-2/h, 0); for the reals,
Re p < 0, which in terms of lambda reads "lambda < 0 or
lambda > 1/(1-alpha)".  A windowed average of log|1 + mu*p|/mu provides
finite-horizon numeric evidence for general hybrid scales.

Everything that depends only on (alpha, h) -- the validation, the branch,
the thresholds, their bounds tuples and their bands -- is computed once
per pair in a small cache, so that a sweep over lambda pays only for K, p
and the comparisons.  "On a boundary" means within BOUNDARY_TOL of it:
absolute at 0, relative (BOUNDARY_TOL * max(1, |x|, |y|)) at a finite
nonzero threshold y, tested to the bit as |x - y| <= band or
|x - y| <= BOUNDARY_TOL * |x| with the band BOUNDARY_TOL * max(1, |y|).
Nothing is on an infinite threshold, and a non-finite x is never on a
boundary, so an overflowed 1 + h*p (h near the float maximum) is
classified by the sign tests instead of being reported as a regressivity
violation.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from typing import NamedTuple

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


class StabilityVerdict(NamedTuple):
    """Outcome of classifying one (lambda, alpha, scale) triple.

    ``boundary_values`` are the endpoints of the lambda-interval that
    decided the verdict (math.inf endpoints for unbounded sides).
    ``p_alpha`` depends on lambda and alpha only, never on the scale, and
    is NaN when K vanishes.
    """

    status: str
    mechanism: str
    p_alpha: float
    boundary_values: tuple[float, float]
    branch: str = ""


_NO_BOUNDS = (math.nan, math.nan)


def _band(y: float) -> float:
    """BOUNDARY_TOL * max(1, |y|) for a finite threshold y; -1.0, which no
    distance is within, for an infinite one."""
    return BOUNDARY_TOL * max(1.0, abs(y)) if math.isfinite(y) else -1.0


@functools.lru_cache(maxsize=64)
def _hz(alpha: float, h: float) -> Callable[[float], StabilityVerdict]:
    """The step-h grid classifier of one (alpha, h) pair, as a function
    of lambda; raises DomainError for an alpha or h out of range."""
    if h <= 0.0:
        raise DomainError("grid step h must be positive")
    if not 0.0 < alpha <= 1.0:
        raise DomainError("classify_hz needs alpha in (0, 1]")
    abar = 1.0 - alpha
    A = h * alpha - 2.0 * abar
    edge = -2.0 / h
    edge_band = _band(edge)
    if A > 0.0:
        branch = "a"
        low = -2.0 / A
        low_band = _band(low)
        bounds_a = (low, 0.0)
    else:
        branch = "b"
        thr = 2.0 / -A if A < 0.0 else math.inf
        thr_band = _band(thr)
        below, above, between = (-math.inf, 0.0), (thr, math.inf), (0.0, thr)

    def classify(lam: float) -> StabilityVerdict:
        if not math.isfinite(lam):
            raise DomainError("lambda must be finite")
        K = 1.0 - lam * abar
        if -BOUNDARY_TOL <= K <= BOUNDARY_TOL:
            return StabilityVerdict(REGRESSIVITY_VIOLATION, OUTSIDE, math.nan,
                                    _NO_BOUNDS, branch)
        p = lam * alpha / K
        if -BOUNDARY_TOL <= 1.0 + h * p <= BOUNDARY_TOL:
            return StabilityVerdict(REGRESSIVITY_VIOLATION, IN_SR, p,
                                    _NO_BOUNDS, branch)
        # lam is finite, so |lam - y| <= BOUNDARY_TOL * |lam| fails at an
        # infinite threshold y
        if branch == "a":
            d = abs(lam - low)
            bounds, on_edge = bounds_a, d <= low_band or d <= BOUNDARY_TOL * abs(lam)
        elif lam < 0.0:
            bounds, on_edge = below, False
        else:
            d = abs(lam - thr)
            bounds = above if lam > thr else between
            on_edge = d <= thr_band or d <= BOUNDARY_TOL * abs(lam)
        # p overflows when K is barely outside the tolerance; "< math.inf"
        # keeps an infinite p off the edge
        d = abs(p - edge)
        if (on_edge or -BOUNDARY_TOL <= lam <= BOUNDARY_TOL
                or -BOUNDARY_TOL <= p <= BOUNDARY_TOL
                or d <= edge_band or d <= BOUNDARY_TOL * abs(p) < math.inf):
            return StabilityVerdict(BOUNDARY, OUTSIDE, p, bounds, branch)
        stable = edge < p < 0.0
        return StabilityVerdict(STABLE if stable else UNSTABLE,
                                IN_SC if stable else OUTSIDE, p, bounds, branch)

    return classify


def classify_hz(lam: float, alpha: float, h: float) -> StabilityVerdict:
    """Classify the equation on the step-h grid.

    Branch (a), h > 2(1/alpha - 1): stable iff
    lambda in (-2/(h*alpha - 2(1-alpha)), 0).
    Branch (b), h <= 2(1/alpha - 1): stable iff lambda < 0 or
    lambda > 2/(2(1-alpha) - h*alpha).  Both are the real Hilger-circle
    condition p in (-2/h, 0).
    """
    return _hz(alpha, h)(lam)


@functools.lru_cache(maxsize=64)
def _r(alpha: float) -> Callable[[float], StabilityVerdict]:
    """The continuous classifier of one alpha, as a function of lambda;
    raises DomainError for an alpha out of range."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("classify_r needs alpha in (0, 1)")
    abar = 1.0 - alpha
    thr = 1.0 / abar
    thr_band = _band(thr)
    below, above, between = (-math.inf, 0.0), (thr, math.inf), (0.0, thr)

    def classify(lam: float) -> StabilityVerdict:
        if not math.isfinite(lam):
            raise DomainError("lambda must be finite")
        K = 1.0 - lam * abar
        if -BOUNDARY_TOL <= K <= BOUNDARY_TOL:
            # lambda == 1/(1-alpha) is exactly the upper stability boundary
            return StabilityVerdict(REGRESSIVITY_VIOLATION, OUTSIDE, math.nan,
                                    above, "continuous")
        p = lam * alpha / K
        if lam < 0.0:
            bounds = below
        elif lam > thr:
            bounds = above
        else:
            bounds = between
        d = abs(lam - thr)
        if (-BOUNDARY_TOL <= lam <= BOUNDARY_TOL or d <= thr_band
                or d <= BOUNDARY_TOL * abs(lam)):
            return StabilityVerdict(BOUNDARY, OUTSIDE, p, bounds, "continuous")
        stable = lam < 0.0 or lam > thr
        assert stable == (p < 0.0)
        return StabilityVerdict(STABLE if stable else UNSTABLE,
                                IN_SC if stable else OUTSIDE, p, bounds, "continuous")

    return classify


def classify_r(lam: float, alpha: float) -> StabilityVerdict:
    """Classify the equation on the reals: stable iff lambda < 0 or
    lambda > 1/(1-alpha), equivalently p(alpha) < 0 with K nonzero."""
    return _r(alpha)(lam)


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
