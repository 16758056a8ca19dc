"""Base calculus on a time scale: delta derivative, delta (Cauchy) integral,
regressivity, and the time-scale exponential for a constant coefficient.

Scattered points use exact difference quotients and weighted sums; dense
runs fall back to ordinary calculus (adaptive quadrature, numerical
differentiation with Richardson extrapolation).  The integral and the
exponential walk the cells of ``TimeScale.cells``; ``_u_run_integral``, the
kernel-weighted integral over one dense cell, also serves the linear
solvers.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from scipy import integrate

from .errors import (
    DenseDerivativeUnavailable,
    NonRegressiveParameter,
    OutsideKappaDomain,
    QuadratureNonConvergence,
)
from .signals import Closure, Sampled, Signal, sampled_slope, value
from .timescale import TimeScale

#: Absolute tolerance for quadrature over continuous runs.
QUAD_TOL = 1e-10

#: Target tolerance for numerical derivatives at dense points.
DERIV_TOL = 1e-8

_RICHARDSON_LEVELS = 10


def _quad(fn: Callable[[float], float], lo: float, hi: float, tol: float,
          points: Sequence[float] | None = None) -> float:
    if hi <= lo:
        return 0.0
    out = integrate.quad(fn, lo, hi, epsabs=tol, epsrel=max(1e-12, tol),
                         limit=200, points=points, full_output=1)
    if len(out) > 3:
        raise QuadratureNonConvergence(f"quadrature on [{lo}, {hi}]: {out[3]}")
    return out[0]


def _richardson_derivative(f: Callable[[float], float], t: float,
                           lo: float, hi: float, tol: float) -> float:
    """Ordinary derivative of f at t, sampling only inside [lo, hi].

    Central differences with step halving and Richardson extrapolation;
    falls back to one-sided stencils at interval endpoints.
    """
    h = 1e-4 * max(1.0, abs(t))
    room_l, room_r = t - lo, hi - t
    if room_l > 0 and room_r > 0:
        h = min(h, 0.5 * room_l, 0.5 * room_r)
        diff = lambda s: (f(t + s) - f(t - s)) / (2.0 * s)
        ratio = 4.0  # error series in even powers of the step
    elif room_r > 0:
        h = min(h, 0.5 * room_r)
        diff = lambda s: (f(t + s) - f(t)) / s
        ratio = 2.0
    elif room_l > 0:
        h = min(h, 0.5 * room_l)
        diff = lambda s: (f(t) - f(t - s)) / s
        ratio = 2.0
    else:
        raise DenseDerivativeUnavailable(
            f"t={t!r} has no dense neighborhood to differentiate over")

    table = [diff(h)]
    best, best_err = table[0], math.inf
    for _ in range(_RICHARDSON_LEVELS):
        h *= 0.5
        row = [diff(h)]
        factor = ratio
        for prev in table:
            row.append(row[-1] + (row[-1] - prev) / (factor - 1.0))
            factor *= ratio
        err = abs(row[-1] - table[-1])
        if err < best_err:
            best, best_err = row[-1], err
        if err <= tol * max(1.0, abs(row[-1])):
            return row[-1]
        table = row
    return best


def delta_derivative(ts: TimeScale, f: Signal, t: float,
                     tol: float | None = None) -> float:
    """Delta derivative of f at t.

    Right-scattered t: the exact quotient (f(sigma(t)) - f(t)) / mu(t).
    Dense t: the signal's exact derivative when available, otherwise a
    difference quotient refined to ``tol`` (default DERIV_TOL).
    """
    tol = DERIV_TOL if tol is None else tol
    _, t, after = ts._neighbours(t)
    if not ts.in_kappa_domain(t):
        raise OutsideKappaDomain(f"t={t!r} is the left-scattered maximum")
    if after > t:
        return (value(f, ts, after) - value(f, ts, t)) / (after - t)
    if isinstance(f, Sampled):
        return sampled_slope(f, ts, t)
    if f.derivative is not None:
        return f.derivative(t)
    i, t = ts._locate(t)
    seg = ts.segments[i]
    return _richardson_derivative(f.func, t, seg.lo, seg.hi, tol)


def delta_integral(ts: TimeScale, f: Signal, a: float, b: float,
                   tol: float | None = None) -> float:
    """Cauchy (delta) integral of f over [a, b), a <= b.

    Scattered points contribute mu(t) * f(t); dense runs are integrated by
    adaptive quadrature (Closure) or by the trapezoid rule on the stored
    mesh (Sampled).  Additive over segment junctions; zero when a == b.
    """
    tol = QUAD_TOL if tol is None else tol
    total = 0.0
    for lo, hi, mu in ts.cells((ts.snap(a), ts.snap(b))):
        if mu:
            total += mu * value(f, ts, lo)
        else:
            total += _u_run_integral(ts, f, lo, hi, 0.0, tol)
    return total


def _u_run_integral(ts: TimeScale, u: Signal, lo: float, hi: float, p: float,
                    tol: float) -> float:
    """integral_lo^hi u(tau) exp(p*(hi - tau)) dtau over one dense cell:
    quadrature for a Closure, the midpoint-weighted trapezoid rule on the
    stored mesh for a Sampled signal."""
    if isinstance(u, Closure):
        return _quad(lambda tau: u.func(tau) * math.exp(p * (hi - tau)), lo, hi, tol)
    pts = [lo, *u.between(lo, hi), hi]
    vals = [value(u, ts, t) for t in pts]
    total = 0.0
    for p0, p1, v0, v1 in zip(pts, pts[1:], vals, vals[1:]):
        total += 0.5 * (v0 + v1) * math.exp(p * (hi - 0.5 * (p0 + p1))) * (p1 - p0)
    return total


def is_regressive(ts: TimeScale, p: float) -> bool:
    """Whether 1 + mu(t)*p is nonzero for every graininess of the scale."""
    return all(not _kills(mu, p) for mu in ts.graininess_values())


def _kills(mu: float, p: float) -> bool:
    return abs(1.0 + mu * p) <= 1e-14 * max(1.0, abs(mu * p))


def exp_ts(ts: TimeScale, p: float, t: float, t0: float) -> float:
    """Time-scale exponential e_p(t, t0) for a constant p.

    Forward values are the product of (1 + mu*p) over scattered points of
    [t0, t) times exp(p * dense length); t < t0 is evaluated through the
    reciprocal.  On a step-h grid this is (1 + h*p) ** ((t - t0)/h).
    """
    t = ts.snap(t)
    t0 = ts.snap(t0)
    if t < t0:
        return 1.0 / exp_ts(ts, p, t0, t)
    prod = 1.0
    dense = 0.0
    for lo, hi, mu in ts.cells((t0, t)):
        if mu:
            if _kills(mu, p):
                raise NonRegressiveParameter(
                    f"1 + mu*p vanishes at t={lo!r} (mu={mu!r}, p={p!r})")
            prod *= 1.0 + mu * p
        else:
            dense += hi - lo
    if dense:
        prod *= math.exp(p * dense)
    return prod
