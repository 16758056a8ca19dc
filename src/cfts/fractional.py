"""Fractional delta operators with a non-singular exponential kernel.

For an order ``alpha`` in [0, 1) the kernel rate is ``alpha_bar =
alpha/(alpha - 1) <= 0`` and the left-sided derivative of f over [a, t] is

    (M(alpha)/(1-alpha)) * integral_a^t  f^delta(tau) e_{alpha_bar}(t, sigma(tau)) dtau,

the Caputo--Fabrizio construction carried to an arbitrary time scale: the
first-order delta derivative convolved with the time-scale exponential.
By the semigroup identity e(t1, s) = e(t1, t0) e(t0, s) (Bohner & Peterson,
Dynamic Equations on Time Scales, 2001, Thm 2.36) its values at every
point of a mesh come from one forward march over the cells of
``TimeScale.cells`` (``cf_delta_left_prefix``); the single-point
``cf_delta_left`` is that march on the mesh (a, t), so one walk serves the
column and the single point.  The right-sided operator walks the cells of
[t, b] and needs reciprocal kernel values.  The fractional integral of
order alpha is the weighted average (1-alpha)/M * u(t) + alpha/M *
integral_0^t u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .calculus import QUAD_TOL, _kills, _quad, delta_derivative, delta_integral
from .errors import DomainError, NonRegressiveKernel
from .signals import Closure, Signal, value
from .timescale import TimeScale, UniformGrid


@dataclass(frozen=True)
class CFOrder:
    """Fractional order alpha in [0, 1) with normalization constant.

    ``m_alpha`` defaults to 1, the choice that makes the fractional
    integral's two weights sum to one.
    """

    alpha: float
    m_alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise DomainError(f"order must satisfy 0 <= alpha < 1, got {self.alpha}")
        if self.m_alpha <= 0.0:
            raise DomainError("normalization m_alpha must be positive")

    @property
    def alpha_bar(self) -> float:
        """Kernel rate alpha/(alpha-1); zero iff alpha is zero, else negative."""
        return self.alpha / (self.alpha - 1.0)

    @property
    def front_factor(self) -> float:
        """M(alpha)/(1-alpha)."""
        return self.m_alpha / (1.0 - self.alpha)


def _kernel_breakpoints(lo: float, hi: float, slope: float) -> list[float] | None:
    """Interior breakpoints aiding quadrature of a sharply peaked kernel.

    ``slope`` is the log-derivative of the weight in tau: positive means the
    weight peaks at the right end of the run.  With w = 1/|slope| the points
    hi - w*2^k (lo + w*2^k for a left peak), k = 0, 1, ..., that lie inside
    the run make every panel about as wide as its distance from the peak,
    so no panel of the 15-point rule misses the kernel's tail mass.
    """
    if abs(slope) * (hi - lo) < 20.0:
        return None
    w = 1.0 / abs(slope)
    pts = []
    while w < hi - lo:
        pts.append(hi - w if slope > 0 else lo + w)
        w *= 2.0
    return pts


def _dense_weighted(ts: TimeScale, f: Signal, lo: float, hi: float, rate: float,
                    anchor: float, tol: float) -> float:
    """integral_lo^hi f^delta(tau) * exp(rate * (anchor - tau)) dtau on a dense run.

    Closures without an exact derivative are handled by integration by
    parts, which avoids numerical differentiation under the integral.
    """
    if isinstance(f, Closure) and f.derivative is not None:
        fn = lambda tau: f.derivative(tau) * math.exp(rate * (anchor - tau))
        return _quad(fn, lo, hi, tol, points=_kernel_breakpoints(lo, hi, -rate))
    if isinstance(f, Closure):
        bdry = (f.func(hi) * math.exp(rate * (anchor - hi))
                - f.func(lo) * math.exp(rate * (anchor - lo)))
        fn = lambda tau: f.func(tau) * math.exp(rate * (anchor - tau))
        return bdry + rate * _quad(fn, lo, hi, tol,
                                   points=_kernel_breakpoints(lo, hi, -rate))
    # Sampled: exact cell increments weighted by the midpoint kernel value.
    pts = [lo, *f.between(lo, hi), hi]
    total = 0.0
    for p0, p1 in zip(pts, pts[1:]):
        dv = value(f, ts, p1) - value(f, ts, p0)
        total += dv * math.exp(rate * (anchor - 0.5 * (p0 + p1)))
    return total


def cf_delta_left_prefix(ts: TimeScale, f: Signal, mesh: Sequence[float],
                         order: CFOrder, tol: float | None = None) -> list[float]:
    """Left-sided fractional delta derivative of f over [mesh[0], t] at
    every point t of an increasing mesh, in one forward march.

    With S(t) = integral_a^t f^delta(tau) e_{alpha_bar}(t, sigma(tau)) dtau,
    the semigroup identity e(s1, tau) = e(s1, s0) e(s0, tau) gives
    S(s1) = e(s1, s0) S(s0) + (contribution of [s0, s1)), where the factor
    is 1 + mu*alpha_bar over a scattered point and exp(alpha_bar*len) over
    a dense piece.  The cells of [mesh[0], mesh[-1]) are walked once and
    front_factor * S is emitted at each mesh point, so a whole column costs
    O(n) instead of O(n^2).

    At alpha = 0 the values are exactly f(t) - f(a).  A degenerate kernel
    (1 + mu*alpha_bar = 0) is allowed while the span [a, t) lies in one
    uniform grid, with the usual 0**0 = 1 convention; NonRegressiveKernel
    is raised at the first mesh point whose hybrid span contains one,
    instead of silently discarding the history before it.
    """
    tol = QUAD_TOL if tol is None else tol
    mesh = [ts.snap(t) for t in mesh]
    if not mesh:
        raise DomainError("the mesh needs at least one point")
    if any(t1 <= t0 for t0, t1 in zip(mesh, mesh[1:])):
        raise DomainError("the mesh must be strictly increasing")
    a = mesh[0]
    if order.alpha == 0.0:
        f_a = value(f, ts, a)
        return [value(f, ts, t) - f_a for t in mesh]
    rate, front = order.alpha_bar, order.front_factor
    seg = ts.segments[ts._locate(a)[0]]
    # [a, t] lies in one uniform grid iff t <= grid_hi
    grid_hi = seg.hi if isinstance(seg, UniformGrid) else a
    out = [0.0]
    k = 1           # next mesh index to emit
    S = 0.0         # S(hi) of the last cell walked
    killed = False  # a degenerate kernel factor lies in [a, hi)
    f_lo = None     # f(lo) when the previous cell ended at lo on a scattered step
    for lo, hi, mu in ts.cells(mesh):
        if mu:
            killed = killed or _kills(mu, rate)
            f_hi = value(f, ts, hi)
            fd = (f_hi - (value(f, ts, lo) if f_lo is None else f_lo)) / mu
            S = (1.0 + mu * rate) * S + mu * fd
            f_lo = f_hi
        else:
            S = (math.exp(rate * (hi - lo)) * S
                 + _dense_weighted(ts, f, lo, hi, rate, hi, tol))
            f_lo = None
        if hi == mesh[k]:
            if killed and hi > grid_hi:
                raise NonRegressiveKernel(
                    f"graininess equals (1-alpha)/alpha = "
                    f"{(1 - order.alpha) / order.alpha:g} inside a hybrid span")
            out.append(front * S)
            k += 1
    return out


def cf_delta_left(ts: TimeScale, f: Signal, a: float, t: float, order: CFOrder,
                  tol: float | None = None) -> float:
    """Left-sided fractional delta derivative of f over [a, t].

    At alpha = 0 this is exactly f(t) - f(a).  On a step-h grid it is the
    weighted backward sum

        (M/(1-alpha)) * sum_k  h f^delta(kh) (1 + h*alpha_bar)^(t/h - k - 1),

    with the usual 0**0 = 1 convention, so a degenerate kernel
    (1 + h*alpha_bar = 0) is allowed there; on hybrid spans a graininess
    equal to (1-alpha)/alpha raises NonRegressiveKernel instead of silently
    discarding the history before it.  This is the last value of
    ``cf_delta_left_prefix`` on the mesh (a, t).
    """
    a = ts.snap(a)
    t = ts.snap(t)
    if t < a:
        raise DomainError(f"need a <= t, got a={a}, t={t}")
    return cf_delta_left_prefix(ts, f, [a, t] if t > a else [a], order, tol)[-1]


def cf_delta_right(ts: TimeScale, f: Signal, t: float, b: float, order: CFOrder,
                   tol: float | None = None) -> float:
    """Right-sided fractional delta derivative of f over [t, b].

    At alpha = 0 this is exactly f(b) - f(t).  The kernel is evaluated
    backwards, e(t, sigma(tau)) = 1/e(sigma(tau), t), so every factor
    1 + mu*alpha_bar must be strictly nonzero.
    """
    tol = QUAD_TOL if tol is None else tol
    t = ts.snap(t)
    b = ts.snap(b)
    if b < t:
        raise DomainError(f"need t <= b, got t={t}, b={b}")
    if order.alpha == 0.0:
        return value(f, ts, b) - value(f, ts, t)
    rate = order.alpha_bar
    total = 0.0
    accum = 1.0  # e_{alpha_bar}(pos, t), marching pos from t up to b
    for lo, hi, mu in ts.cells((t, b)):
        if mu:
            if _kills(mu, rate):
                raise NonRegressiveKernel(
                    f"kernel factor 1 + mu*alpha_bar vanishes at tau={lo!r}")
            accum *= 1.0 + mu * rate
            fd = (value(f, ts, lo + mu) - value(f, ts, lo)) / mu
            total += mu * fd / accum
        else:
            # kernel at tau in the run: exp(rate*(lo - tau)) / accum
            total += _dense_weighted(ts, f, lo, hi, rate, lo, tol) / accum
            accum *= math.exp(rate * (hi - lo))
    return order.front_factor * total


def cf_integral(ts: TimeScale, u: Signal, t: float, order: CFOrder,
                tol: float | None = None) -> float:
    """Fractional delta integral of order alpha from 0 to t.

    The affine combination ((1-alpha)/M) u(t) + (alpha/M) integral_0^t u;
    with M = 1 the weights average the function and its first-order
    integral.
    """
    if not 0.0 < order.alpha < 1.0:
        raise DomainError("fractional integral needs alpha in (0, 1)")
    t = ts.snap(t)
    if t < 0.0:
        raise DomainError("fractional integral starts at 0; need t >= 0")
    w = 1.0 / order.m_alpha
    return ((1.0 - order.alpha) * w * value(u, ts, t)
            + order.alpha * w * delta_integral(ts, u, 0.0, t, tol))


@dataclass(frozen=True)
class LimitEntry:
    alpha: float
    cf_value: float
    abs_error: float


@dataclass(frozen=True)
class LimitReport:
    """Evidence for the alpha -> 1 behavior of the left-sided operator."""

    delta_value: float
    entries: tuple[LimitEntry, ...]

    @property
    def errors_decreasing(self) -> bool:
        errs = [e.abs_error for e in self.entries]
        return all(b <= a * (1.0 + 1e-12) for a, b in zip(errs, errs[1:]))


def cf_limit_check(ts: TimeScale, f: Signal, a: float, t: float,
                   alphas: Sequence[float]) -> LimitReport:
    """Compare the fractional derivative against f^delta(t) along an
    increasing sequence of orders."""
    if any(b <= a_ for a_, b in zip(alphas, alphas[1:])) or not alphas:
        raise DomainError("alphas must be strictly increasing")
    if not all(0.0 <= al < 1.0 for al in alphas):
        raise DomainError("alphas must lie in [0, 1)")
    fd = delta_derivative(ts, f, t)
    entries = []
    for al in alphas:
        v = cf_delta_left(ts, f, a, t, CFOrder(al))
        entries.append(LimitEntry(al, v, abs(v - fd)))
    return LimitReport(fd, tuple(entries))
