"""Fractional delta operators with a non-singular exponential kernel.

For an order ``alpha`` in [0, 1) the kernel rate is ``alpha_bar =
alpha/(alpha - 1) <= 0`` and the left-sided derivative of f over [a, t] is

    (M(alpha)/(1-alpha)) * integral_a^t  f^delta(tau) e_{alpha_bar}(t, sigma(tau)) dtau,

the Caputo--Fabrizio construction carried to an arbitrary time scale: the
first-order delta derivative convolved with the time-scale exponential.
Both operators are ``calculus.kernel_march`` over the increments of f: at
rate alpha_bar its S at each mesh point is the left operator
(``cf_delta_left_prefix``; ``cf_delta_left`` is the march on (a, t)), and
at rate 0, with each increment divided by the running weight e(hi, t), its
S(b) over [t, b] is the right one.  The fractional integral of order alpha
is the weighted average (1-alpha)/M * u(t) + alpha/M * integral_0^t u.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._record import record
from .calculus import (
    _growth,
    _kills,
    _march_to,
    _u_run_integral,
    delta_integral,
    kernel_march,
)
from .errors import DomainError, NonRegressiveKernel
from .signals import Closure, Signal, as_signal, value
from .timescale import TimeScale, UniformGrid


@record
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


def _dense_weighted(ts: TimeScale, f: Signal, lo: float, hi: float, rate: float) -> float:
    """integral_lo^hi f^delta(tau) exp(rate*(hi - tau)) dtau on a dense cell: a
    Closure through ``_u_run_integral`` (its exact derivative, in closed form
    when that is a Closure with a kernel integral, else f by parts, which
    avoids numerical differentiation under the integral), a Sampled signal
    as its exact cell increments weighted by the midpoint kernel."""
    if isinstance(f, Closure) and f.derivative is not None:
        return _u_run_integral(ts, as_signal(f.derivative), lo, hi, rate)
    if isinstance(f, Closure):
        return (f.func(hi) - f.func(lo) * math.exp(rate * (hi - lo))
                + rate * _u_run_integral(ts, f, lo, hi, rate))
    pts = [lo, *f.between(lo, hi), hi]
    total = 0.0
    for p0, p1 in zip(pts, pts[1:]):
        dv = value(f, ts, p1) - value(f, ts, p0)
        total += dv * math.exp(rate * (hi - 0.5 * (p0 + p1)))
    return total


def _increments(ts: TimeScale, f: Signal, rate: float, grid_hi: float):
    """The kernel-march term of f^delta: mu * f^delta(lo) on a scattered cell,
    ``_dense_weighted`` on a dense one.  Raises NonRegressiveKernel past
    ``grid_hi`` once a factor 1 + mu*rate has vanished in the span walked."""
    killed = False
    f_lo = None  # f(lo) when the previous cell ended at lo on a scattered step

    def term(lo, hi, mu):
        nonlocal killed, f_lo
        killed = killed or _kills(mu, rate)
        if killed and hi > grid_hi:
            raise NonRegressiveKernel(
                f"kernel factor 1 + mu*alpha_bar vanishes before t={hi!r} "
                f"(graininess (1-alpha)/alpha = {-1.0 / rate:g})")
        if not mu:
            f_lo = None
            return _dense_weighted(ts, f, lo, hi, rate)
        f_hi = value(f, ts, hi)
        fd = (f_hi - (value(f, ts, lo) if f_lo is None else f_lo)) / mu
        f_lo = f_hi
        return mu * fd

    return term


def _left_march(ts: TimeScale, f: Signal, mesh: Sequence[float],
                order: CFOrder) -> list[float]:
    """``cf_delta_left_prefix`` on canonical mesh points, read as they are.
    A mesh that is empty, not strictly increasing, or has a point off the
    scale raises DomainError."""
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
    term = _increments(ts, f, rate, grid_hi)
    return [0.0, *(front * S for _, S in kernel_march(ts, mesh, rate, term))]


def cf_delta_left_prefix(ts: TimeScale, f: Signal, mesh: Sequence[float],
                         order: CFOrder) -> list[float]:
    """Left-sided fractional delta derivative of f over [mesh[0], t] at
    every point t of an increasing mesh (snapped to the scale first), from
    one ``kernel_march`` at rate alpha_bar: front_factor * S(t), so a whole
    column costs O(n) instead of O(n^2).

    At alpha = 0 the values are exactly f(t) - f(a).  A degenerate kernel
    (1 + mu*alpha_bar = 0) is allowed while the span [a, t) lies in one
    uniform grid, with the usual 0**0 = 1 convention; NonRegressiveKernel
    is raised when the mesh reaches past it into a hybrid span, instead of
    silently discarding the history before it.
    """
    return _left_march(ts, f, [ts.snap(t) for t in mesh], order)


def cf_delta_left(ts: TimeScale, f: Signal, a: float, t: float, order: CFOrder) -> float:
    """Left-sided fractional delta derivative of f over [a, t]: the last
    value of ``cf_delta_left_prefix`` on the mesh (a, t).

    At alpha = 0 this is exactly f(t) - f(a).  On a step-h grid it is the
    weighted backward sum

        (M/(1-alpha)) * sum_k  h f^delta(kh) (1 + h*alpha_bar)^(t/h - k - 1),

    with the usual 0**0 = 1 convention for a degenerate kernel.
    """
    a, t = ts.snap(a), ts.snap(t)
    if t < a:
        raise DomainError(f"need a <= t, got a={a}, t={t}")
    return _left_march(ts, f, [a, t] if t > a else [a], order)[-1]


def cf_delta_right(ts: TimeScale, f: Signal, t: float, b: float, order: CFOrder) -> float:
    """Right-sided fractional delta derivative of f over [t, b].

    At alpha = 0 this is exactly f(b) - f(t).  Otherwise the kernel is
    evaluated backwards, e(t, sigma(tau)) = 1/e(sigma(tau), t): the kernel
    march at rate 0 sums each cell's increment over the running weight
    e(hi, t), so every factor 1 + mu*alpha_bar must be nonzero (else
    NonRegressiveKernel), and a value outside the float range raises
    DomainError.
    """
    t, b = ts.snap(t), ts.snap(b)
    if b < t:
        raise DomainError(f"need t <= b, got t={t}, b={b}")
    if order.alpha == 0.0:
        return value(f, ts, b) - value(f, ts, t)
    rate = order.alpha_bar
    increment = _increments(ts, f, rate, -math.inf)
    accum = 1.0  # e_{alpha_bar}(hi, t) of the cell last walked

    def term(lo, hi, mu):
        nonlocal accum
        d = increment(lo, hi, mu)
        accum *= _growth(rate, lo, hi, mu)
        if not accum:
            raise DomainError(f"the kernel weight 1/e(tau, {t}) overflows at tau={hi!r}")
        return d / accum

    x = order.front_factor * _march_to(ts, t, b, 0.0, term)[1]
    if not math.isfinite(x):
        raise DomainError(f"the right operator leaves the float range on [{t}, {b}]")
    return x


def cf_integral(ts: TimeScale, u: Signal, t: float, order: CFOrder) -> float:
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
            + order.alpha * w * delta_integral(ts, u, 0.0, t))

