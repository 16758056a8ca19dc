"""Fractional delta operators with a non-singular exponential kernel.

For an order ``alpha`` in [0, 1) the kernel rate is ``alpha_bar =
alpha/(alpha - 1) <= 0`` and the left-sided derivative of f over [a, t] is

    (1/(1-alpha)) * integral_a^t  f^delta(tau) e_{alpha_bar}(t, sigma(tau)) dtau,

the Caputo--Fabrizio construction carried to an arbitrary time scale: the
first-order delta derivative convolved with the time-scale exponential.
Both operators are ``calculus.kernel_march`` over the term column of the
increments of f (``_increments``, one comprehension over the cells, which
reads f once per cell end, by index when f is sampled on the mesh): at
rate alpha_bar its S at each mesh point is the left operator
(``cf_delta_left_prefix``; ``cf_delta_left`` is the march on (a, t)) and
its e column over [t, b] the running weight e(hi, t); at rate 0, with
each increment divided by that weight, its S(b) is the right one.  The
fractional integral is (1-alpha) * u(t) + alpha * integral_0^t u.
"""

from __future__ import annotations

import math
from operator import le
from typing import Sequence

from ._record import record
from .calculus import (
    Cell,
    _first_killed,
    _u_run_integral,
    _walk,
    delta_integral,
    kernel_march,
)
from .errors import DomainError, NonRegressiveKernel
from .signals import Closure, Sampled, Signal, _column, as_signal, value
from .timescale import TimeScale, UniformGrid


@record
class CFOrder:
    """Fractional order alpha in [0, 1); the normalization M(alpha) is 1, and
    any other constant M rescales: D_M = M * D and I_M = I / M."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise DomainError(f"order must satisfy 0 <= alpha < 1, got {self.alpha}")

    @property
    def alpha_bar(self) -> float:
        """Kernel rate alpha/(alpha-1); zero iff alpha is zero, else negative."""
        return self.alpha / (self.alpha - 1.0)

    @property
    def front_factor(self) -> float:
        """1/(1-alpha)."""
        return 1.0 / (1.0 - self.alpha)


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
        total += _dense_piece(value(f, ts, p0), value(f, ts, p1), p0, p1, hi, rate)
    return total


def _dense_piece(v0: float, v1: float, p0: float, p1: float, hi: float,
                 rate: float) -> float:
    """The midpoint rule of a Sampled f^delta on the piece [p0, p1] of a
    dense cell ending at hi, f going from v0 to v1: the increment weighted
    by the kernel at the piece's midpoint."""
    return (v1 - v0) * math.exp(rate * (hi - 0.5 * (p0 + p1)))


def _increments(ts: TimeScale, f: Signal, cells: Sequence[Cell], ends: Sequence[float],
                rate: float, grid_hi: float) -> list[float]:
    """The term column of f^delta over the cells with these ends:
    mu*((f(hi) - f(lo))/mu) on a scattered cell, ``_dense_weighted`` on a
    dense one.  f is read once per end of a scattered cell, by index when
    f is sampled on exactly the ends; then each dense cell lies between
    two consecutive samples and is one ``_dense_piece`` (this path saves
    grid-kernel's in-process ``simulate`` 2.6-3.6 ms, 2-core host).  Raises
    NonRegressiveKernel at the first cell past ``grid_hi`` once a factor
    1 + mu*rate has vanished in the span walked, after the terms of the
    cells before it."""
    k = _first_killed(cells, rate)
    stop = next((j for j in range(k, len(cells)) if cells[j][1] > grid_hi), len(cells))
    live = cells[:stop]
    if isinstance(f, Sampled) and f.mesh == ends:
        v = f.values
        # _dense_weighted's sum starts at 0.0, so a -0.0 piece reads 0.0
        terms = [mu * ((v1 - v0) / mu) if mu else 0.0 + _dense_piece(v0, v1, lo, hi, hi, rate)
                 for (lo, hi, mu), v0, v1 in zip(live, v, v[1:])]
    else:
        mus = [mu for _, _, mu in live]
        n = len(mus)
        v = [value(f, ts, t) if (j < n and mus[j]) or (j and mus[j - 1]) else 0.0
             for j, t in enumerate(ends[:n + 1])]
        terms = [mu * ((v1 - v0) / mu) if mu else _dense_weighted(ts, f, lo, hi, rate)
                 for (lo, hi, mu), v0, v1 in zip(live, v, v[1:])]
    if stop < len(cells):
        raise NonRegressiveKernel(
            f"kernel factor 1 + mu*alpha_bar vanishes before t={cells[stop][1]!r} "
            f"(graininess (1-alpha)/alpha = {-1.0 / rate:g})")
    return terms


def _left_march(ts: TimeScale, f: Signal, mesh: Sequence[float],
                order: CFOrder) -> list[float]:
    """``cf_delta_left_prefix`` on canonical mesh points, read as they are.
    A mesh that is empty, not strictly increasing, or has a point off the
    scale raises DomainError."""
    if not mesh:
        raise DomainError("the mesh needs at least one point")
    mesh = tuple(mesh)
    if any(map(le, mesh[1:], mesh)):
        raise DomainError("the mesh must be strictly increasing")
    if order.alpha == 0.0:
        col = _column(f, ts, mesh)
        return [v - col[0] for v in col]
    a = mesh[0]
    rate, front = order.alpha_bar, order.front_factor
    seg = ts.segments[ts._locate(a)[0]]
    # [a, t] lies in one uniform grid iff t <= grid_hi
    grid_hi = seg.hi if isinstance(seg, UniformGrid) else a
    cells, ends = _walk(ts, mesh)
    terms = _increments(ts, f, cells, ends, rate, grid_hi)
    return [0.0, *[front * S for _, S in kernel_march(cells, mesh, rate, terms)]]


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

        (1/(1-alpha)) * sum_k  h f^delta(kh) (1 + h*alpha_bar)^(t/h - k - 1),

    with the usual 0**0 = 1 convention for a degenerate kernel.
    """
    a, t = ts.snap(a), ts.snap(t)
    if t < a:
        raise DomainError(f"need a <= t, got a={a}, t={t}")
    return _left_march(ts, f, [a, t] if t > a else [a], order)[-1]


def cf_delta_right(ts: TimeScale, f: Signal, t: float, b: float, order: CFOrder) -> float:
    """Right-sided fractional delta derivative of f over [t, b].

    At alpha = 0 this is exactly f(b) - f(t).  Otherwise the kernel is
    evaluated backwards, e(t, sigma(tau)) = 1/e(sigma(tau), t): the running
    weights e(hi, t) are the e column of the kernel march at rate alpha_bar,
    and the march at rate 0 sums each cell's increment over its weight, so
    every factor 1 + mu*alpha_bar must be nonzero (else NonRegressiveKernel),
    and a value outside the float range raises DomainError.
    """
    t, b = ts.snap(t), ts.snap(b)
    if b < t:
        raise DomainError(f"need t <= b, got t={t}, b={b}")
    if order.alpha == 0.0:
        return value(f, ts, b) - value(f, ts, t)
    rate = order.alpha_bar
    cells, ends = _walk(ts, (t, b))
    # e_{alpha_bar}(hi, t) of every cell; a zero one ends the walk there
    weights = [e for e, _ in kernel_march(cells, ends, rate, [0.0] * len(cells))]
    zero = weights.index(0.0) if 0.0 in weights else len(cells)
    increments = _increments(ts, f, cells[:zero + 1], ends[:zero + 2], rate, -math.inf)
    if zero < len(cells):
        raise DomainError(f"the kernel weight 1/e(tau, {t}) overflows at "
                          f"tau={cells[zero][1]!r}")
    terms = [d / w for d, w in zip(increments, weights)]
    S = kernel_march(cells, (t, b), 0.0, terms)[-1][1] if cells else 0.0
    x = order.front_factor * S
    if not math.isfinite(x):
        raise DomainError(f"the right operator leaves the float range on [{t}, {b}]")
    return x


def cf_integral(ts: TimeScale, u: Signal, t: float, order: CFOrder) -> float:
    """Fractional delta integral of order alpha from 0 to t.

    The affine combination (1-alpha) u(t) + alpha integral_0^t u: the
    weights average the function and its first-order integral.
    """
    if not 0.0 < order.alpha < 1.0:
        raise DomainError("fractional integral needs alpha in (0, 1)")
    t = ts.snap(t)
    if t < 0.0:
        raise DomainError("fractional integral starts at 0; need t >= 0")
    return ((1.0 - order.alpha) * value(u, ts, t)
            + order.alpha * delta_integral(ts, u, 0.0, t))

