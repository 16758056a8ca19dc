"""Base calculus on a time scale: delta derivative, delta (Cauchy) integral,
regressivity, the time-scale exponential for a constant coefficient, and
the kernel march that carries every exponential-kernel operator.

Scattered points use exact difference quotients and weighted sums; dense
runs fall back to ordinary calculus (adaptive quadrature, numerical
differentiation with Richardson extrapolation).  The quadrature is the
adaptive Gauss--Kronrod G7/K15 rule of QUADPACK (``qk15`` with a global
queue of subintervals; Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner,
QUADPACK, Springer 1983), written against the standard library.
``kernel_march`` is the one walk over ``TimeScale.cells`` that carries an
exponential kernel: the exponential, the delta integral (rate 0), both
fractional operators and the linear closed form run on it, with
``_u_run_integral`` as the one quadrature of a dense cell.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, Iterator, Sequence

from .errors import (
    DenseDerivativeUnavailable,
    DomainError,
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


# QUADPACK qk15: the 15 Kronrod abscissae on [-1, 1] (positive half,
# descending) with their weights; the odd-indexed abscissae are the 7-point
# Gauss nodes, whose weights are _WG.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

#: Subintervals the adaptive rule may use before it gives up.
QUAD_LIMIT = 200

_EPS = sys.float_info.epsilon


def _qk15(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """K15 value of the integral of fn over [a, b] and QUADPACK's error
    estimate: the G7/K15 difference scaled by resasc, floored at round-off."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = fn(c)
    res_g, res_k = fc * _WG[3], fc * _WGK[7]
    res_abs = abs(res_k)
    pairs = []
    for j, x in enumerate(_XGK[:7]):
        f1, f2 = fn(c - h * x), fn(c + h * x)
        pairs.append((f1, f2))
        if j % 2:
            res_g += _WG[j // 2] * (f1 + f2)
        res_k += _WGK[j] * (f1 + f2)
        res_abs += _WGK[j] * (abs(f1) + abs(f2))
    mean = 0.5 * res_k
    res_asc = _WGK[7] * abs(fc - mean) + sum(
        w * (abs(f1 - mean) + abs(f2 - mean)) for w, (f1, f2) in zip(_WGK, pairs))
    res_abs *= h
    res_asc *= h
    err = abs((res_k - res_g) * h)
    if res_asc and err:
        err = res_asc * min(1.0, (200.0 * err / res_asc) ** 1.5)
    if res_abs > sys.float_info.min / (50.0 * _EPS):
        err = max(50.0 * _EPS * res_abs, err)
    return res_k * h, err


def _quad(fn: Callable[[float], float], lo: float, hi: float, tol: float,
          points: Sequence[float] | None = None) -> float:
    """Integral of fn over [lo, hi], split first at the ``points`` inside
    (lo, hi), then by bisecting the subinterval with the largest error
    estimate until the summed estimate is at most max(tol, rel*|integral|)
    with rel = max(1e-12, tol).

    A lone first panel that already meets the rule is returned at once:
    the fsum of one term is that term (with -0.0 read as 0.0), so this is
    the value the queue would give.  One that fails it seeds the queue.
    """
    if hi <= lo:
        return 0.0
    ends = [lo, *sorted(p for p in points or () if lo < p < hi), hi]
    rel = max(1e-12, tol)
    queue = []  # (-error estimate, a, b, value): the worst subinterval first
    for a, b in zip(ends, ends[1:]):
        val, err = _qk15(fn, a, b)
        queue.append((-err, a, b, val))
    if len(queue) == 1 and err <= max(tol, rel * abs(val)):
        return val + 0.0
    heapq.heapify(queue)
    while True:
        total = math.fsum(q[3] for q in queue)
        err = -math.fsum(q[0] for q in queue)
        if err <= max(tol, rel * abs(total)):
            return total
        if len(queue) >= QUAD_LIMIT:
            raise QuadratureNonConvergence(
                f"error estimate {err:.3g} on [{lo!r}, {hi!r}] "
                f"after {QUAD_LIMIT} subintervals")
        _, a, b, _ = heapq.heappop(queue)
        mid = 0.5 * (a + b)
        for a, b in ((a, mid), (mid, b)):
            val, err = _qk15(fn, a, b)
            heapq.heappush(queue, (-err, a, b, val))


def _richardson_derivative(f: Callable[[float], float], t: float,
                           lo: float, hi: float) -> float:
    """Ordinary derivative of f at t to DERIV_TOL, sampling only inside
    [lo, hi].

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
        if err <= DERIV_TOL * max(1.0, abs(row[-1])):
            return row[-1]
        table = row
    return best


def delta_derivative(ts: TimeScale, f: Signal, t: float) -> float:
    """Delta derivative of f at t.

    Right-scattered t: the exact quotient (f(sigma(t)) - f(t)) / mu(t).
    Dense t: the signal's exact derivative when available, otherwise a
    difference quotient refined to DERIV_TOL.
    """
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
    return _richardson_derivative(f.func, t, seg.lo, seg.hi)


def _growth(rate: float, lo: float, hi: float, mu: float) -> float:
    """e_rate(hi, lo) of one cell: 1 + mu*rate if it is scattered,
    exp(rate*(hi - lo)) if it is dense."""
    return 1.0 + mu * rate if mu else math.exp(rate * (hi - lo))


def kernel_march(ts: TimeScale, mesh: Sequence[float], rate: float,
                 term: Callable[[float, float, float], float]
                 ) -> Iterator[tuple[float, float]]:
    """Walk the cells of an increasing canonical mesh once and yield
    (e_rate(t, mesh[0]), S(t)) at each mesh point t after the first.

    Each cell steps (e, S) <- (grow*e, grow*S + term(lo, hi, mu)) with
    grow = e_rate(hi, lo): 1 + mu*rate on a scattered cell, exp(rate*(hi - lo))
    on a dense one.  For a term that integrates g(tau) e_rate(hi, sigma(tau))
    over the cell, the semigroup identity (Bohner & Peterson, Dynamic
    Equations on Time Scales, 2001, Thm 2.36) makes S(t) the convolution
    integral_{mesh[0]}^t g(tau) e_rate(t, sigma(tau)) dtau, in O(n) for the
    whole mesh.  The term checks regressivity where a caller needs it.
    A mesh point that is off the scale or repeated is never reached by a
    cell; the walk then ends in DomainError instead of a short column.
    """
    e, S = 1.0, 0.0
    k = 1  # next mesh index to emit
    for lo, hi, mu in ts.cells(mesh):
        grow = _growth(rate, lo, hi, mu)
        e *= grow
        S = grow * S + term(lo, hi, mu)
        if hi == mesh[k]:
            yield e, S
            k += 1
    if k < len(mesh):
        raise DomainError(f"mesh point {mesh[k]!r} is not a canonical point of "
                          f"the scale after {mesh[k - 1]!r}")


def _march_to(ts: TimeScale, a: float, b: float, rate: float,
              term: Callable[[float, float, float], float]) -> tuple[float, float]:
    """(e_rate(b, a), S(b)) of the kernel march over the canonical span
    [a, b]; (1, 0) when a == b."""
    return next(kernel_march(ts, (a, b), rate, term)) if b > a else (1.0, 0.0)


def _convolved(ts: TimeScale, u: Signal, p: float, tol: float | None):
    """The kernel-march term that convolves u with e_p: mu * u(lo) on a
    scattered cell, ``_u_run_integral`` on a dense one."""
    return lambda lo, hi, mu: (mu * value(u, ts, lo) if mu
                               else _u_run_integral(ts, u, lo, hi, p, tol))


def delta_integral(ts: TimeScale, f: Signal, a: float, b: float) -> float:
    """Cauchy (delta) integral of f over [a, b), a <= b: the kernel march at
    rate 0.  Scattered points contribute mu(t) * f(t); dense runs are
    integrated by adaptive quadrature (Closure) or by the trapezoid rule on
    the stored mesh (Sampled).  Zero when a == b."""
    a, b = ts.snap(a), ts.snap(b)
    if b < a:
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    return _march_to(ts, a, b, 0.0, _convolved(ts, f, 0.0, None))[1]


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


def _u_run_integral(ts: TimeScale, u: Signal, lo: float, hi: float, p: float,
                    tol: float | None) -> float:
    """integral_lo^hi u(tau) exp(p*(hi - tau)) dtau over one dense cell:
    quadrature to ``tol`` (default QUAD_TOL) split at the kernel
    breakpoints for a Closure, the midpoint-weighted trapezoid rule on the
    stored mesh for a Sampled signal."""
    if isinstance(u, Closure):
        return _quad(lambda tau: u.func(tau) * math.exp(p * (hi - tau)), lo, hi,
                     QUAD_TOL if tol is None else tol, _kernel_breakpoints(lo, hi, -p))
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
    """Time-scale exponential e_p(t, t0) for a constant p: the kernel march's
    product of 1 + mu*p over the scattered points of [t0, t) and exp(p*len)
    over its dense runs; t < t0 goes through the reciprocal.  On a step-h
    grid this is (1 + h*p) ** ((t - t0)/h)."""
    t, t0 = ts.snap(t), ts.snap(t0)
    if t < t0:
        return 1.0 / exp_ts(ts, p, t0, t)

    def term(lo, hi, mu):
        if _kills(mu, p):
            raise NonRegressiveParameter(
                f"1 + mu*p vanishes at t={lo!r} (mu={mu!r}, p={p!r})")
        return 0.0

    return _march_to(ts, t0, t, p, term)[0]
