"""Base calculus on a time scale: delta derivative, delta (Cauchy) integral,
regressivity, the time-scale exponential for a constant coefficient, and
the kernel march that carries every exponential-kernel operator.

Scattered points use exact difference quotients and weighted sums; dense
runs fall back to ordinary calculus: a Closure's exact kernel integral when
it carries one (``signals.constant`` and ``signals.sine``), else adaptive
quadrature, and numerical differentiation with Richardson extrapolation.
The quadrature is the adaptive Gauss--Kronrod G7/K15 rule of QUADPACK
(``qk15`` with a global queue of subintervals; Piessens, de
Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, Springer 1983), written
against the standard library.  ``kernel_march`` is the one recurrence
over the cells: the exponential, the delta integral (rate 0), both
fractional operators and the right one's weights, the linear closed form
and the stability average run on it, with ``_u_run_integral`` as the one
integral of a dense cell.  It is
columnar: a caller takes the cells of its mesh from ``_walk`` (the one
owner of ``TimeScale.cells``, which keeps its last walk for the next march
on the same mesh), builds its term column with one comprehension over
them, and the march runs (e, S) <- (g*e, g*S + c) in one loop.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, Sequence

from ._record import keep_last
from .errors import (
    DenseDerivativeUnavailable,
    DomainError,
    NonRegressiveParameter,
    OutsideKappaDomain,
    QuadratureNonConvergence,
)
from .signals import Closure, Sampled, Signal, _phi1, sampled_slope, value
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
    res_asc = 0.0  # a loop: sum() is compensated from Python 3.12 on
    for w, (f1, f2) in zip(_WGK, pairs):
        res_asc += w * (abs(f1 - mean) + abs(f2 - mean))
    res_asc = (_WGK[7] * abs(fc - mean) + res_asc) * h
    res_abs *= h
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
    """
    if hi <= lo:
        return 0.0
    ends = [lo, *sorted(p for p in points or () if lo < p < hi), hi]
    rel = max(1e-12, tol)
    queue = []  # (-error estimate, a, b, value): the worst subinterval first
    for a, b in zip(ends, ends[1:]):
        val, err = _qk15(fn, a, b)
        queue.append((-err, a, b, val))
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


Cell = tuple[float, float, float]


@keep_last
def _walk(ts: TimeScale, mesh: tuple[float, ...]) -> tuple[tuple[Cell, ...], tuple[float, ...]]:
    """The cells of an increasing canonical mesh (``TimeScale.cells``; none
    for a one-point span) and their ends: the first lo, then every hi.
    The ends equal the mesh iff the cells are its steps.  The scale keeps
    its last walk, so the trajectory, the residual and the classical walks
    of one scenario, at every alpha, share one."""
    cells = tuple(ts.cells(mesh))
    return cells, tuple([cells[0][0], *[hi for _, hi, _ in cells]] if cells else ())


def kernel_march(cells: Sequence[Cell], mesh: Sequence[float], rate: float,
                 terms: Sequence[float]) -> list[tuple[float, float]]:
    """Step (e, S) over the cells of an increasing canonical mesh and return
    (e_rate(t, mesh[0]), S(t)) at each mesh point t after the first.

    ``cells`` are the cells of the mesh (``TimeScale.cells(mesh)``) and
    ``terms`` their term column, one number per cell; columns of different
    lengths raise ValueError.  Each cell steps (e, S) <- (g*e, g*S + c)
    with g = e_rate(hi, lo): 1 + mu*rate on a scattered cell,
    exp(rate*(hi - lo)) on a dense one.  For terms that
    integrate h(tau) e_rate(hi, sigma(tau)) over each cell, the semigroup
    identity (Bohner & Peterson, Dynamic Equations on Time Scales, 2001,
    Thm 2.36) makes S(t) the convolution
    integral_{mesh[0]}^t h(tau) e_rate(t, sigma(tau)) dtau, in O(n) for the
    whole mesh.  A mesh point that is off the scale or repeated is never
    reached by a cell; the march then ends in DomainError instead of a
    short column.
    """
    exp = math.exp
    e, S = 1.0, 0.0
    out = []
    k = 1  # next mesh index to reach
    for (lo, hi, mu), c in zip(cells, terms, strict=True):
        g = 1.0 + mu * rate if mu else exp(rate * (hi - lo))
        e *= g
        S = g * S + c
        if hi == mesh[k]:
            out.append((e, S))
            k += 1
    if k < len(mesh):
        raise DomainError(f"mesh point {mesh[k]!r} is not a canonical point of "
                          f"the scale after {mesh[k - 1]!r}")
    return out


def _convolution_terms(ts: TimeScale, u: Signal, cells: Sequence[Cell],
                       u_lo: Sequence[float], p: float) -> list[float]:
    """The term column that convolves u with e_p: mu * u(lo) on a scattered
    cell, ``_u_run_integral`` on a dense one; ``u_lo`` holds u at each
    cell's lo (any number at a dense cell)."""
    return [mu * v if mu else _u_run_integral(ts, u, lo, hi, p)
            for (lo, hi, mu), v in zip(cells, u_lo)]


def _scattered_lo(ts: TimeScale, u: Signal, cells: Sequence[Cell]) -> list[float]:
    """u at the lo of every scattered cell, 0.0 at a dense one."""
    return [value(u, ts, lo) if mu else 0.0 for lo, _, mu in cells]


def delta_integral(ts: TimeScale, f: Signal, a: float, b: float) -> float:
    """Cauchy (delta) integral of f over [a, b), a <= b: the kernel march at
    rate 0.  Scattered points contribute mu(t) * f(t); dense runs are
    integrated by adaptive quadrature (Closure) or by the trapezoid rule on
    the stored mesh (Sampled).  Zero when a == b."""
    a, b = ts.snap(a), ts.snap(b)
    if b < a:
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    cells, _ = _walk(ts, (a, b))
    if not cells:
        return 0.0
    terms = _convolution_terms(ts, f, cells, _scattered_lo(ts, f, cells), 0.0)
    return kernel_march(cells, (a, b), 0.0, terms)[-1][1]


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


def _psi(z: float, phi1: float) -> float:
    """psi(z) = integral_0^1 x e^(z*x) dx = (e^z - phi1(z))/z, the weight of
    a linear interpolant's slope against an exponential; below |z| = 1e-2,
    where that difference cancels, its Taylor series sum z^k/(k!(k+2))."""
    if abs(z) < 1e-2:
        return 1 / 2 + z * (1 / 3 + z * (1 / 8 + z * (1 / 30 + z * (
            1 / 144 + z * (1 / 840 + z / 5760)))))
    return (math.exp(z) - phi1) / z


def _u_run_integral(ts: TimeScale, u: Signal, lo: float, hi: float, p: float) -> float:
    """integral_lo^hi u(tau) exp(p*(hi - tau)) dtau over one dense cell:
    the Closure's exact ``kernel_integral`` when it has one (``constant``,
    ``sine``), else quadrature to QUAD_TOL split at the kernel breakpoints
    for a Closure.  A Sampled signal is its linear interpolant, integrated
    exactly against the kernel on each piece [p0, p1] of the stored mesh:
    d*E*(v1*phi1(z) - (v1 - v0)*psi(z)) with d = p1 - p0, z = p*d and
    E = exp(p*(hi - p1)), the weights of exponential time differencing
    (Cox & Matthews, J. Comput. Phys. 176, 2002), so a steep kernel keeps
    its mass next to hi."""
    if isinstance(u, Closure):
        if u.kernel_integral is not None:
            return u.kernel_integral(lo, hi, p)
        return _quad(lambda tau: u.func(tau) * math.exp(p * (hi - tau)), lo, hi,
                     QUAD_TOL, _kernel_breakpoints(lo, hi, -p))
    pts = [lo, *u.between(lo, hi), hi]
    vals = [value(u, ts, t) for t in pts]
    total = 0.0
    for p0, p1, v0, v1 in zip(pts, pts[1:], vals, vals[1:]):
        d = p1 - p0
        z = p * d
        phi = _phi1(z).real
        total += d * math.exp(p * (hi - p1)) * (v1 * phi - (v1 - v0) * _psi(z, phi))
    return total


def is_regressive(ts: TimeScale, p: float) -> bool:
    """Whether 1 + mu(t)*p is nonzero for every graininess of the scale."""
    return all(not _kills(mu, p) for mu in ts.graininess_values())


def _kills(mu: float, p: float) -> bool:
    return abs(1.0 + mu * p) <= 1e-14 * max(1.0, abs(mu * p))


def _first_killed(cells: Sequence[Cell], p: float) -> int:
    """The index of the first cell whose factor 1 + mu*p vanishes, or
    len(cells); each distinct graininess is tested once."""
    dead = {mu for mu in {mu for _, _, mu in cells} if _kills(mu, p)}
    if not dead:
        return len(cells)
    return next(k for k, (_, _, mu) in enumerate(cells) if mu in dead)


def exp_ts(ts: TimeScale, p: float, t: float, t0: float) -> float:
    """Time-scale exponential e_p(t, t0) for a constant p: the kernel march's
    product of 1 + mu*p over the scattered points of [t0, t) and exp(p*len)
    over its dense runs; t < t0 goes through the reciprocal (DomainError
    outside the float range).  On a step-h grid: (1 + h*p) ** ((t - t0)/h)."""
    t, t0 = ts.snap(t), ts.snap(t0)
    if t < t0:
        back = exp_ts(ts, p, t0, t)
        if not back or math.isinf(1.0 / back):
            raise DomainError(f"e_p({t}, {t0}) = 1/e_p({t0}, {t}) leaves the float range")
        return 1.0 / back
    cells, _ = _walk(ts, (t0, t))
    k = _first_killed(cells, p)
    if k < len(cells):
        lo, _, mu = cells[k]
        raise NonRegressiveParameter(f"1 + mu*p vanishes at t={lo!r} (mu={mu!r}, p={p!r})")
    return kernel_march(cells, (t0, t), p, [0.0] * len(cells))[-1][0] if cells else 1.0
