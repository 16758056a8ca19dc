"""Closed-form solutions of the linear fractional equation

    D^(alpha) x (t) = lambda * x(t) + u(t),    x(0) = x0,

where D^(alpha) is the left-sided exponential-kernel fractional delta
derivative based at 0.  With K = 1 - lambda*(1-alpha) nonzero and
p = lambda*alpha/K regressive, the solution is

    x(t) = x0 - (1/K)(1 - e_p(t,0)) x0 + ((1-alpha)/K)(u(t) - u(0))
           + (alpha/K^2) * integral_0^t e_p(t, sigma(tau)) u(tau) dtau.

One ``calculus.kernel_march`` at rate p carries e_p(t, 0) and the
weighted integral (O(n) instead of O(n^2) resummation); it serves both
the trajectory on a mesh and the single-point ``solve_linear``, which is
that march on the mesh (0, t).  The forcing is read once per mesh point
(``signals._column``), and that column, the mesh (``_resolve_mesh``) and
its cells (``calculus._walk``) are kept for the next call, so the
trajectories and residuals of one scenario, at every alpha, and its
alpha = 1 walks share them.

The limiting order alpha = 1 degenerates to the classical delta equation
x^delta = lambda*x + u, provided here as ``classical_trajectory`` (its own
walk keeps the explicit step x + mu*(lambda*x + u) that the figures pin);
its defect over a sampled trajectory is ``classical_residual_mesh`` (one
walk over the cells reading slopes, the stored values read by index).

Note: the closed form solves the equation pointwise exactly when the data
satisfy the start-up compatibility u(0) + lambda*x0 = 0 (the operator of
any function vanishes at t = 0, so the equation at t = 0 forces this).
For incompatible data the formula carries the parasitic residual
C * (e_{alpha_bar}(t,0)/(1-alpha) - lambda) with
C = (1 - 1/K) x0 - ((1-alpha)/K) u(0); the residual reports it faithfully.
``residual_linear_mesh`` evaluates the residual over a whole mesh in one
forward kernel march (O(n)); ``residual_linear`` is its single-point form,
kept for the benchmark's layer sweep.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._record import keep_last, record
from .calculus import (
    _convolution_terms,
    _kills,
    _scattered_lo,
    _u_run_integral,
    _walk,
    kernel_march,
)
from .errors import DomainError, NotRegressive
from .fractional import CFOrder, _left_march
from .signals import Sampled, Signal, _column, as_signal, value
from .timescale import TimeScale


@record
class LinearCFProblem:
    """Data (lambda, u, x0, alpha) of the linear equation on a time scale."""

    ts: TimeScale
    lam: float
    u: Signal
    x0: float
    order: CFOrder

    def __post_init__(self):
        if 0.0 not in self.ts:
            raise DomainError("the time scale must contain t = 0")
        if abs(self.k_alpha) <= 1e-14 * max(1.0, abs(self.lam)):
            raise NotRegressive(
                f"K(alpha) = 1 - lambda*(1-alpha) = {self.k_alpha:g} vanishes")
        for mu in self.ts.graininess_values():
            if _kills(mu, self.p_alpha):
                raise NotRegressive(
                    f"p(alpha) = {self.p_alpha:g} is not regressive: "
                    f"1 + mu*p = 0 at graininess {mu:g}")

    @property
    def k_alpha(self) -> float:
        return 1.0 - self.lam * (1.0 - self.order.alpha)

    @property
    def p_alpha(self) -> float:
        return self.lam * self.order.alpha / self.k_alpha


def _march(prob: LinearCFProblem, mesh: Sequence[float]) -> list[float]:
    """The closed form at every point of an increasing canonical mesh that
    starts at 0, from one kernel march at rate p over its cells."""
    ts, p, u, x0 = prob.ts, prob.p_alpha, prob.u, prob.x0
    K, alpha = prob.k_alpha, prob.order.alpha
    mesh = tuple(mesh)
    cells, ends = _walk(ts, mesh)
    u_t = _column(u, ts, mesh)
    # when the cells are the mesh's steps, u(lo) is the forcing column
    u_lo = u_t if ends == mesh else _scattered_lo(ts, u, cells)
    u_0 = value(u, ts, 0.0)
    march = kernel_march(cells, mesh, p, _convolution_terms(ts, u, cells, u_lo, p))
    # ep = e_p(t, 0), integral = integral_0^t e_p(t, sigma(tau)) u(tau) dtau
    return [x0, *[x0
                  - (1.0 - ep) * x0 / K
                  + (1.0 - alpha) * (u_k - u_0) / K
                  + alpha * integral / (K * K)
                  for u_k, (ep, integral) in zip(u_t[1:], march)]]


def solve_linear(prob: LinearCFProblem, t: float) -> float:
    """Evaluate the closed-form solution at a single point t >= 0."""
    ts = prob.ts
    t = ts.snap(t)
    if t < 0.0:
        raise DomainError("the solution formula is for t >= 0")
    zero = ts.snap(0.0)
    return _march(prob, (zero, t) if t > zero else (zero,))[-1]


@keep_last
def _resolve_mesh(ts: TimeScale, horizon: float | None, steps: int | None,
                  max_step: float | None) -> tuple[float, ...]:
    """The mesh of [0, horizon] or of the first ``steps`` steps; the last
    one is kept, so the jobs of one scenario share it."""
    if (horizon is None) == (steps is None):
        raise DomainError("give exactly one of horizon (a point) or steps (a count)")
    if horizon is not None:
        if horizon < 0.0:
            raise DomainError(f"horizon t = {horizon:g} is before t = 0")
        return ts.mesh(0.0, horizon, max_step)
    if steps < 0:
        raise DomainError(f"horizon of {steps} steps is negative")
    mesh = ts.mesh(0.0, ts.t_max, max_step)
    if steps >= len(mesh):
        raise DomainError(
            f"horizon of {steps} steps exceeds the window ({len(mesh) - 1} steps)")
    return mesh[: steps + 1]


def solve_linear_trajectory(prob: LinearCFProblem, horizon: float | None = None,
                            steps: int | None = None,
                            max_step: float | None = None) -> Sampled:
    """Solution sampled on the mesh of [0, horizon] via one-step recurrences."""
    mesh = _resolve_mesh(prob.ts, horizon, steps, max_step)
    return Sampled(mesh, tuple(_march(prob, mesh)))


def residual_linear_mesh(prob: LinearCFProblem, x: Signal,
                         mesh: Sequence[float]) -> list[float]:
    """Defect D^(alpha) x (t) - lambda*x(t) - u(t) at every point of an
    increasing mesh starting at 0, from one forward kernel march.  The mesh
    points are canonical (as ``TimeScale.mesh`` returns them)."""
    ts, lam = prob.ts, prob.lam
    if not mesh or ts.snap(mesh[0]) != ts.snap(0.0):
        raise DomainError("the residual mesh must start at t = 0")
    mesh = tuple(mesh)
    lhs = _left_march(ts, x, mesh, prob.order)
    return [d - lam * v - u_k
            for d, v, u_k in zip(lhs, _column(x, ts, mesh), _column(prob.u, ts, mesh))]


def residual_linear(prob: LinearCFProblem, x: Signal, t: float) -> float:
    """Defect D^(alpha) x (t) - lambda*x(t) - u(t) at a single point t >= 0."""
    zero = prob.ts.snap(0.0)
    t = prob.ts.snap(t)
    mesh = (zero, t) if t != zero else (zero,)
    return residual_linear_mesh(prob, x, mesh)[-1]


def classical_trajectory(ts: TimeScale, lam: float, u, x0: float,
                         horizon: float | None = None, steps: int | None = None) -> Sampled:
    """Exact trajectory of the classical delta equation x^delta = lambda*x + u.

    Scattered steps use the exact recurrence x' = x + mu*(lambda*x + u);
    dense steps use the variation-of-constants formula (``_u_run_integral``).
    This is the alpha = 1 limit of the fractional equation.
    """
    u = as_signal(u)
    mesh = _resolve_mesh(ts, horizon, steps, None)
    cells, _ = _walk(ts, mesh)  # the cells are the steps of a ts.mesh
    x = x0
    xs = [x]
    # one cell per step, read at its left end
    for (lo, hi, mu), u_lo in zip(cells, _column(u, ts, mesh)[:-1], strict=True):
        x = (x + mu * (lam * x + u_lo) if mu
             else math.exp(lam * (hi - lo)) * x + _u_run_integral(ts, u, lo, hi, lam))
        xs.append(x)
    return Sampled(mesh, tuple(xs))


def classical_residual_mesh(ts: TimeScale, lam: float, u, x: Sampled) -> list[float]:
    """Defect x^delta(t) - lambda*x(t) - u(t) of the classical equation at
    every point of x.mesh but the last (where sigma(t) lies beyond the
    samples), from one walk over its cells.

    x.mesh must be a canonical mesh (``TimeScale.mesh`` or a prefix of
    one), so that its cells are its steps; a mesh that skips a scattered
    point raises DomainError.  The delta derivative is the one
    ``delta_derivative`` forms from the samples: (x[k+1] - x[k]) / mu on a
    scattered cell, and on a dense one the secant of ``sampled_slope``,
    centered when the previous cell is dense too (rho(t) = t) and
    one-sided otherwise.
    """
    u = as_signal(u)
    m, v = tuple(x.mesh), x.values
    cells, _ = _walk(ts, m)
    skip = next((hi for (_, hi, _), t in zip(cells, m[1:]) if hi != t), None)
    if skip is not None:
        raise DomainError(f"the mesh skips the point {skip!r} of the scale")
    u_t = _column(u, ts, m)
    out = []
    prev_dense = False
    for k, (_, _, mu) in enumerate(cells):
        if mu:
            slope = (v[k + 1] - v[k]) / mu
        else:
            j = k - 1 if prev_dense else k
            slope = (v[k + 1] - v[j]) / (m[k + 1] - m[j])
        prev_dense = not mu
        out.append(slope - lam * v[k] - u_t[k])
    return out
