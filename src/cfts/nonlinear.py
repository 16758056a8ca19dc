"""Forward-march solver for the nonlinear fractional initial value problem

    D^(alpha)_a x (t) = f(t, x(t)),    x(a) = x0,    t in [a, b].

Inverting the operator turns this into x = N x with

    (N x)(t) = x0 + alpha * integral_a^t f(tau, x(tau)) dtau
                  + (1-alpha) * (f(t, x(t)) - f(a, x0)),

and N is a contraction in the sup norm with constant
q = ((1-alpha) + alpha*(b-a)) * L whenever q < 1, L a Lipschitz bound of f
in x: the paper's admission rule, and the one ``picard_solve`` applies.
On a mesh the discrete N is lower-triangular (x at t_k depends on x at
t_j, j <= k, only), so its unique fixed point comes from one forward walk
over the cells, with a scalar successive substitution at each point.

``residual_nonlinear_mesh`` re-checks a solution over its whole mesh in one
forward kernel march; since the operator vanishes at a, its first entry is
-f(a, x0).  The defect at one point t is the last entry on the mesh (a, t).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from ._record import record
from .calculus import _walk
from .errors import DomainError, MaxIterationsExceeded, NotContractive
from .fractional import CFOrder, _left_march
from .signals import Sampled, Signal, _column
from .timescale import TimeScale

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200


@record
class NonlinearCFProblem:
    """Right-hand side f(t, x), its Lipschitz bound in x, and the window."""

    ts: TimeScale
    rhs: Callable[[float, float], float]
    lipschitz_l: float
    a: float
    b: float
    x0: float
    order: CFOrder

    def __post_init__(self):
        if self.lipschitz_l <= 0.0:
            raise DomainError("the Lipschitz bound must be positive")
        a = self.ts.snap(self.a)
        b = self.ts.snap(self.b)
        if b <= a:
            raise DomainError(f"need a < b, got a={a}, b={b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@record
class PicardResult:
    """Solved march: the solution, the largest inner iteration count and
    the largest last update over the points, and the paper's q."""

    solution: Sampled
    iterations: int
    final_defect: float
    contraction_q: float


def contraction_check(prob: NonlinearCFProblem) -> float:
    """Contraction constant q = ((1-alpha) + alpha*(b-a)) * L."""
    alpha = prob.order.alpha
    return ((1.0 - alpha) + alpha * (prob.b - prob.a)) * prob.lipschitz_l


def max_contractive_window(lipschitz_l: float, alpha: float) -> float:
    """Largest b - a keeping q < 1 for the given order and Lipschitz bound."""
    if alpha == 0.0:
        return float("inf") if lipschitz_l < 1.0 else 0.0
    return max(0.0, (1.0 / lipschitz_l - (1.0 - alpha)) / alpha)


def picard_solve(prob: NonlinearCFProblem, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> PicardResult:
    """Solve x = N x on the mesh of [a, b] in one forward march.

    The discrete map is lower-triangular: x_k = c_k + beta_k * f(t_k, x_k),
    where c_k collects x0, -(1-alpha) f(a, x0) and alpha times the delta
    integral over the cells before t_k (a dense cell's trapezoid puts half
    its weight on x_k, so beta_k = (1-alpha) + alpha*dt/2 there and 1-alpha
    on a scattered cell).  Each point is solved by successive substitution,
    warm-started at the previous point, until the update is <= ``tol``; a
    non-finite iterate ends that point's iteration.  Since beta_k * L <= q,
    every scalar map contracts whenever q < 1.

    Raises DomainError for ``max_iter < 1``, NotContractive (with the
    largest admissible window length) when q >= 1, and
    MaxIterationsExceeded when a point spends ``max_iter``.
    """
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    q = contraction_check(prob)
    if q >= 1.0:
        raise NotContractive(q, max_contractive_window(prob.lipschitz_l,
                                                       prob.order.alpha))
    ts, f, alpha = prob.ts, prob.rhs, prob.order.alpha
    mesh = ts.mesh(prob.a, prob.b)
    x = prob.x0
    g = f(mesh[0], x)
    base = x - (1.0 - alpha) * g
    xs, cum, iterations, defect = [x], 0.0, 0, 0.0
    for lo, hi, mu in _walk(ts, mesh)[0]:
        dt = hi - lo
        if mu:
            cum += dt * g
            beta = 1.0 - alpha
        else:
            cum += 0.5 * dt * g
            beta = (1.0 - alpha) + alpha * 0.5 * dt
        c = base + alpha * cum
        for n in range(1, max_iter + 1):
            x_new = c + beta * f(hi, x)
            update = abs(x_new - x)
            x = x_new
            if update <= tol or not math.isfinite(x):
                break
        else:
            raise MaxIterationsExceeded(
                f"no convergence at t = {hi:g} after {max_iter} iterations "
                f"(last update {update:g})")
        iterations, defect = max(iterations, n), max(defect, update)
        g = f(hi, x)
        if not mu:
            cum += 0.5 * dt * g
        xs.append(x)
    return PicardResult(Sampled(mesh, tuple(xs)), iterations, defect, q)


def residual_nonlinear_mesh(prob: NonlinearCFProblem, x: Signal,
                            mesh: Sequence[float]) -> list[float]:
    """Defect D^(alpha)_a x (t) - f(t, x(t)) at every point of an increasing
    mesh starting at a, from one forward kernel march.  The mesh points are
    canonical (as ``TimeScale.mesh`` returns them)."""
    ts = prob.ts
    if not mesh or ts.snap(mesh[0]) != prob.a:
        raise DomainError(f"the residual mesh must start at a = {prob.a}")
    mesh = tuple(mesh)
    lhs = _left_march(ts, x, mesh, prob.order)
    return [d - prob.rhs(t, v) for d, t, v in zip(lhs, mesh, _column(x, ts, mesh))]

