"""Fixed-point solver for the nonlinear fractional initial value problem

    D^(alpha)_a x (t) = f(t, x(t)),    x(a) = x0,    t in [a, b].

Inverting the operator turns this into x = N x with

    (N x)(t) = x0 + alpha * integral_a^t f(tau, x(tau)) dtau
                  + (1-alpha) * (f(t, x(t)) - f(a, x0)),

and N is a contraction in the sup norm with constant
q = ((1-alpha) + alpha*(b-a)) * L whenever q < 1, L a Lipschitz bound of f
in x.  Successive substitution from the constant start iterate then
converges geometrically to the unique fixed point.

``residual_nonlinear_mesh`` re-checks a solution over its whole mesh in one
forward kernel march; since the operator vanishes at a, its first entry is
-f(a, x0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DomainError, MaxIterationsExceeded, NotContractive
from .fractional import CFOrder, cf_delta_left_prefix
from .signals import Sampled, Signal, value
from .timescale import TimeScale

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PicardResult:
    """Converged iteration: the solution and its convergence record."""

    solution: Sampled
    iterations: int
    final_defect: float
    contraction_q: float
    update_norms: tuple[float, ...]
    apriori_bound: float


def contraction_check(prob: NonlinearCFProblem) -> float:
    """Contraction constant q = ((1-alpha) + alpha*(b-a)) * L."""
    alpha = prob.order.alpha
    return ((1.0 - alpha) + alpha * (prob.b - prob.a)) * prob.lipschitz_l


def max_contractive_window(lipschitz_l: float, alpha: float) -> float:
    """Largest b - a keeping q < 1 for the given order and Lipschitz bound."""
    if alpha == 0.0:
        return float("inf") if lipschitz_l < 1.0 else 0.0
    return max(0.0, (1.0 / lipschitz_l - (1.0 - alpha)) / alpha)


def _cumulative_integral(cells: list[tuple[float, float, float]],
                         g: list[float]) -> list[float]:
    """Running delta integral of mesh samples over the cells of the mesh:
    mu-weighted sums on scattered cells, trapezoid on dense cells."""
    cum = [0.0]
    for i, (lo, hi, mu) in enumerate(cells):
        dt = hi - lo
        if mu:
            cum.append(cum[-1] + dt * g[i])
        else:
            cum.append(cum[-1] + 0.5 * dt * (g[i] + g[i + 1]))
    return cum


def picard_solve(prob: NonlinearCFProblem, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER, start: Signal | None = None,
                 check_lipschitz: bool = False) -> PicardResult:
    """Iterate x <- N x on the mesh of [a, b] until the sup-norm update
    drops below ``tol``.

    Raises NotContractive (with the largest admissible window length) when
    q >= 1, and MaxIterationsExceeded when the budget runs out.  With
    ``check_lipschitz`` the supplied bound is sanity-sampled on a (t, x)
    grid around the start value and a warning is emitted if exceeded.
    """
    q = contraction_check(prob)
    if q >= 1.0:
        raise NotContractive(q, max_contractive_window(prob.lipschitz_l,
                                                       prob.order.alpha))
    ts, f, alpha = prob.ts, prob.rhs, prob.order.alpha
    mesh = ts.mesh(prob.a, prob.b)
    cells = list(ts.cells(mesh))  # one cell per mesh step
    if start is None:
        x = [prob.x0] * len(mesh)
    else:
        x = [value(start, ts, t) for t in mesh]

    f_at_a = f(mesh[0], prob.x0)  # fixed across iterations
    norms: list[float] = []
    for iteration in range(1, max_iter + 1):
        g = [f(t, xi) for t, xi in zip(mesh, x)]
        cum = _cumulative_integral(cells, g)
        x_new = [prob.x0 + alpha * ci + (1.0 - alpha) * (gi - f_at_a)
                 for ci, gi in zip(cum, g)]
        defect = max(abs(a_ - b_) for a_, b_ in zip(x_new, x))
        norms.append(defect)
        x = x_new
        if defect <= tol:
            if check_lipschitz:
                _sample_lipschitz(prob, mesh, norms[0], q)
            bound = (q ** iteration / (1.0 - q)) * norms[0] if norms else 0.0
            return PicardResult(Sampled(mesh, tuple(x)), iteration, defect, q,
                                tuple(norms), bound)
    raise MaxIterationsExceeded(
        f"no convergence after {max_iter} iterations (last update {norms[-1]:g})")


def _sample_lipschitz(prob: NonlinearCFProblem, mesh, first_norm: float,
                      q: float) -> None:
    radius = max(first_norm / (1.0 - q), 1e-6)
    xs = [prob.x0 + radius * (k / 4.0) for k in range(-4, 5)]
    worst = 0.0
    for t in mesh:
        for x1, x2 in zip(xs, xs[1:]):
            slope = abs(prob.rhs(t, x2) - prob.rhs(t, x1)) / (x2 - x1)
            worst = max(worst, slope)
    if worst > prob.lipschitz_l * (1.0 + 1e-9):
        warnings.warn(
            f"sampled slope {worst:g} exceeds the supplied Lipschitz bound "
            f"{prob.lipschitz_l:g}", stacklevel=3)


def residual_nonlinear_mesh(prob: NonlinearCFProblem, x: Signal,
                            mesh: Sequence[float],
                            tol: float | None = None) -> list[float]:
    """Defect D^(alpha)_a x (t) - f(t, x(t)) at every point of an increasing
    mesh starting at a, from one forward kernel march.  The mesh points are
    canonical (as ``TimeScale.mesh`` returns them)."""
    ts = prob.ts
    if mesh and ts.snap(mesh[0]) != prob.a:
        raise DomainError(f"the residual mesh must start at a = {prob.a}")
    lhs = cf_delta_left_prefix(ts, x, mesh, prob.order, tol)
    return [d - prob.rhs(t, value(x, ts, t)) for d, t in zip(lhs, mesh)]


def residual_nonlinear(prob: NonlinearCFProblem, x: Signal, t: float,
                       tol: float | None = None) -> float:
    """Defect D^(alpha)_a x (t) - f(t, x(t)) at a single point t >= a."""
    t = prob.ts.snap(t)
    mesh = (prob.a, t) if t != prob.a else (prob.a,)
    return residual_nonlinear_mesh(prob, x, mesh, tol)[-1]
