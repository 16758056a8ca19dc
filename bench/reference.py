"""Independent reference results for the benchmark's output check.

Nothing here imports ``cfts``.  The functions restate, in plain Python,
the formulas the CLI documents for the inputs the workload generator
writes, so a change to the program's algorithms (a prefix kernel march,
bisect lookups, removed threads) is judged against the same numbers the
original direct implementation produced:

* meshes of [0, b] on scales of grids, isolated points and continuous
  intervals (dense runs split into DENSE_DIVISIONS cells);
* the closed-form linear trajectory with the one-step recurrence, whose
  dense-cell forcing integral of ``A sin(w t + phi)`` is done in closed
  form here where the program uses adaptive quadrature;
* the classical (alpha = 1) recurrence and its secant residual;
* the fractional residual ``D^alpha x - lambda x - u`` through a forward
  O(n) kernel march (the program resums O(n^2) from t = 0 at each point);
* the Picard iteration for ``D^alpha x = amp sin(x)`` on a grid;
* the stability status from the real Hilger-circle condition
  ``p in (-2/h, 0)``, with a narrow ambiguous band around its edges.

Agreement with the program is to rounding of reordered sums, not bitwise;
check.py states the tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DENSE_DIVISIONS = 256


@dataclass(frozen=True)
class Grid:
    start: float
    step: float
    count: int

    @property
    def lo(self) -> float:
        return self.start

    @property
    def hi(self) -> float:
        return self.start + (self.count - 1) * self.step


@dataclass(frozen=True)
class Point:
    t: float

    @property
    def lo(self) -> float:
        return self.t

    @property
    def hi(self) -> float:
        return self.t


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    @property
    def lo(self) -> float:
        return self.a

    @property
    def hi(self) -> float:
        return self.b


def mesh(segments, b: float) -> tuple[list[float], list[bool]]:
    """Mesh of [0, b] and, per cell [t_k, t_k+1], whether it is dense.

    ``segments`` are disjoint, sorted, non-touching and start at 0; ``b``
    is a point of the scale.
    """
    pts: list[float] = []
    dense: list[bool] = []
    for s in segments:
        if s.lo >= b:
            break
        if isinstance(s, Interval):
            lo, hi = s.a, min(s.b, b)
            length = hi - lo
            step = length / DENSE_DIVISIONS
            n = max(1, math.ceil(length / step - 1e-9))
            for j in range(n):
                pts.append(lo + j * (length / n))
                dense.append(True)
            if s.b < b:
                pts.append(s.b)
                dense.append(False)
        elif isinstance(s, Grid):
            for k in range(s.count):
                t = s.start + k * s.step
                if t >= b:
                    break
                pts.append(t)
                dense.append(False)
        else:
            pts.append(s.t)
            dense.append(False)
    pts.append(b)
    return pts, dense


@dataclass(frozen=True)
class Sine:
    """u(t) = amp * sin(freq * t + phase)."""

    amp: float
    freq: float
    phase: float

    def __call__(self, t: float) -> float:
        return self.amp * math.sin(self.freq * t + self.phase)

    def weighted(self, lo: float, hi: float, p: float) -> float:
        """integral_lo^hi u(tau) exp(p (hi - tau)) dtau, in closed form."""
        w = self.freq
        s_hi, c_hi = math.sin(w * hi + self.phase), math.cos(w * hi + self.phase)
        s_lo, c_lo = math.sin(w * lo + self.phase), math.cos(w * lo + self.phase)
        return self.amp * ((-p * s_hi - w * c_hi)
                           - math.exp(p * (hi - lo)) * (-p * s_lo - w * c_lo)) / (p * p + w * w)


def linear_trajectory(pts, dense, lam: float, u: Sine, x0: float, alpha: float) -> list[float]:
    """Closed-form solution of D^alpha x = lam x + u on the mesh (alpha < 1)."""
    K = 1.0 - lam * (1.0 - alpha)
    p = lam * alpha / K
    u0 = u(0.0)
    xs = [x0]
    ep, integral = 1.0, 0.0
    for k in range(len(pts) - 1):
        t0, t1 = pts[k], pts[k + 1]
        if dense[k]:
            grow = math.exp(p * (t1 - t0))
            integral = grow * integral + u.weighted(t0, t1, p)
            ep *= grow
        else:
            mu = t1 - t0
            integral = (1.0 + mu * p) * integral + mu * u(t0)
            ep *= 1.0 + mu * p
        xs.append(x0 - (1.0 - ep) * x0 / K + (1.0 - alpha) * (u(t1) - u0) / K
                  + alpha * integral / (K * K))
    return xs


def fractional_residual(pts, dense, xs, alpha: float, rhs) -> list[float]:
    """D^alpha x (t_k) - rhs(t_k, x_k) at every mesh point, by a forward march.

    The operator value S_k obeys S_{k+1} = E_k S_k + c_k, where E_k is the
    kernel over cell k (1 + mu*alpha_bar, or exp(alpha_bar * length)) and
    c_k the cell's own increment weighted by the kernel from its end
    (scattered) or midpoint (dense) to t_{k+1}.
    """
    rate = alpha / (alpha - 1.0)
    front = 1.0 / (1.0 - alpha)
    out = [-rhs(pts[0], xs[0])]
    acc = 0.0
    for k in range(len(pts) - 1):
        t0, t1 = pts[k], pts[k + 1]
        dv = xs[k + 1] - xs[k]
        if dense[k]:
            acc = math.exp(rate * (t1 - t0)) * acc + dv * math.exp(rate * 0.5 * (t1 - t0))
        else:
            acc = (1.0 + (t1 - t0) * rate) * acc + dv
        out.append(front * acc - rhs(t1, xs[k + 1]))
    return out


def classical_trajectory(pts, dense, lam: float, u: Sine, x0: float) -> list[float]:
    """Exact solution of x^delta = lam x + u on the mesh (alpha = 1)."""
    xs = [x0]
    for k in range(len(pts) - 1):
        t0, t1 = pts[k], pts[k + 1]
        x = xs[-1]
        if dense[k]:
            xs.append(math.exp(lam * (t1 - t0)) * x + u.weighted(t0, t1, lam))
        else:
            xs.append(x + (t1 - t0) * (lam * x + u(t0)))
    return xs


def classical_residual(pts, dense, xs, lam: float, u: Sine) -> list[float]:
    """x^delta - lam x - u at every mesh point but the last (NaN there).

    Scattered points use the forward quotient; dense points the secant over
    their dense-side neighbors, as the CLI differentiates a sampled signal.
    """
    out = []
    for i in range(len(pts) - 1):
        if dense[i]:
            lo = i - 1 if i > 0 and dense[i - 1] else i
            slope = (xs[i + 1] - xs[lo]) / (pts[i + 1] - pts[lo])
        else:
            slope = (xs[i + 1] - xs[i]) / (pts[i + 1] - pts[i])
        out.append(slope - lam * xs[i] - u(pts[i]))
    out.append(math.nan)
    return out


def picard(pts, amp: float, x0: float, alpha: float, tol: float,
           max_iter: int = 200) -> list[float]:
    """Fixed point of x = x0 + alpha*cum(f) + (1-alpha)(f - f(a)) on a grid,
    f(t, x) = amp sin(x), by successive substitution from x = x0."""
    f_a = amp * math.sin(x0)
    x = [x0] * len(pts)
    for _ in range(max_iter):
        g = [amp * math.sin(xi) for xi in x]
        cum, c = [0.0], 0.0
        for k in range(len(pts) - 1):
            c += (pts[k + 1] - pts[k]) * g[k]
            cum.append(c)
        x_new = [x0 + alpha * ci + (1.0 - alpha) * (gi - f_a) for ci, gi in zip(cum, g)]
        defect = max(abs(a - b) for a, b in zip(x_new, x))
        x = x_new
        if defect <= tol:
            return x
    raise RuntimeError("reference Picard iteration did not converge")


#: Relative width of the band around a stability edge where the program may
#: legitimately answer "boundary" or "regressivity-violation".
EDGE_RTOL = 1e-9


def stability_statuses(lam: float, alpha: float, h: float) -> frozenset[str]:
    """Statuses acceptable for (lam, alpha, h) on the step-h grid."""
    K = 1.0 - lam * (1.0 - alpha)
    if abs(K) <= EDGE_RTOL * max(1.0, abs(lam)):
        return frozenset({"regressivity-violation", "boundary"})
    p = lam * alpha / K
    if abs(1.0 + h * p) <= EDGE_RTOL * max(1.0, abs(h * p)):
        return frozenset({"regressivity-violation", "boundary"})
    stable = -2.0 / h < p < 0.0
    status = "stable" if stable else "unstable"
    if (abs(p) <= EDGE_RTOL * max(1.0, abs(lam))
            or abs(p + 2.0 / h) <= EDGE_RTOL * max(1.0, abs(p))):
        return frozenset({status, "boundary"})
    return frozenset({status})
