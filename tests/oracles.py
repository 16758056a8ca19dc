"""Brute-force reference implementations used only by the tests.

Deliberately naive: literal summations with explicit powers, no recurrences
and no shared code with the package, so a production/oracle match genuinely
exercises two independent arithmetic paths.
"""

from __future__ import annotations

import math


def oracle_cf_delta_discrete(samples, h, alpha, a_index, t_index):
    """Literal kernel-weighted sum of forward differences on a uniform grid.

    (1/(1-alpha)) * sum_{k=a}^{t-1} h * f_delta(k) * (1 + h*abar)^(t-k-1),
    with 0.0 ** 0 == 1.0 handling the degenerate kernel.
    """
    abar = alpha / (alpha - 1.0)
    base = 1.0 + h * abar
    total = 0.0
    for k in range(a_index, t_index):
        fd = (samples[k + 1] - samples[k]) / h
        total += h * fd * base ** (t_index - k - 1)
    return 1.0 / (1.0 - alpha) * total


def oracle_cf_integral_discrete(u_samples, h, alpha, t_index):
    """(1-alpha) * u(t) + alpha * sum of h*u over [0, t)."""
    acc = 0.0
    for k in range(t_index):
        acc += h * u_samples[k]
    return (1.0 - alpha) * u_samples[t_index] + alpha * acc


def oracle_linear_discrete(lam, alpha, h, u_samples, x0, k):
    """Closed-form solution on a uniform grid by literal summation."""
    K = 1.0 - lam * (1.0 - alpha)
    p = lam * alpha / K
    acc = 0.0
    for s in range(k):
        acc += h * (1.0 + h * p) ** (k - s - 1) * u_samples[s]
    return (x0
            - (1.0 - (1.0 + h * p) ** k) * x0 / K
            + (1.0 - alpha) * (u_samples[k] - u_samples[0]) / K
            + alpha * acc / (K * K))


def oracle_startup_defect_discrete(lam, alpha, h, u0, x0, k):
    """Residual of the closed form at t = k*h on a step-h grid (M = 1).

    C * ((1 + h*abar)^k / (1-alpha) - lam) with
    C = (1 - 1/K) x0 - ((1-alpha)/K) u0: zero on compatible data
    (u0 + lam*x0 = 0), and -(u0 + lam*x0) at k = 0.
    """
    K = 1.0 - lam * (1.0 - alpha)
    abar = alpha / (alpha - 1.0)
    C = (1.0 - 1.0 / K) * x0 - (1.0 - alpha) / K * u0
    return C * ((1.0 + h * abar) ** k / (1.0 - alpha) - lam)


def oracle_integral_equation(mesh, x, u, lam, alpha, x0):
    """The integral form of D^alpha x = lam*x + u (M = 1) on a mesh of
    scattered points, as pairs (defect, S_k) at each mesh point t_k:

    x(t_k) - x0 - (1-alpha)*(f(t_k) - f(t_0)) - alpha*S_k, with f = lam*x + u
    and S_k = sum_{j<k} (t_{j+1} - t_j)*f(t_j), the delta integral of f.
    """
    f = [lam * xk + uk for xk, uk in zip(x, u)]
    out, s = [], 0.0
    for k in range(len(mesh)):
        if k:
            s += (mesh[k] - mesh[k - 1]) * f[k - 1]
        out.append((x[k] - x0 - (1.0 - alpha) * (f[k] - f[0]) - alpha * s, s))
    return out


def oracle_classical(lam, h, u_samples, x0, k):
    """Step-exact recurrence for x^delta = lam*x + u on a uniform grid."""
    x = x0
    for j in range(k):
        x = (1.0 + h * lam) * x + h * u_samples[j]
    return x


def oracle_cf_delta_interval(f_prime, a, t, alpha, n=4096):
    """Midpoint-rule evaluation of the continuous kernel integral."""
    abar = alpha / (alpha - 1.0)
    width = t - a
    total = 0.0
    for i in range(n):
        tau = a + width * (i + 0.5) / n
        total += f_prime(tau) * math.exp(abar * (t - tau)) * (width / n)
    return 1.0 / (1.0 - alpha) * total


def oracle_picard(mesh, dense_flags, f, x0, alpha, tol, start=None):
    """Global Picard iteration x <- N x on a mesh, the whole mesh per sweep.

    (N x)_k = x0 + alpha * cum_k + (1-alpha) * (f(t_k, x_k) - f(t_0, x0)),
    cum_k the delta integral of f(t, x) over the first k cells, summed term
    by term: dt * g_j on a scattered cell j, dt * (g_j + g_{j+1}) / 2 on a
    dense one (``dense_flags[j]``).  Starts from ``start`` (a list of mesh
    values) or the constant x0 and stops once the sup-norm update is <= tol,
    within 1000 sweeps.  Returns the iterate and the update norm of every
    sweep.
    """
    f_a = f(mesh[0], x0)
    x = list(start) if start is not None else [x0] * len(mesh)
    norms = []
    for _ in range(1000):
        g = [f(t, xi) for t, xi in zip(mesh, x)]
        x_new = [x0 + (1.0 - alpha) * (g[0] - f_a)]
        cum = 0.0
        for j in range(len(mesh) - 1):
            dt = mesh[j + 1] - mesh[j]
            cum += dt * (g[j] + g[j + 1]) / 2.0 if dense_flags[j] else dt * g[j]
            x_new.append(x0 + alpha * cum + (1.0 - alpha) * (g[j + 1] - f_a))
        norms.append(max(abs(a - b) for a, b in zip(x_new, x)))
        x = x_new
        if norms[-1] <= tol:
            return x, norms
    raise RuntimeError("oracle Picard iteration did not converge")
