"""Layer scaling sweep: how each layer's cost grows with mesh size and
segment count, timed directly through the library (no tracing wrappers).

Scales are ``segs`` uniform grids of ``n // segs`` points each, step 1/n,
separated by gaps of 1.5 steps, so every scale has n mesh points on about
[0, 1].  Sizes run over n = 1e3, 4e3, 1.6e4 on one segment and over
1, 20, 200 segments at n = 4e3.  The O(n^2) residual column is timed at
n = 250, 500, 1000.  Exponents are least-squares slopes on log-log axes.
"""

from __future__ import annotations

import math
import time

N_SIZES = (1000, 4000, 16000)
SEG_COUNTS = (1, 20, 200)
SEG_N = 4000
RESIDUAL_SIZES = (250, 500, 1000)
REPEAT = 3


def _scale(cfts, n: int, segs: int):
    h = 1.0 / n
    count = n // segs
    grids, start = [], 0.0
    for _ in range(segs):
        grids.append(cfts.UniformGrid(start, h, count))
        start += (count - 1) * h + 1.5 * h
    return cfts.TimeScale.of(*grids)


def _best(fn, repeat: int = REPEAT) -> float:
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-12)) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def _layer_times(cfts, n: int, segs: int) -> dict[str, float]:
    """Seconds per trajectory step, per atom, per exp_ts call, per lookup and
    per Picard iteration on one scale."""
    ts = _scale(cfts, n, segs)
    u = cfts.Closure(math.sin, derivative=math.cos)
    prob = cfts.LinearCFProblem(ts, -0.5, u, 0.0, cfts.CFOrder(0.5))
    mesh = ts.mesh(0.0, ts.t_max)
    out = {
        "trajectory": _best(lambda: cfts.solve_linear_trajectory(prob, steps=n - 1)) / (n - 1),
        "atoms": _best(lambda: ts.atoms(0.0, ts.t_max)) / n,
        "exp_ts": _best(lambda: cfts.exp_ts(ts, prob.p_alpha, ts.t_max, 0.0)),
        "locate": _best(lambda: [ts.snap(t) for t in mesh]) / len(mesh),
    }
    nl = cfts.NonlinearCFProblem(ts, lambda t, x: 0.8 * math.sin(x), 0.8, 0.0, ts.t_max,
                                 1.0, cfts.CFOrder(0.5))

    def picard(iters):
        try:
            cfts.picard_solve(nl, tol=0.0, max_iter=iters)
        except cfts.MaxIterationsExceeded:
            pass

    out["picard_iter"] = max(_best(lambda: picard(2), 2) - _best(lambda: picard(1), 2), 1e-9)
    return out


def _residual_seconds(cfts, n: int) -> float:
    ts = cfts.TimeScale.grid(0.0, 0.01, n)
    u = cfts.Closure(math.sin, derivative=math.cos)
    prob = cfts.LinearCFProblem(ts, -0.5, u, 0.0, cfts.CFOrder(0.5))
    traj = cfts.solve_linear_trajectory(prob, steps=n - 1)
    t0 = time.perf_counter()
    for t in traj.mesh:
        cfts.residual_linear(prob, traj, t)
    return time.perf_counter() - t0


def run() -> dict[str, tuple[float, str]]:
    import cfts

    by_n = [_layer_times(cfts, n, 1) for n in N_SIZES]
    by_seg = [_layer_times(cfts, SEG_N, s) for s in SEG_COUNTS]
    resid = [_residual_seconds(cfts, n) for n in RESIDUAL_SIZES]

    def n_exp(key):
        return slope(N_SIZES, [r[key] * n for r, n in zip(by_n, N_SIZES)])

    def seg_exp(key):
        return slope(SEG_COUNTS, [r[key] for r in by_seg])

    m = {
        "linear.trajectory_n_exp": (n_exp("trajectory"), "exponent"),
        "linear.trajectory_seg_exp": (seg_exp("trajectory"), "exponent"),
        "linear.trajectory_us_per_step_1seg": (by_seg[0]["trajectory"] * 1e6, "us"),
        "linear.trajectory_us_per_step_200seg": (by_seg[-1]["trajectory"] * 1e6, "us"),
        "linear.residual_n_exp": (slope(RESIDUAL_SIZES, resid), "exponent"),
        "timescale.atoms_n_exp": (n_exp("atoms"), "exponent"),
        "timescale.locate_seg_exp": (seg_exp("locate"), "exponent"),
        "timescale.locate_us_per_call_200seg": (by_seg[-1]["locate"] * 1e6, "us"),
        "calculus.exp_ts_n_exp": (slope(N_SIZES, [r["exp_ts"] for r in by_n]), "exponent"),
        "nonlinear.picard_n_exp": (slope(N_SIZES, [r["picard_iter"] for r in by_n]), "exponent"),
        "nonlinear.picard_iter_ms_n16000": (by_n[-1]["picard_iter"] * 1e3, "ms"),
    }
    for n, s in zip(RESIDUAL_SIZES, resid):
        m[f"linear.residual_ms_n{n}"] = (s * 1e3, "ms")
    return m
