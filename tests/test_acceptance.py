"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them inline).

Three criteria check a limit of the closed-form theory where it holds and
pin the documented behavior where it does not:

* criterion 6: on a fixed step-h grid the kernel base 1 + h*alpha_bar
  leaves the unit disc once alpha > 2/(2+h) (it is -998 on the unit grid at
  alpha = 0.999), so the alpha -> 1 limit of the operator is checked on a
  continuous interval, where it approaches f'(t), and the unit-grid value
  at alpha = 0.999 is pinned to the literal-summation oracle.
* criterion 9: the operator vanishes at the base point, so the closed form
  and the fixed point of the integral operator solve the equation exactly
  only on compatible data u(0) + lambda*x0 = 0.  Off it they carry
  different start-up defects, C*(e_{abar}(t,0)/(1-alpha) - lambda) and
  -f(a, x0)*e_{abar}(t, a); on the benchmark problem (x0 = 0, u = 1) the
  fixed point 5/9 and the closed form 50/81 differ by exactly the gap of
  the two defects, and on compatible data of the same shape they agree.
* criterion 10: the bundled demonstrations use x0 = 0 with u = 1, which
  is incompatible data, so each emitted residual must equal the predicted
  start-up defect C*((1 + h*abar)^k/(1-alpha) - lambda) (the alpha = 1
  runs solve the classical equation and must have residual < 1e-8).
"""

import csv
import functools
import math
import random
import tempfile
import time
from pathlib import Path

import pytest

from cfts.calculus import delta_derivative, exp_ts
from cfts.cli import cmd_figures
from cfts.config import parse_config
from cfts.errors import NotContractive
from cfts.fractional import CFOrder, cf_delta_left, cf_integral
from cfts.linear import (
    LinearCFProblem,
    classical_trajectory,
    solve_linear,
    solve_linear_trajectory,
)
from cfts.nonlinear import NonlinearCFProblem, picard_solve
from cfts.signals import Closure, Sampled, constant, value
from cfts.stability import REGRESSIVITY_VIOLATION, STABLE, UNSTABLE, classify_hz, classify_r, estimate_sc
from cfts.timescale import ContinuousInterval, IsolatedPoint, TimeScale, UniformGrid

from .oracles import (
    oracle_cf_delta_discrete,
    oracle_cf_integral_discrete,
    oracle_linear_discrete,
    oracle_picard,
    oracle_startup_defect_discrete,
)


def criterion(number, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] criterion {number:2d}: FAIL "
                      f"({time.perf_counter() - t0:.2f}s) {summary}")
                raise
            print(f"[ACCEPTANCE] criterion {number:2d}: PASS "
                  f"({time.perf_counter() - t0:.2f}s) {summary}")
        return wrapper
    return deco


def _fig_trajectory(lam, alpha, h, n_steps, x0=0.0):
    ts = TimeScale.grid(0.0, h, n_steps + 1)
    if alpha == 1.0:
        return classical_trajectory(ts, lam, constant(1.0), x0, steps=n_steps)
    prob = LinearCFProblem(ts, lam, constant(1.0), x0, CFOrder(alpha))
    return solve_linear_trajectory(prob, steps=n_steps)


@criterion(1, "growing trajectories on the unit grid, exact benchmark values")
def test_criterion_1_growth_and_benchmark():
    t0 = time.perf_counter()
    trajs = {a: _fig_trajectory(0.2, a, 1.0, 30) for a in (0.2, 0.5, 0.9, 1.0)}
    for alpha, traj in trajs.items():
        xs = traj.values
        assert all(b > a for a, b in zip(xs, xs[1:])), f"not increasing at {alpha}"
        assert xs[30] > 10.0 * xs[5], f"not unbounded-trending at {alpha}"
    xs = trajs[0.5].values
    assert abs(xs[1] - 50.0 / 81.0) <= 1e-12
    us = [1.0] * 31
    for k in range(31):
        want = oracle_linear_discrete(0.2, 0.5, 1.0, us, 0.0, k)
        assert abs(xs[k] - want) <= 1e-10 * max(1.0, abs(want))
        closed = (50.0 / 81.0) * 9.0 * ((10.0 / 9.0) ** k - 1.0)
        assert abs(xs[k] - closed) <= 1e-10 * max(1.0, abs(closed))
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "bounded stable trajectories at lambda=4.2 with exact thresholds")
def test_criterion_2_stable_pair():
    t0 = time.perf_counter()
    for alpha, want_thr in ((0.2, 10.0 / 7.0), (0.5, 4.0)):
        traj = _fig_trajectory(4.2, alpha, 1.0, 30)
        xs = traj.values
        late = sum(abs(x) for x in xs[-10:]) / 10.0
        assert max(abs(x) for x in xs) < 10.0 * late
        verdict = classify_hz(4.2, alpha, 1.0)
        assert verdict.status == STABLE and verdict.branch == "b"
        assert abs(verdict.boundary_values[0] - want_thr) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


@criterion(3, "step refinement converges to the continuous closed form")
def test_criterion_3_step_refinement():
    t0 = time.perf_counter()
    cont = LinearCFProblem(TimeScale.interval(0.0, 3.0), 0.2, constant(1.0),
                           0.0, CFOrder(0.5))
    ref = solve_linear(cont, 3.0)
    errs = []
    for h, count in ((0.1, 31), (0.5, 7), (1.0, 4)):
        ts = TimeScale.grid(0.0, h, count)
        prob = LinearCFProblem(ts, 0.2, constant(1.0), 0.0, CFOrder(0.5))
        traj = solve_linear_trajectory(prob, horizon=3.0)
        errs.append(abs(traj.values[-1] - ref) / abs(ref))
    assert errs[0] < 0.02
    assert errs[0] < errs[1] < errs[2]
    assert time.perf_counter() - t0 < 2.0


def _finite_prefix(values):
    out = []
    for v in values:
        if not math.isfinite(v):
            break
        out.append(v)
    return out


def _tail_decays(tail_r, rho, scale):
    floor = 1e-10 * scale
    if tail_r[0] <= floor:
        return True
    for prev, nxt in zip(tail_r, tail_r[1:]):
        if prev > floor and nxt > prev * (rho + 0.05) + 1e-15 * scale:
            return False
    return tail_r[-1] < tail_r[0]


@criterion(4, "grid verdicts agree with the average criterion and simulation")
def test_criterion_4_stability_equivalence():
    t0 = time.perf_counter()
    lams = [-5.0 + k * 11.0 / 19.0 for k in range(20)]
    margin = 1e-3
    checked = disagreements = 0
    for h in (0.5, 1.0, 2.0):
        for alpha in (0.2, 0.5, 0.8):
            for lam in lams:
                v = classify_hz(lam, alpha, h)
                if v.status not in (STABLE, UNSTABLE):
                    continue
                if abs(lam) < margin or any(
                        math.isfinite(b) and abs(lam - b) < margin
                        for b in v.boundary_values):
                    continue
                checked += 1
                avg = estimate_sc(TimeScale.grid(0.0, h, 4), v.p_alpha)
                if (avg < 0.0) != (v.status == STABLE):
                    disagreements += 1
                    continue
                ts = TimeScale.grid(0.0, h, 201)
                prob = LinearCFProblem(ts, lam, constant(1.0), 1.0, CFOrder(alpha))
                xs = _finite_prefix(solve_linear_trajectory(prob, steps=200).values)
                if v.status == STABLE:
                    K = 1.0 - lam * (1.0 - alpha)
                    x_inf = (1.0 - 1.0 / K) - 1.0 / (lam * K)
                    rho = abs(1.0 + h * v.p_alpha)
                    tail = [abs(x - x_inf) for x in xs[100:]]
                    if not _tail_decays(tail, rho, 1.0 + abs(x_inf)):
                        disagreements += 1
                else:
                    if max(abs(x) for x in xs) <= 10.0:
                        disagreements += 1
    assert checked > 120
    assert disagreements == 0
    assert time.perf_counter() - t0 < 10.0


@criterion(5, "continuous criterion matches the closed-form condition")
def test_criterion_5_continuous_criterion():
    lams = [-10.0 + k * 20.0 / 999.0 for k in range(1000)]
    for alpha in [round(0.1 * j, 1) for j in range(1, 10)]:
        thr = 1.0 / (1.0 - alpha)
        for lam in lams:
            v = classify_r(lam, alpha)
            formula_stable = lam < 0.0 or lam > thr
            if abs(lam - thr) <= 1e-12 * max(1.0, abs(thr)) or abs(lam) <= 1e-12:
                # within the classifier's declared boundary band it refuses
                # to force a side; it must not claim the opposite side
                assert v.status in (REGRESSIVITY_VIOLATION, "boundary")
                continue
            assert (v.status == STABLE) == formula_stable, (lam, alpha)
            if v.status != REGRESSIVITY_VIOLATION:
                assert (v.status == STABLE) == (v.p_alpha < 0.0), (lam, alpha)


@criterion(6, "operator order limits: alpha = 0, constants, alpha -> 1")
def test_criterion_6_operator_limits():
    ts = TimeScale.integers(0, 20)
    square = Closure(lambda t: t * t)
    for t in (1.0, 5.0, 12.0, 20.0):
        assert cf_delta_left(ts, square, 0.0, t, CFOrder(0.0)) == t * t
    rng = random.Random(99)
    for _ in range(100):
        alpha = rng.uniform(0.0, 0.999999)
        assert cf_delta_left(ts, constant(4.2), 0.0, 13.0, CFOrder(alpha)) == 0.0
    # alpha -> 1 approaches the derivative on a continuous scale:
    # f'(5) = 10 for f(t) = t^2.
    line = TimeScale.interval(0.0, 20.0)
    fd = delta_derivative(line, square, 5.0)
    assert fd == pytest.approx(10.0, rel=1e-8)
    errs = [abs(cf_delta_left(line, square, 0.0, 5.0, CFOrder(al)) - fd)
            for al in (0.9, 0.99, 0.999)]
    assert errs[0] > errs[1] > errs[2], errs
    assert errs[-1] < 0.05, errs
    # On the fixed unit grid the kernel base 1 + alpha_bar is -998 at
    # alpha = 0.999, so the limit diverges there; the value is still the
    # literal weighted sum.
    got = cf_delta_left(ts, square, 0.0, 5.0, CFOrder(0.999))
    want = oracle_cf_delta_discrete([float(k * k) for k in range(21)], 1.0,
                                    0.999, 0, 5)
    assert abs(got - want) <= 1e-10 * abs(want)


@criterion(7, "production operators match the brute-force oracles")
def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20240811)
    instances = 0
    while instances < 100:
        h = rng.choice([0.1, 0.5, 1.0, 2.0])
        n = rng.randrange(10, 1001)
        alpha = rng.uniform(0.05, 0.95)
        lam = rng.uniform(-2.0, 2.0)
        K = 1.0 - lam * (1.0 - alpha)
        if abs(K) < 1e-6:
            continue
        p = lam * alpha / K
        if abs(1.0 + h * p) < 1e-6 or abs(1.0 + h * p) > 1.15:
            continue
        abar = alpha / (alpha - 1.0)
        if abs(1.0 + h * abar) > 1.15:
            continue
        instances += 1
        ts = TimeScale.grid(0.0, h, n + 1)
        mesh = ts.mesh(0.0, n * h, max_step=h)
        fs = [rng.uniform(-2, 2)]
        us = [rng.uniform(-2, 2)]
        for _ in range(n):
            fs.append(fs[-1] + rng.uniform(-1, 1))
            us.append(us[-1] + rng.uniform(-1, 1))
        f = Sampled(mesh, tuple(fs))
        u = Sampled(mesh, tuple(us))
        x0 = rng.uniform(-3, 3)
        prob = LinearCFProblem(ts, lam, u, x0, CFOrder(alpha))
        for _ in range(3):
            t_i = rng.randrange(1, n + 1)
            a_i = rng.randrange(0, t_i)
            want = oracle_cf_delta_discrete(fs, h, alpha, a_i, t_i)
            got = cf_delta_left(ts, f, a_i * h, t_i * h, CFOrder(alpha))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(got), abs(want))
            want = oracle_cf_integral_discrete(us, h, alpha, t_i)
            got = cf_integral(ts, u, t_i * h, CFOrder(alpha))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(got), abs(want))
            want = oracle_linear_discrete(lam, alpha, h, us, x0, t_i)
            got = solve_linear(prob, t_i * h)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(got), abs(want))
    assert time.perf_counter() - t0 < 30.0


@criterion(8, "exponential identities on hybrid scales")
def test_criterion_8_exponential_identities():
    # every graininess is 0.5, so p = 2 makes each factor exactly 2.0 and
    # the scattered difference quotient is float-exact
    hyb = TimeScale.of(ContinuousInterval(0.0, 1.0), UniformGrid(1.5, 0.5, 3),
                       ContinuousInterval(3.0, 3.75), IsolatedPoint(4.25))
    p = 2.0
    e = Closure(lambda t: exp_ts(hyb, p, t, 0.0))
    for t in (1.0, 1.5, 2.0, 2.5, 3.75):
        assert delta_derivative(hyb, e, t) == p * exp_ts(hyb, p, t, 0.0)
    for t in (0.25, 0.5, 0.75, 3.1, 3.5):
        lhs = delta_derivative(hyb, e, t)
        assert abs(lhs - p * e.func(t)) <= 1e-6 * max(1.0, abs(lhs))

    five = TimeScale.of(ContinuousInterval(0.0, 1.0), IsolatedPoint(1.5),
                        UniformGrid(2.0, 0.25, 4), ContinuousInterval(3.0, 3.5),
                        IsolatedPoint(4.0))
    assert len(five.segments) == 5
    for ts in (hyb, five):
        mesh = ts.mesh(ts.t_min, ts.t_max, max_step=0.25)
        for q in (-0.8, 0.3, 2.0):
            for s in mesh[:: max(1, len(mesh) // 7)]:
                lhs = exp_ts(ts, q, ts.t_max, ts.t_min)
                rhs = exp_ts(ts, q, ts.t_max, s) * exp_ts(ts, q, s, ts.t_min)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@criterion(9, "fixed-point solver behavior on the benchmark problem")
def test_criterion_9_picard():
    ts = TimeScale.integers(0, 1)
    prob = NonlinearCFProblem(ts, lambda t, x: 0.2 * x + 1.0, 0.2, 0.0, 1.0,
                              0.0, CFOrder(0.5))
    res = picard_solve(prob, tol=1e-12)
    assert res.contraction_q == pytest.approx(0.2)
    # the global iteration contracts by q per sweep to the march's solution
    xs, norms = oracle_picard(res.solution.mesh, [False], prob.rhs, 0.0, 0.5, 1e-12)
    assert len(norms) >= 3
    for prev, nxt in zip(norms, norms[1:]):
        if prev > 1e-14:
            assert nxt <= (res.contraction_q + 0.05) * prev
    assert max(abs(x - y) for x, y in zip(xs, res.solution.values)) <= 1e-11

    for alpha in (0.2, 0.5, 0.8):
        for w in (1.0, 2.0, 3.0):
            for L in (0.2, 0.5, 0.9, 1.3):
                q = ((1.0 - alpha) + alpha * w) * L
                p = NonlinearCFProblem(TimeScale.integers(0, 3),
                                       lambda t, x: L * math.sin(x), L,
                                       0.0, w, 0.0, CFOrder(alpha))
                if q >= 1.0:
                    with pytest.raises(NotContractive):
                        picard_solve(p)
                else:
                    picard_solve(p)

    # (a) Incompatible data, u(0) + lambda*x0 = 1.  The fixed point solves
    # the pointwise equation 2(x1 - x0) = 0.2 x1 + 1, so x1 = 5/9.  The
    # closed form carries the defect C*(e_abar(1,0)/(1-alpha) - lambda)
    # = 1/9 (C = -5/9, e_abar(1,0) = 0), the fixed point -f(0, x0)*e_abar(1,0)
    # = 0; since the operator of the difference at t = 1 is the difference
    # over (1-alpha), (closed - fixed)*(1/(1-alpha) - lambda) = 1/9.
    fixed = res.solution.values[1]
    assert abs(fixed - 5.0 / 9.0) <= 1e-12
    lin = LinearCFProblem(ts, 0.2, constant(1.0), 0.0, CFOrder(0.5))
    closed = solve_linear(lin, 1.0)
    assert abs((closed - fixed) * (1.0 / (1.0 - 0.5) - 0.2) - 1.0 / 9.0) <= 1e-10

    # (b) Compatible data of the same shape, u = 1 + t and x0 = -5, so
    # u(0) + lambda*x0 = 0: both paths solve the equation and coincide.
    ts3 = TimeScale.integers(0, 3)
    prob = NonlinearCFProblem(ts3, lambda t, x: 0.2 * x + 1.0 + t, 0.2, 0.0,
                              3.0, -5.0, CFOrder(0.5))
    res = picard_solve(prob, tol=1e-12)
    assert res.contraction_q == pytest.approx(0.4)
    lin = LinearCFProblem(ts3, 0.2, Closure(lambda t: 1.0 + t), -5.0, CFOrder(0.5))
    assert res.solution.mesh == (0.0, 1.0, 2.0, 3.0)
    for t, got in zip(res.solution.mesh, res.solution.values):
        assert abs(got - solve_linear(lin, t)) <= 1e-8, t


@criterion(10, "emitted residuals equal the predicted start-up defect")
def test_criterion_10_self_verifying_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for which in (1, 2, 3):
            assert cmd_figures(which, tmp, plot_script=False) == 0
            for scn in parse_config((out / f"fig{which}.config").read_text()):
                (grid,) = scn.ts.segments
                h = grid.step
                u0 = value(scn.u, scn.ts, 0.0)
                n = scn.steps if scn.steps is not None else round(scn.horizon / h)
                for alpha in scn.alphas:
                    with open(out / f"{scn.name}_alpha{alpha:g}.csv") as fh:
                        rows = list(csv.DictReader(fh))
                    assert len(rows) == n + 1
                    for k, row in enumerate(rows):
                        where = (scn.name, alpha, row["t"])
                        assert abs(float(row["t"]) - k * h) <= 1e-12 * max(1.0, k * h)
                        r = float(row["residual"])
                        if alpha == 1.0:
                            # sigma(t) of the last row lies beyond the horizon
                            if k == n and math.isnan(r):
                                continue
                            assert abs(r) < 1e-8, where
                        else:
                            pred = oracle_startup_defect_discrete(
                                scn.lam, alpha, h, u0, scn.x0, k)
                            assert abs(r - pred) <= 1e-8 * max(1.0, abs(pred)), (
                                where, r, pred)
