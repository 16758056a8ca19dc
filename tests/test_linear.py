import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfts.calculus import delta_derivative, exp_ts
from cfts.errors import DomainError, NotRegressive
from cfts.fractional import CFOrder, cf_integral
from cfts.linear import (
    LinearCFProblem,
    classical_residual_mesh,
    classical_trajectory,
    residual_linear,
    residual_linear_mesh,
    solve_linear,
    solve_linear_trajectory,
)
from cfts.signals import Closure, Sampled, constant, value
from cfts.timescale import ContinuousInterval, IsolatedPoint, TimeScale, UniformGrid

from .oracles import oracle_classical, oracle_linear_discrete
from .test_timescale import hybrid_scales

Z = TimeScale.integers(0, 40)
RAMP = Closure(lambda t: t + 1.0, derivative=lambda t: 1.0)


def _mk(ts, lam, u, x0, alpha):
    return LinearCFProblem(ts, lam, u, x0, CFOrder(alpha))


class TestSolveLinear:
    def test_unit_grid_benchmark_value(self):
        prob = _mk(Z, 0.2, constant(1.0), 0.0, 0.5)
        assert solve_linear(prob, 1.0) == pytest.approx(50.0 / 81.0, abs=1e-12)

    def test_initial_condition_exact(self):
        rng = random.Random(3)
        for _ in range(25):
            lam = rng.uniform(-3, 3)
            alpha = rng.uniform(0.05, 0.95)
            x0 = rng.uniform(-5, 5)
            try:
                prob = _mk(Z, lam, constant(rng.uniform(-2, 2)), x0, alpha)
            except NotRegressive:
                continue
            assert solve_linear(prob, 0.0) == x0

    def test_zero_lambda_no_forcing_is_constant(self):
        prob = _mk(Z, 0.0, constant(0.0), 2.5, 0.4)
        for t in (0.0, 3.0, 17.0, 40.0):
            assert solve_linear(prob, t) == pytest.approx(2.5, rel=1e-14)

    def test_zero_lambda_general_forcing(self):
        u = Closure(lambda t: math.sin(0.3 * t))
        alpha = 0.35
        prob = _mk(Z, 0.0, u, 1.0, alpha)
        for t in (1.0, 7.0, 20.0):
            want = 1.0 + (1 - alpha) * (u.func(t) - u.func(0.0)) + alpha * sum(
                u.func(float(s)) for s in range(int(t)))
            assert solve_linear(prob, t) == pytest.approx(want, rel=1e-12)

    def test_zero_lambda_consistent_with_fractional_integral(self):
        u = Closure(lambda t: math.cos(0.2 * t) + 0.1 * t)
        alpha = 0.6
        prob = _mk(Z, 0.0, u, -1.5, alpha)
        for t in (2.0, 9.0, 25.0):
            via_integral = (-1.5 + cf_integral(Z, u, t, CFOrder(alpha))
                            - (1 - alpha) * u.func(0.0))
            assert solve_linear(prob, t) == pytest.approx(via_integral, rel=1e-13)

    def test_uniqueness_patch_reproduces_formula(self):
        # transform-domain arrangement: particular form plus the constant
        # C = (1 - 1/K) x0 - ((1-alpha)/K) u(0)
        lam, alpha, x0 = 0.3, 0.45, 1.2
        u = Closure(lambda t: 0.5 * t, derivative=lambda t: 0.5)
        prob = _mk(Z, lam, u, x0, alpha)
        K = prob.k_alpha
        p = prob.p_alpha
        C = (1.0 - 1.0 / K) * x0 - (1.0 - alpha) / K * u.func(0.0)
        for t in (1.0, 5.0, 13.0):
            ep = exp_ts(Z, p, t, 0.0)
            integral = sum((1.0 + p) ** (t - s - 1) * u.func(float(s))
                           for s in range(int(t)))
            sol1 = ep * x0 / K + (1 - alpha) * u.func(t) / K + alpha * integral / K ** 2
            assert solve_linear(prob, t) == pytest.approx(sol1 + C, rel=1e-12)

    def test_matches_discrete_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            h = rng.choice([0.25, 0.5, 1.0])
            n = rng.randrange(3, 40)
            alpha = rng.uniform(0.05, 0.95)
            lam = rng.uniform(-2.0, 2.0)
            x0 = rng.uniform(-3, 3)
            us = [rng.uniform(-2, 2) for _ in range(n + 1)]
            ts = TimeScale.grid(0.0, h, n + 1)
            u = Sampled(ts.mesh(0.0, n * h, max_step=h), tuple(us))
            try:
                prob = _mk(ts, lam, u, x0, alpha)
            except NotRegressive:
                continue
            k = rng.randrange(0, n + 1)
            want = oracle_linear_discrete(lam, alpha, h, us, x0, k)
            assert solve_linear(prob, k * h) == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_rejects_nonregressive(self):
        with pytest.raises(NotRegressive):
            _mk(Z, 2.0, constant(1.0), 0.0, 0.5)  # K = 0
        with pytest.raises(NotRegressive):
            _mk(Z, -2.0, constant(1.0), 0.0, 0.75)  # 1 + p = 0
        with pytest.raises(DomainError):
            _mk(TimeScale.integers(1, 5), 0.1, constant(1.0), 0.0, 0.5)  # no 0

    def test_negative_time_rejected(self):
        prob = _mk(TimeScale.integers(-5, 5), 0.1, constant(1.0), 0.0, 0.5)
        with pytest.raises(DomainError):
            solve_linear(prob, -2.0)


class TestTrajectory:
    def test_recurrence_equals_pointwise_formula(self):
        prob = _mk(Z, 0.4, Closure(lambda t: math.sin(t)), 0.7, 0.3)
        traj = solve_linear_trajectory(prob, steps=25)
        for k in (0, 1, 7, 19, 25):
            assert traj.values[k] == pytest.approx(
                solve_linear(prob, float(k)), rel=1e-12)
        # hybrid: dense pieces, grid steps, the gaps around an isolated point
        hyb = TimeScale.of(ContinuousInterval(0.0, 1.0), UniformGrid(1.5, 0.25, 5),
                           IsolatedPoint(3.0), ContinuousInterval(3.5, 4.5))
        prob = _mk(hyb, 0.4, Closure(math.sin), 0.7, 0.3)
        traj = solve_linear_trajectory(prob, horizon=4.5)
        picks = [*range(0, len(traj.mesh), 37), *range(255, 265), len(traj.mesh) - 1]
        for k in picks:
            assert traj.values[k] == pytest.approx(
                solve_linear(prob, traj.mesh[k]), rel=1e-12)

    def test_steep_kernel_single_point_matches_the_trajectory(self):
        # K = 1 - lambda*(1-alpha) = -2.5e-4, so p = lambda*alpha/K is about
        # -4001: the kernel is 2.5e-4 wide on a run of length 4, and x(4) is
        # the difference of two terms near 1513.6
        lam, alpha, t = 2.0005, 0.5, 4.0
        prob = _mk(TimeScale.interval(0.0, t), lam,
                   Closure(math.sin, derivative=math.cos), 0.0, alpha)
        x_t = solve_linear(prob, t)
        assert x_t == pytest.approx(solve_linear_trajectory(prob, horizon=t).values[-1],
                                    rel=1e-9)
        K, p = prob.k_alpha, prob.p_alpha
        # integral_0^t exp(p*(t - tau)) sin(tau) dtau in closed form
        conv = (math.exp(p * t) - p * math.sin(t) - math.cos(t)) / (1.0 + p * p)
        assert x_t == pytest.approx((1.0 - alpha) * math.sin(t) / K + alpha * conv / K**2,
                                    rel=1e-8)

    def test_sampled_forcing_on_a_dense_run(self):
        # the midpoint-weighted trapezoid rule on the stored mesh is O(h^2)
        # away from the quadrature of the same forcing
        ts = TimeScale.interval(0.0, 2.0)
        mesh = ts.mesh(0.0, 2.0)
        exact = Closure(math.sin)
        table = Sampled(mesh, tuple(math.sin(t) for t in mesh))
        for alpha in (0.6, 1.0):
            got = [solve_linear_trajectory(_mk(ts, -2.0, u, 1.0, alpha), horizon=2.0)
                   if alpha < 1.0 else classical_trajectory(ts, -2.0, u, 1.0, horizon=2.0)
                   for u in (exact, table)]
            assert got[1].values == pytest.approx(got[0].values, abs=2e-5)

    def test_near_classical_limit(self):
        us = [1.0] * 31
        prob = _mk(Z, 0.2, constant(1.0), 0.0, 1.0 - 1e-6)
        traj = solve_linear_trajectory(prob, steps=30)
        for k in range(31):
            want = oracle_classical(0.2, 1.0, us, 0.0, k)
            assert abs(traj.values[k] - want) <= 1e-4 * max(1.0, abs(want))

    def test_classical_path_matches_recurrence_oracle(self):
        us = [math.cos(0.5 * k) for k in range(31)]
        u = Sampled(tuple(float(k) for k in range(31)), tuple(us))
        traj = classical_trajectory(TimeScale.integers(0, 30), 0.2, u, 1.0, steps=30)
        for k in range(31):
            assert traj.values[k] == pytest.approx(
                oracle_classical(0.2, 1.0, us, 1.0, k), rel=1e-13)

    def test_stable_parameters_give_bounded_trajectory(self):
        prob = _mk(Z, 4.2, constant(1.0), 0.0, 0.5)
        traj = solve_linear_trajectory(prob, steps=30)
        # |1 + p| = 10/11 < 1: geometric-sum bound on the solution formula
        p = prob.p_alpha
        K = prob.k_alpha
        bound = abs(0.5 / K ** 2) * 1.0 / (1.0 - abs(1.0 + p))
        assert max(abs(x) for x in traj.values) <= bound + 1e-12
        tail = traj.values[-5:]
        x_inf = -1.0 / (4.2 * K)
        assert all(abs(x - x_inf) < 0.05 for x in tail)

    def test_step_refinement_approaches_continuous_solution(self):
        cont = _mk(TimeScale.interval(0.0, 3.0), 0.2, constant(1.0), 0.0, 0.5)
        ref = solve_linear(cont, 3.0)
        errs = []
        for h, n in ((0.1, 31), (0.5, 7), (1.0, 4)):
            ts = TimeScale.grid(0.0, h, n)
            traj = solve_linear_trajectory(
                _mk(ts, 0.2, constant(1.0), 0.0, 0.5), horizon=3.0)
            errs.append(abs(traj.values[-1] - ref) / abs(ref))
        assert errs[0] < 0.02
        assert errs[0] < errs[1] < errs[2]

    def test_horizon_point_equivalent_to_steps(self):
        prob = _mk(Z, 0.3, constant(2.0), 1.0, 0.6)
        assert (solve_linear_trajectory(prob, horizon=10.0).values
                == solve_linear_trajectory(prob, steps=10).values)

    def test_bad_horizon_arguments(self):
        prob = _mk(Z, 0.3, constant(2.0), 1.0, 0.6)
        with pytest.raises(DomainError):
            solve_linear_trajectory(prob)
        with pytest.raises(DomainError):
            solve_linear_trajectory(prob, horizon=5.0, steps=5)
        with pytest.raises(DomainError):
            solve_linear_trajectory(prob, steps=100)


class TestResidual:
    def test_compatible_data_solves_pointwise(self):
        # u(0) + lam*x0 = 0 removes the start-up defect entirely; for
        # alpha > 2/3 the kernel base |1 + alpha_bar| exceeds 1 on the unit
        # grid and amplifies roundoff geometrically, so keep that horizon short
        for alpha, last in ((0.25, 12), (0.5, 12), (0.8, 10)):
            prob = _mk(Z, 0.2, RAMP, -5.0, alpha)
            traj = solve_linear_trajectory(prob, steps=last)
            for k in range(1, last + 1):
                assert abs(residual_linear(prob, traj, float(k))) < 1e-9

    def test_incompatible_data_has_the_parasitic_term(self):
        # the closed form then satisfies the equation only up to
        # C * (e_{abar}(t,0)/(1-alpha) - lam); check the defect exactly
        lam, alpha, x0 = 0.2, 0.25, 0.0
        prob = _mk(Z, lam, constant(1.0), x0, alpha)
        traj = solve_linear_trajectory(prob, steps=12)
        K = prob.k_alpha
        C = (1.0 - 1.0 / K) * x0 - (1.0 - alpha) / K * 1.0
        abar = alpha / (alpha - 1.0)
        for k in range(1, 13):
            want = C * ((1.0 + abar) ** k / (1.0 - alpha) - lam)
            got = residual_linear(prob, traj, float(k))
            assert got == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_mesh_form_matches_single_points(self):
        ts = TimeScale.of(UniformGrid(0.0, 0.5, 5), ContinuousInterval(2.5, 3.0))
        prob = _mk(ts, -0.5, Closure(math.cos), 1.0, 0.4)
        traj = solve_linear_trajectory(prob, horizon=3.0, max_step=0.1)
        column = residual_linear_mesh(prob, traj, traj.mesh)
        for t, r in zip(traj.mesh, column):
            assert r == pytest.approx(residual_linear(prob, traj, t),
                                      rel=1e-12, abs=1e-12)
        with pytest.raises(DomainError):
            residual_linear_mesh(prob, traj, traj.mesh[1:])

    def test_mesh_form_when_zero_is_not_bit_exact(self):
        # -0.3 + 3*0.1 = 5.55e-17: the grid's lattice value of t = 0
        ts = TimeScale.grid(-0.3, 0.1, 10)
        assert ts.snap(0.0) != 0.0
        prob = _mk(ts, 0.2, constant(1.0), -5.0, 0.5)
        traj = solve_linear_trajectory(prob, steps=5)
        assert traj.mesh[0] == ts.snap(0.0)
        column = residual_linear_mesh(prob, traj, traj.mesh)
        assert column == [residual_linear(prob, traj, t) for t in traj.mesh]
        assert max(abs(r) for r in column) < 1e-13
        assert residual_linear_mesh(prob, traj, [0.0, 0.2]) == column[:3:2]

    def test_mesh_off_the_scale_is_a_domain_error(self):
        # the residual mesh is read as canonical, not snapped: a point just
        # off the scale, a repeated point or a step back must not give a
        # short column
        prob = _mk(Z, 0.2, RAMP, -5.0, 0.5)
        traj = solve_linear_trajectory(prob, steps=4)
        for mesh in ((0.0, 1.0000000000001, 2.0), (0.0, 1.0, 1.0, 2.0), (0.0, 2.0, 1.0),
                     (0.0, 1.0, 2.0000000000001)):
            with pytest.raises(DomainError):
                residual_linear_mesh(prob, traj, mesh)
        dense = _mk(TimeScale.interval(0.0, 2.0), 0.2, RAMP, -5.0, 0.5)
        with pytest.raises(DomainError):
            residual_linear_mesh(dense, traj, (0.0, 1.5, 1.0, 2.0))
        assert len(residual_linear_mesh(prob, traj, (0.0, 1.0, 2.0))) == 3

    def test_constant_solution_residual_is_zero(self):
        prob = _mk(Z, 0.0, constant(0.0), 3.0, 0.5)
        traj = solve_linear_trajectory(prob, steps=10)
        for k in range(1, 11):
            assert residual_linear(prob, traj, float(k)) == 0.0

    def test_perturbation_leaves_a_footprint(self):
        prob = _mk(Z, 0.2, RAMP, -5.0, 0.25)
        traj = solve_linear_trajectory(prob, steps=10)
        bumped = Sampled(traj.mesh,
                         tuple(v + (1.0 if k == 5 else 0.0)
                               for k, v in enumerate(traj.values)))
        clean = abs(residual_linear(prob, traj, 6.0))
        dirty = abs(residual_linear(prob, bumped, 6.0))
        assert dirty > clean + 0.1

    def test_classical_residual_vanishes_on_classical_path(self):
        u = constant(1.0)
        traj = classical_trajectory(TimeScale.integers(0, 30), 0.2, u, 0.0, steps=30)
        for k in range(30):
            r = _classical_defect(TimeScale.integers(0, 30), 0.2, u, traj, float(k))
            assert abs(r) < 1e-12


@st.composite
def canonical_meshes(draw):
    """A hybrid scale and a prefix of one of its canonical meshes, starting
    at a segment's first point or inside an interval."""
    ts = draw(hybrid_scales())
    seg = ts.segments[draw(st.integers(0, len(ts.segments) - 1))]
    a = seg.lo
    if isinstance(seg, ContinuousInterval):
        a += draw(st.floats(0.0, 0.9)) * (seg.hi - seg.lo)
    mesh = ts.mesh(a, ts.t_max, draw(st.one_of(st.none(), st.floats(0.05, 1.0))))
    return ts, mesh[:draw(st.integers(1, 300))]


_NEAR_TOUCHING = TimeScale.of(ContinuousInterval(22.693337696701725, 24.587868946701725),
                              ContinuousInterval(24.587868946726314, 27.587868946726314))


def _hexes(xs):
    return [float.hex(x) for x in xs]


def _classical_defect(ts, lam, u, x, t):
    """x^delta(t) - lambda*x(t) - u(t) at one point."""
    return delta_derivative(ts, x, t) - lam * value(x, ts, t) - value(u, ts, t)


class TestClassicalResidualMesh:
    @settings(max_examples=120, deadline=None)
    @given(canonical_meshes(), st.floats(-2.0, 2.0), st.booleans())
    # two intervals 2.4588e-11 apart, just over the tolerance at 24.6: the
    # second one's start must be its own point, with rho at the first's end
    @example((_NEAR_TOUCHING, _NEAR_TOUCHING.mesh(22.693337696701725, 27.587868946726314,
                                                  1.0)), 0.0, False)
    def test_equals_the_single_point_form(self, ts_mesh, lam, sampled_u):
        ts, mesh = ts_mesh
        x = Sampled(mesh, tuple(math.cos(0.7 * k) * (k + 1) for k in range(len(mesh))))
        u = (Sampled(mesh, tuple(math.sin(k) for k in range(len(mesh)))) if sampled_u
             else Closure(math.sin, derivative=math.cos))
        got = classical_residual_mesh(ts, lam, u, x)
        assert _hexes(got) == _hexes(_classical_defect(ts, lam, u, x, t)
                                     for t in mesh[:-1])

    def test_scattered_zero_and_samples_forcing(self):
        ts = TimeScale.of(IsolatedPoint(0.0), ContinuousInterval(0.3, 1.0),
                          UniformGrid(1.2, 0.2, 4), IsolatedPoint(2.5))
        mesh = ts.mesh(0.0, 2.5)
        u = Sampled(mesh, tuple(1.0 + 0.1 * k for k in range(len(mesh))))
        traj = classical_trajectory(ts, -0.5, u, 2.0, horizon=2.5)
        assert traj.mesh == mesh
        got = classical_residual_mesh(ts, -0.5, u, traj)
        assert _hexes(got) == _hexes(_classical_defect(ts, -0.5, u, traj, t)
                                     for t in mesh[:-1])
        # the recurrence solves the equation exactly at scattered points
        assert abs(got[0]) < 1e-15 and abs(got[-1]) < 1e-15

    def test_one_point_trajectory_has_no_column(self):
        assert classical_residual_mesh(Z, 0.2, constant(1.0), Sampled((3.0,), (1.0,))) == []

    def test_mesh_that_skips_a_point_is_rejected(self):
        with pytest.raises(DomainError):
            classical_residual_mesh(Z, 0.2, constant(1.0),
                                    Sampled((0.0, 1.0, 3.0), (1.0, 2.0, 3.0)))

    def test_residual_columns_cost_one_lookup_per_point(self, monkeypatch):
        ts = TimeScale.of(IsolatedPoint(0.0), ContinuousInterval(0.3, 1.0),
                          UniformGrid(1.2, 0.2, 6), IsolatedPoint(2.5))
        u = Closure(math.sin, derivative=math.cos)
        prob = _mk(ts, -0.5, u, 0.0, 0.4)
        traj = solve_linear_trajectory(prob, horizon=2.5)
        classical = classical_trajectory(ts, -0.5, u, 0.0, horizon=2.5)
        n = len(traj.mesh)
        assert classical.mesh == traj.mesh and n > 250
        calls = []
        locate = TimeScale._locate
        monkeypatch.setattr(TimeScale, "_locate",
                            lambda self, t: calls.append(t) or locate(self, t))
        residual_linear_mesh(prob, traj, traj.mesh)
        classical_residual_mesh(ts, -0.5, u, classical)
        assert len(calls) <= 8  # canonical mesh points are read, never snapped
        calls.clear()
        assert [value(traj, ts, t) for t in traj.mesh] == list(traj.values)
        assert calls == []
