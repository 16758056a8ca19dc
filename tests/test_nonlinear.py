import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfts.errors import DomainError, MaxIterationsExceeded, NotContractive
from cfts.fractional import CFOrder
from cfts.linear import LinearCFProblem, residual_linear, solve_linear
from cfts.nonlinear import (
    NonlinearCFProblem,
    contraction_check,
    max_contractive_window,
    picard_solve,
    residual_nonlinear_mesh,
)
from cfts.signals import Closure, constant
from cfts.timescale import TimeScale

from .oracles import oracle_picard
from .test_timescale import timescales


def _prob(ts, rhs, L, a, b, x0, alpha):
    return NonlinearCFProblem(ts, rhs, L, a, b, x0, CFOrder(alpha))


def _oracle(p, tol, start=None):
    """The global Picard iteration of ``tests/oracles.py`` on p's mesh."""
    mesh = p.ts.mesh(p.a, p.b)
    dense = [mu == 0.0 for _, _, mu in p.ts.cells(mesh)]
    return oracle_picard(mesh, dense, p.rhs, p.x0, p.order.alpha, tol, start)


def _gap(xs, ys):
    return max(abs(x - y) for x, y in zip(xs, ys))


def _defect_at(p, x, t):
    """The residual at one canonical point t: the last entry on the mesh (a, t)."""
    return residual_nonlinear_mesh(p, x, (p.a, t) if t != p.a else (p.a,))[-1]


class TestContractionCheck:
    def test_direct_arithmetic(self):
        p = _prob(TimeScale.integers(0, 1), lambda t, x: 0.5 * x, 0.5, 0, 1, 0.0, 0.5)
        assert contraction_check(p) == pytest.approx(0.5)

    def test_wide_window_not_contractive(self):
        p = _prob(TimeScale.integers(0, 3), lambda t, x: 0.6 * x, 0.6, 0, 3, 0.0, 0.5)
        assert contraction_check(p) == pytest.approx(1.2)

    def test_alpha_near_one_approaches_classical_condition(self):
        p = _prob(TimeScale.integers(0, 1), lambda t, x: 0.3 * x, 0.3, 0, 1,
                  0.0, 1.0 - 1e-12)
        assert contraction_check(p) == pytest.approx(0.3, rel=1e-9)

    def test_suggested_window_length(self):
        assert max_contractive_window(0.5, 0.5) == pytest.approx(3.0)
        assert max_contractive_window(2.0, 0.5) == pytest.approx(0.0)


class TestPicard:
    def test_zero_rhs_fixed_immediately(self):
        p = _prob(TimeScale.integers(0, 5), lambda t, x: 0.0, 0.01, 0, 5, 2.0, 0.4)
        res = picard_solve(p)
        assert res.iterations == 1
        assert all(v == 2.0 for v in res.solution.values)

    def test_memoryless_order_matches_pointwise_recurrence(self):
        # on the unit grid with alpha = 1/2 the operator sees only the last
        # increment, so the equation reduces to 2(x_k - x_{k-1}) = f(k, x_k)
        lam, c = 0.2, 1.0
        p = _prob(TimeScale.integers(0, 4), lambda t, x: lam * x + c, lam,
                  0, 4, 0.0, 0.5)
        res = picard_solve(p, tol=1e-13)
        xs = [0.0]
        for k in range(1, 5):
            xs.append((2.0 * xs[-1] + c) / (2.0 - lam))
        for got, want in zip(res.solution.values, xs):
            assert got == pytest.approx(want, abs=1e-11)

    def test_compatible_linear_rhs_matches_closed_form(self):
        # f(t,x) = 0.2x + t + 1 with x0 = -5 satisfies f(a, x0) = 0, where
        # the closed form solves the equation pointwise; both paths agree
        ts = TimeScale.integers(0, 3)
        rhs = lambda t, x: 0.2 * x + t + 1.0
        p = _prob(ts, rhs, 0.2, 0, 3, -5.0, 0.25)
        res = picard_solve(p, tol=1e-12)
        u = Closure(lambda t: t + 1.0, derivative=lambda t: 1.0)
        lin = LinearCFProblem(ts, 0.2, u, -5.0, CFOrder(0.25))
        for k, got in enumerate(res.solution.values):
            assert got == pytest.approx(solve_linear(lin, float(k)), abs=1e-8)

    def test_update_norms_contract_geometrically(self):
        # the sweeps of the global iteration shrink by q, and its fixed
        # point is the march's
        p = _prob(TimeScale.integers(0, 2), lambda t, x: 0.3 * math.sin(x) + 1.0,
                  0.3, 0, 2, 0.0, 0.4)
        q = contraction_check(p)
        xs, norms = _oracle(p, 1e-12)
        assert len(norms) >= 3
        for prev, nxt in zip(norms[1:], norms[2:]):
            if prev > 1e-14:
                assert nxt <= (q + 0.05) * prev
        assert _gap(picard_solve(p, tol=1e-13).solution.values, xs) <= 1e-12

    def test_two_starts_reach_the_same_fixed_point(self):
        ts = TimeScale.integers(0, 2)
        rhs = lambda t, x: 0.25 * math.cos(x) + 0.5
        p = _prob(ts, rhs, 0.25, 0, 2, 1.0, 0.5)
        tol = 1e-11
        a, _ = _oracle(p, tol)
        b, _ = _oracle(p, tol, start=[2.0] * len(a))
        assert _gap(a, b) < 10.0 * tol
        assert _gap(picard_solve(p, tol=tol).solution.values, a) < 10.0 * tol

    def test_not_contractive_boundary_inclusive(self):
        # q = (0.7 + 0.3) * 1 = 1.0 sits exactly on the theorem's boundary
        p = _prob(TimeScale.integers(0, 1), lambda t, x: math.sin(x), 1.0,
                  0, 1, 0.0, 0.3)
        assert contraction_check(p) == pytest.approx(1.0)
        with pytest.raises(NotContractive) as err:
            picard_solve(p)
        assert err.value.max_window == pytest.approx((1.0 / 1.0 - 0.7) / 0.3)

    def test_not_contractive_reports_window(self):
        p = _prob(TimeScale.integers(0, 3), lambda t, x: 0.6 * x, 0.6, 0, 3, 0.0, 0.5)
        with pytest.raises(NotContractive) as err:
            picard_solve(p)
        assert err.value.q == pytest.approx(1.2)
        assert err.value.max_window == pytest.approx((1.0 / 0.6 - 0.5) / 0.5)
        assert f"{err.value.max_window:.6g}" in str(err.value)

    def test_fires_exactly_on_the_q_grid(self):
        ts = TimeScale.integers(0, 3)
        for alpha in (0.2, 0.5, 0.8):
            for w in (1, 2, 3):
                for L in (0.2, 0.4, 0.7, 1.1):
                    q = ((1 - alpha) + alpha * w) * L
                    p = _prob(ts, lambda t, x: L * math.sin(x), L, 0, w, 0.0, alpha)
                    if q >= 1.0:
                        with pytest.raises(NotContractive):
                            picard_solve(p)
                    else:
                        picard_solve(p)

    def test_iteration_budget(self):
        p = _prob(TimeScale.integers(0, 2), lambda t, x: 0.45 * x + 1.0, 0.45,
                  0, 2, 0.0, 0.5)
        with pytest.raises(MaxIterationsExceeded):
            picard_solve(p, tol=1e-15, max_iter=2)

    def test_iteration_budget_below_one_is_a_domain_error(self):
        p = _prob(TimeScale.integers(0, 2), lambda t, x: 0.45 * x + 1.0, 0.45,
                  0, 2, 0.0, 0.5)
        for max_iter in (0, -1):
            with pytest.raises(DomainError, match="max_iter must be >= 1"):
                picard_solve(p, max_iter=max_iter)

    def test_apriori_bound_holds(self):
        # Banach: |x_n - x*| <= q^n / (1-q) * |x_1 - x_0| for the global
        # iteration, with the march (solved to round-off) standing for x*
        ts = TimeScale.integers(0, 2)
        rhs = lambda t, x: 0.3 * math.sin(x) + 1.0
        p = _prob(ts, rhs, 0.3, 0, 2, 0.0, 0.4)
        q = contraction_check(p)
        march = picard_solve(p, tol=1e-15).solution.values
        for tol in (1e-2, 1e-6, 1e-12):
            xs, norms = _oracle(p, tol)
            bound = q ** len(norms) / (1.0 - q) * norms[0]
            assert _gap(xs, march) <= bound + 1e-15

    def test_understated_lipschitz_bound_spends_the_budget(self):
        # the claimed L = 0.1 admits the window (q = 0.15), but the true
        # slope 3 makes each point's map x <- c + 0.5*(3x + 1) expand by 1.5
        p = _prob(TimeScale.grid(0.0, 0.5, 5), lambda t, x: 3.0 * x + 1.0, 0.1,
                  0, 2, 0.0, 0.5)
        assert contraction_check(p) == pytest.approx(0.15)
        with pytest.raises(MaxIterationsExceeded, match="at t = 0.5 "):
            picard_solve(p)

    @settings(max_examples=60, deadline=None)
    @given(timescales(), st.floats(0.0, 0.99), st.floats(0.05, 0.8),
           st.floats(-2.0, 2.0), st.data())
    def test_march_matches_the_global_iteration(self, ts, alpha, q, x0, data):
        mesh = ts.mesh(ts.t_min, ts.t_max)
        assume(len(mesh) >= 2)
        i = data.draw(st.integers(0, len(mesh) - 2))
        a, b = mesh[i], data.draw(st.sampled_from(mesh[i + 1:]))
        L = q / ((1.0 - alpha) + alpha * (b - a))
        p = _prob(ts, lambda t, x: L * math.sin(x + t) + math.cos(t), L,
                  a, b, x0, alpha)
        xs, _ = _oracle(p, 1e-13)
        assert _gap(picard_solve(p, tol=1e-13).solution.values, xs) <= 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            _prob(TimeScale.integers(0, 3), lambda t, x: x, 0.5, 2, 2, 0.0, 0.5)
        with pytest.raises(DomainError):
            _prob(TimeScale.integers(0, 3), lambda t, x: x, -1.0, 0, 2, 0.0, 0.5)


class TestResidualNonlinear:
    def test_converged_memoryless_solution_satisfies_equation(self):
        lam, c = 0.2, 1.0
        tol = 1e-12
        p = _prob(TimeScale.integers(0, 4), lambda t, x: lam * x + c, lam,
                  0, 4, 0.0, 0.5)
        res = picard_solve(p, tol=tol)
        for k in range(1, 5):
            assert abs(_defect_at(p, res.solution, float(k))) < 10.0 * tol

    def test_compatible_solution_satisfies_equation(self):
        ts = TimeScale.integers(0, 3)
        p = _prob(ts, lambda t, x: 0.2 * x + t + 1.0, 0.2, 0, 3, -5.0, 0.25)
        res = picard_solve(p, tol=1e-12)
        for k in range(1, 4):
            assert abs(_defect_at(p, res.solution, float(k))) < 1e-9

    def test_mesh_form_matches_single_points(self):
        ts = TimeScale.integers(0, 6)
        p = _prob(ts, lambda t, x: 0.3 * math.sin(x), 0.3, 1, 4, 1.0, 0.4)
        res = picard_solve(p)
        column = residual_nonlinear_mesh(p, res.solution, res.solution.mesh)
        # the start-up defect is -f(a, x0), since the operator vanishes at a
        assert column[0] == -0.3 * math.sin(1.0)
        for t, r in zip(res.solution.mesh, column):
            assert r == pytest.approx(_defect_at(p, res.solution, t),
                                      rel=1e-12, abs=1e-12)
        with pytest.raises(DomainError):
            residual_nonlinear_mesh(p, res.solution, (0.0, 1.0, 2.0))
        # a point just off the scale is not snapped into a short column
        with pytest.raises(DomainError):
            residual_nonlinear_mesh(p, res.solution, (1.0, 2.0000000000001, 3.0))

    def test_zero_rhs_zero_residual(self):
        p = _prob(TimeScale.integers(0, 5), lambda t, x: 0.0, 0.01, 0, 5, 2.0, 0.4)
        res = picard_solve(p)
        assert _defect_at(p, res.solution, 3.0) == 0.0

    def test_linear_rhs_residuals_agree_across_modules(self):
        ts = TimeScale.integers(0, 3)
        lam, alpha = 0.2, 0.25
        p = _prob(ts, lambda t, x: lam * x + 1.0, lam, 0, 3, 0.0, alpha)
        res = picard_solve(p, tol=1e-13)
        lin = LinearCFProblem(ts, lam, constant(1.0), 0.0, CFOrder(alpha))
        for k in range(1, 4):
            a = _defect_at(p, res.solution, float(k))
            b = residual_linear(lin, res.solution, float(k))
            assert a == pytest.approx(b, abs=1e-12)
