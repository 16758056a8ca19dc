import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfts.calculus import (
    _WG,
    _WGK,
    _XGK,
    _kernel_breakpoints,
    _qk15,
    _quad,
    delta_derivative,
    delta_integral,
    exp_ts,
    is_regressive,
)
from cfts.errors import (
    DenseDerivativeUnavailable,
    DomainError,
    NonRegressiveParameter,
    OutsideKappaDomain,
    QuadratureNonConvergence,
)
from cfts.signals import Closure, Sampled, constant
from cfts.timescale import ContinuousInterval, IsolatedPoint, TimeScale, UniformGrid

from .test_timescale import timescales

Z = TimeScale.integers(0, 30)
SQUARE = Closure(lambda t: t * t)


class TestDeltaDerivative:
    def test_forward_difference_on_integers(self):
        assert delta_derivative(Z, SQUARE, 3.0) == 16.0 - 9.0

    def test_bit_for_bit_two_evaluation_difference(self):
        f = Closure(lambda t: math.sin(1.3 * t) + 0.1 * t)
        for t in (0.0, 4.0, 17.0, 29.0):
            expected = f.func(t + 1.0) - f.func(t)  # mu == 1 divides exactly
            assert delta_derivative(Z, f, t) == expected

    def test_ordinary_derivative_on_interval(self):
        ts = TimeScale.interval(0.0, 6.0)
        assert delta_derivative(ts, SQUARE, 3.0) == pytest.approx(6.0, abs=1e-8)

    def test_exact_derivative_evaluator_wins(self):
        ts = TimeScale.interval(0.0, 6.0)
        f = Closure(lambda t: t * t, derivative=lambda t: 2.0 * t)
        assert delta_derivative(ts, f, 3.0) == 6.0

    def test_exponential_identity_on_half_grid(self):
        ts = TimeScale.grid(0.0, 0.5, 9)
        e = Closure(lambda t: exp_ts(ts, 1.0, t, 0.0))
        assert delta_derivative(ts, e, 1.0) == pytest.approx(1.5 ** 2, rel=1e-14)

    def test_one_sided_at_interval_endpoints(self):
        ts = TimeScale.of(IsolatedPoint(-1.0), ContinuousInterval(0.0, 1.0))
        f = Closure(lambda t: math.exp(t))
        assert delta_derivative(ts, f, 0.0) == pytest.approx(1.0, abs=1e-7)

    def test_outside_kappa_domain(self):
        with pytest.raises(OutsideKappaDomain):
            delta_derivative(Z, SQUARE, 30.0)

    def test_sampled_scattered_uses_stored_values(self):
        mesh = tuple(float(k) for k in range(5))
        sig = Sampled(mesh, (0.0, 1.0, 4.0, 9.0, 16.0))
        assert delta_derivative(TimeScale.integers(0, 4), sig, 2.0) == 5.0

    def test_sampled_dense_needs_neighbors(self):
        ts = TimeScale.of(ContinuousInterval(0.0, 1.0), IsolatedPoint(2.0))
        poor = Sampled((0.0, 1.0, 2.0), (0.0, 1.0, 2.0))
        # t=0 is dense but the only other in-run sample is the far endpoint
        got = delta_derivative(ts, poor, 0.0)
        assert got == pytest.approx(1.0)
        lonely = Sampled((0.0,), (0.0,))
        with pytest.raises(DenseDerivativeUnavailable):
            delta_derivative(TimeScale.interval(0.0, 1.0), lonely, 0.0)

    def test_one_point_scale_has_no_derivative(self):
        for ts in (TimeScale.of(IsolatedPoint(0.0)), TimeScale.grid(0.0, 0.5, 1)):
            for f in (Closure(math.sin), Sampled((0.0,), (0.0,))):
                with pytest.raises(DenseDerivativeUnavailable):
                    delta_derivative(ts, f, 0.0)


class TestDeltaIntegral:
    def test_sum_on_grid(self):
        ts = TimeScale.grid(0.0, 0.5, 7)
        assert delta_integral(ts, constant(1.0), 0.0, 1.5) == pytest.approx(1.5)

    def test_riemann_on_interval(self):
        ts = TimeScale.interval(0.0, 1.0)
        f = Closure(lambda t: 2.0 * t)
        assert delta_integral(ts, f, 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_split_across_junctions(self):
        # [0,1] then the unit grid {1,2,3}: 1 (interval) + 1 + 1 (jumps)
        ts = TimeScale.of(ContinuousInterval(0.0, 1.0), UniformGrid(1.0, 1.0, 3))
        assert delta_integral(ts, constant(1.0), 0.0, 3.0) == pytest.approx(3.0)

    def test_empty_range(self):
        assert delta_integral(Z, SQUARE, 5.0, 5.0) == 0.0

    def test_reversed_range_is_a_domain_error(self):
        with pytest.raises(DomainError):
            delta_integral(TimeScale.integers(0, 10), constant(1.0), 5.0, 2.0)

    def test_sampled_trapezoid(self):
        ts = TimeScale.interval(0.0, 1.0)
        mesh = ts.mesh(0.0, 1.0)
        sig = Sampled(mesh, tuple(2.0 * t for t in mesh))
        assert delta_integral(ts, sig, 0.0, 1.0) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(timescales(), st.floats(0.1, 0.9), st.floats(0.2, 0.8))
def test_integral_additive_over_split(ts, fa, fb):
    f = Closure(lambda t: 0.3 * t * t - t + 2.0)
    mesh = ts.mesh(ts.t_min, ts.t_max, max_step=0.25)
    a = mesh[int(fa * (len(mesh) - 1))]
    c = ts.t_max
    b = mesh[int(fa * (len(mesh) - 1) + fb * (len(mesh) - 1 - fa * (len(mesh) - 1)))]
    a, b = min(a, b), max(a, b)
    whole = delta_integral(ts, f, a, c)
    parts = delta_integral(ts, f, a, b) + delta_integral(ts, f, b, c)
    assert whole == pytest.approx(parts, abs=2e-10, rel=1e-9)


class TestRegressive:
    def test_examples(self):
        assert not is_regressive(Z, -1.0)
        assert is_regressive(TimeScale.interval(0.0, 5.0), -123.0)
        assert not is_regressive(TimeScale.grid(0.0, 0.5, 9), -2.0)
        assert is_regressive(Z, -0.5)


class TestExpTs:
    def test_product_on_unit_grid(self):
        assert exp_ts(TimeScale.integers(0, 5), 1.0, 3.0, 0.0) == 8.0

    def test_p_zero_is_one(self):
        for ts in (Z, TimeScale.interval(0.0, 2.0)):
            assert exp_ts(ts, 0.0, ts.t_max, 0.0) == 1.0

    def test_classical_exponential_on_interval(self):
        ts = TimeScale.interval(0.0, 2.0)
        assert exp_ts(ts, -1.0, 2.0, 0.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_h_grid_closed_form(self):
        ts = TimeScale.grid(0.0, 0.25, 17)
        p = -1.5
        assert exp_ts(ts, p, 3.0, 1.0) == pytest.approx((1 + 0.25 * p) ** 8, rel=1e-12)

    def test_backward_is_reciprocal(self):
        ts = TimeScale.grid(0.0, 0.5, 11)
        assert exp_ts(ts, 0.8, 1.0, 4.0) == pytest.approx(
            1.0 / exp_ts(ts, 0.8, 4.0, 1.0), rel=1e-12)

    def test_signed_product_when_factor_negative(self):
        # 1 + h*p = -1 on the unit grid for p = -2
        assert exp_ts(TimeScale.integers(0, 5), -2.0, 3.0, 0.0) == -1.0

    def test_non_regressive_raises(self):
        with pytest.raises(NonRegressiveParameter):
            exp_ts(Z, -1.0, 5.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(timescales(), st.floats(-0.8, 1.2), st.integers(0, 10), st.integers(0, 10))
def test_exp_semigroup(ts, p, i, j):
    if not is_regressive(ts, p):
        return
    mesh = ts.mesh(ts.t_min, ts.t_max, max_step=0.5)
    s = mesh[min(i, len(mesh) - 1)]
    t = mesh[min(max(i, j), len(mesh) - 1)]
    lhs = exp_ts(ts, p, t, ts.t_min)
    rhs = exp_ts(ts, p, t, s) * exp_ts(ts, p, s, ts.t_min)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(timescales(), st.floats(-0.8, 1.2))
def test_exp_solves_its_equation_at_scattered_points(ts, p):
    if not is_regressive(ts, p):
        return
    e = Closure(lambda t: exp_ts(ts, p, t, ts.t_min))
    for t in ts.mesh(ts.t_min, ts.t_max, max_step=1.0)[:-1]:
        if ts.mu(t) > 0.0:
            lhs = delta_derivative(ts, e, t)
            rhs = p * e.func(t)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=30, unique=True),
       st.floats(-11.0, 11.0), st.floats(-11.0, 11.0))
def test_sampled_between_equals_the_full_scan(points, lo, hi):
    mesh = tuple(sorted(points))
    sig = Sampled(mesh, mesh)
    want = tuple(m for m in mesh if lo < m < hi)
    assert sig.between(lo, hi) == want
    for m in mesh:  # bounds that are mesh points themselves
        assert sig.between(m, hi) == tuple(x for x in mesh if m < x < hi)
        assert sig.between(lo, m) == tuple(x for x in mesh if lo < x < m)


def _rule_on_unit_interval(nodes, weights, d):
    """A symmetric rule on [-1, 1], given by its nonnegative nodes (the last
    one 0) and their weights, applied to x^d over [0, 1]."""
    total = weights[-1] * 0.5 ** d
    for x, w in zip(nodes[:-1], weights[:-1]):
        total += w * ((0.5 - 0.5 * x) ** d + (0.5 + 0.5 * x) ** d)
    return 0.5 * total


class TestGaussKronrod:
    def test_kronrod_rule_exact_to_degree_22(self):
        for d in range(23):
            assert abs(_rule_on_unit_interval(_XGK, _WGK, d) - 1.0 / (d + 1)) <= 1e-15

    def test_gauss_rule_exact_to_degree_13(self):
        gauss = _XGK[1::2]
        for d in range(14):
            assert abs(_rule_on_unit_interval(gauss, _WG, d) - 1.0 / (d + 1)) <= 1e-15
        assert abs(_rule_on_unit_interval(gauss, _WG, 14) - 1.0 / 15) > 1e-10

    def test_empty_range_is_zero(self):
        assert _quad(math.exp, 1.0, 1.0, 1e-10) == 0.0
        assert _quad(math.exp, 2.0, 1.0, 1e-10) == 0.0

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (2.0, 7.5)])
    @pytest.mark.parametrize("r", [1.0, 30.0, 1e2, 1e3, 1e4])
    def test_peaked_kernel_matches_closed_form(self, lo, hi, r):
        # weight exp(rho*(tau - peak)) peaked at either end; without the
        # kernel breakpoints a 15-point panel misses the mass near the peak
        for rho, peak in ((r, hi), (-r, lo)):
            pts = _kernel_breakpoints(lo, hi, rho)
            got = _quad(lambda t: math.exp(rho * (t - peak)), lo, hi, 1e-13, pts)
            want = -math.expm1(-r * (hi - lo)) / r
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            for omega in (0.5, 7.0, 40.0):
                got = _quad(lambda t: math.sin(omega * t) * math.exp(rho * (t - peak)),
                            lo, hi, 1e-13, pts)
                antiderivative = lambda t: (cmath.exp(complex(rho * (t - peak), omega * t))
                                            / complex(rho, omega))
                want = (antiderivative(hi) - antiderivative(lo)).imag
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_kink_at_a_breakpoint(self):
        c = 1.0 / 3.0
        calls = []

        def fn(t):
            calls.append(t)
            return math.exp(-abs(t - c))

        want = (1.0 - math.exp(-c)) + (1.0 - math.exp(c - 2.0))
        # points outside (lo, hi) are ignored; each smooth side is one panel
        got = _quad(fn, 0.0, 2.0, 1e-13, points=[-1.0, c, 5.0])
        assert abs(got - want) <= 1e-12
        assert len(calls) == 30

    def test_lone_panel_returns_its_fsum(self):
        # one K15 panel that meets the rule is returned as the queue's
        # fsum of one term would be, -0.0 read as 0.0
        for fn, lo, hi in ((math.exp, 0.0, 0.01), (math.sin, 2.0, 2.5),
                           (lambda t: -0.0, 0.0, 1.0)):
            val, err = _qk15(fn, lo, hi)
            assert err <= 1e-10
            got = _quad(fn, lo, hi, 1e-10)
            assert float.hex(got) == float.hex(math.fsum([val]))
        assert math.copysign(1.0, _quad(lambda t: -0.0, 0.0, 1.0, 1e-10)) == 1.0

    def test_unresolved_oscillation_raises(self):
        with pytest.raises(QuadratureNonConvergence):
            _quad(lambda t: math.sin(20000.0 * t), 0.0, 50.0, 1e-10)
