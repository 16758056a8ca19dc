import ast
import cmath
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cfts
from cfts.calculus import delta_derivative, delta_integral, exp_ts, is_regressive
from cfts.errors import DomainError, NonRegressiveKernel
from cfts.fractional import (
    CFOrder,
    cf_delta_left,
    cf_delta_left_prefix,
    cf_delta_right,
    cf_integral,
)
from cfts.linear import LinearCFProblem, residual_linear_mesh, solve_linear_trajectory
from cfts.signals import Closure, Sampled, constant, sine
from cfts.timescale import ContinuousInterval, IsolatedPoint, TimeScale, UniformGrid

from .oracles import oracle_cf_delta_discrete, oracle_cf_delta_interval, oracle_cf_integral_discrete
from .test_timescale import timescales

Z = TimeScale.integers(0, 30)
I01 = TimeScale.interval(0.0, 1.0)
IDENT = Closure(lambda t: t, derivative=lambda t: 1.0)


class TestCFOrder:
    def test_alpha_bar(self):
        assert CFOrder(0.0).alpha_bar == 0.0
        assert CFOrder(0.5).alpha_bar == -1.0
        assert CFOrder(0.25).alpha_bar == pytest.approx(-1.0 / 3.0)
        assert all(CFOrder(a).alpha_bar <= 0.0 for a in (0.0, 0.1, 0.7, 0.99))

    def test_validation(self):
        with pytest.raises(DomainError):
            CFOrder(1.0)
        with pytest.raises(DomainError):
            CFOrder(-0.1)


class TestLeftDerivative:
    def test_alpha_zero_is_increment(self):
        f = Closure(lambda t: math.cos(t))
        got = cf_delta_left(Z, f, 0.0, 7.0, CFOrder(0.0))
        assert got == f.func(7.0) - f.func(0.0)

    def test_degenerate_kernel_on_unit_grid(self):
        # alpha = 0.5 makes 1 + alpha_bar = 0 on the unit grid; only the
        # final increment survives (0**0 == 1).
        assert cf_delta_left(Z, IDENT, 0.0, 3.0, CFOrder(0.5)) == 2.0

    def test_degenerate_kernel_on_hybrid_span_rejected(self):
        ts = TimeScale.of(ContinuousInterval(0.0, 1.0), UniformGrid(2.0, 1.0, 3))
        with pytest.raises(NonRegressiveKernel):
            cf_delta_left(ts, IDENT, 0.0, 3.0, CFOrder(0.5))

    def test_continuous_closed_form(self):
        got = cf_delta_left(I01, IDENT, 0.0, 1.0, CFOrder(0.5))
        assert got == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), abs=1e-10)

    def test_continuous_by_parts_matches_direct(self):
        with_d = Closure(lambda t: t * t * t, derivative=lambda t: 3.0 * t * t)
        without = Closure(lambda t: t * t * t)
        o = CFOrder(0.3)
        a = cf_delta_left(I01, with_d, 0.0, 1.0, o)
        b = cf_delta_left(I01, without, 0.0, 1.0, o)
        assert a == pytest.approx(b, rel=1e-11)
        assert a == pytest.approx(
            oracle_cf_delta_interval(lambda t: 3 * t * t, 0.0, 1.0, 0.3, n=200000),
            abs=1e-8)

    def test_constant_is_zero_exactly(self):
        rng = random.Random(7)
        for ts in (Z, I01, TimeScale.of(ContinuousInterval(0.0, 1.0),
                                        UniformGrid(1.5, 0.25, 5))):
            for _ in range(20):
                alpha = rng.uniform(0.01, 0.99)
                assert cf_delta_left(ts, constant(3.7), 0.0, ts.t_max,
                                     CFOrder(alpha)) == 0.0

    def test_linearity(self):
        rng = random.Random(11)
        ts = TimeScale.grid(0.0, 0.5, 21)
        f1 = Closure(lambda t: math.sin(t))
        f2 = Closure(lambda t: t * t - 2.0 * t)
        for _ in range(10):
            alpha = rng.uniform(0.05, 0.95)
            c1, c2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
            combo = Closure(lambda t: c1 * f1.func(t) + c2 * f2.func(t))
            o = CFOrder(alpha)
            lhs = cf_delta_left(ts, combo, 0.0, 8.0, o)
            rhs = (c1 * cf_delta_left(ts, f1, 0.0, 8.0, o)
                   + c2 * cf_delta_left(ts, f2, 0.0, 8.0, o))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_convolution_form_on_integers(self):
        # independent convolution sum: sum_s f_delta(s) * w(t - 1 - s)
        alpha = 0.3
        abar = alpha / (alpha - 1.0)
        f = Closure(lambda t: t * t + math.sin(t))
        t = 12
        fd = [f.func(s + 1.0) - f.func(s) for s in range(t)]
        conv = sum(fd[s] * (1.0 + abar) ** (t - 1 - s) for s in range(t))
        got = cf_delta_left(Z, f, 0.0, float(t), CFOrder(alpha))
        assert got == pytest.approx(conv / (1.0 - alpha), rel=1e-12)

    def test_matches_discrete_oracle_randomized(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randrange(5, 60)
            h = rng.choice([0.1, 0.25, 0.5, 1.0])
            alpha = rng.uniform(0.05, 0.95)
            samples = [rng.uniform(-2, 2)]
            for _ in range(n):
                samples.append(samples[-1] + rng.uniform(-1, 1))
            ts = TimeScale.grid(0.0, h, n + 1)
            sig = Sampled(ts.mesh(0.0, n * h, max_step=h), tuple(samples))
            a_i = rng.randrange(0, n - 1)
            t_i = rng.randrange(a_i + 1, n + 1)
            want = oracle_cf_delta_discrete(samples, h, alpha, a_i, t_i)
            got = cf_delta_left(ts, sig, a_i * h, t_i * h, CFOrder(alpha))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            cf_delta_left(Z, IDENT, 5.0, 3.0, CFOrder(0.5))


class TestLeftPrefix:
    """The one-march column form against the oracle and the single-point form."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 40), st.floats(0.05, 0.95), st.booleans(),
           st.sampled_from([0.1, 0.25, 0.5, 1.0]), st.data())
    def test_matches_discrete_oracle_on_grids(self, n, alpha, degenerate, h, data):
        if degenerate:  # 1 + h*alpha_bar == 0: every older increment dies
            h = (1.0 - alpha) / alpha
        samples = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n + 1,
                                     max_size=n + 1))
        a_i = data.draw(st.integers(0, n - 1))
        ts = TimeScale.grid(0.0, h, n + 1)
        sig = Sampled(ts.mesh(0.0, ts.t_max), tuple(samples))
        got = cf_delta_left_prefix(ts, sig, sig.mesh[a_i:], CFOrder(alpha))
        assert len(got) == n + 1 - a_i
        for t_i, g in zip(range(a_i, n + 1), got):
            want = oracle_cf_delta_discrete(samples, h, alpha, a_i, t_i)
            assert g == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(timescales(), st.one_of(st.just(0.5), st.floats(0.05, 0.95)),
           st.booleans(), st.data())
    def test_matches_single_point_on_hybrid_scales(self, ts, alpha, sampled, data):
        # alpha = 0.5 kills the kernel on every unit gap or unit-step grid
        mesh = ts.mesh(ts.t_min, ts.t_max, max_step=0.25)
        start = data.draw(st.integers(0, len(mesh) - 1))
        func = lambda t: math.sin(1.3 * t) + 0.2 * t
        if sampled:
            f = Sampled(mesh, tuple(func(t) for t in mesh))
            tol = 1e-12
        else:
            f = Closure(func, derivative=lambda t: 1.3 * math.cos(1.3 * t) + 0.2)
            tol = 1e-8  # the dense runs are split into separate quadratures
        order = CFOrder(alpha)
        mesh = mesh[start:]
        wants = []
        for t in mesh:
            try:
                wants.append(cf_delta_left(ts, f, mesh[0], t, order))
            except NonRegressiveKernel:
                # the column refuses from the same first point on
                with pytest.raises(NonRegressiveKernel):
                    cf_delta_left_prefix(ts, f, mesh[:len(wants) + 1], order)
                break
        got = cf_delta_left_prefix(ts, f, mesh[:len(wants)], order)
        assert got == pytest.approx(wants, rel=tol, abs=tol)

    @settings(max_examples=60, deadline=None)
    @given(timescales(), st.floats(0.05, 0.95), st.data())
    def test_identity_against_the_exponential(self, ts, alpha, data):
        # f^delta = 1 gives S(t) = (e_abar(t, a) - 1)/abar, a product form
        abar = CFOrder(alpha).alpha_bar
        assume(is_regressive(ts, abar))
        mesh = ts.mesh(ts.t_min, ts.t_max, max_step=0.25)
        mesh = mesh[data.draw(st.integers(0, len(mesh) - 1)):]
        got = cf_delta_left_prefix(ts, IDENT, mesh, CFOrder(alpha))
        want = [(exp_ts(ts, abar, t, mesh[0]) - 1.0) / abar / (1.0 - alpha) for t in mesh]
        # each dense piece is one quadrature to 1e-10, scaled by 1/(1-alpha) <= 20
        assert got == pytest.approx(want, rel=1e-7, abs=1e-7)

    def test_alpha_zero_is_increment(self):
        f = Closure(lambda t: math.cos(t))
        got = cf_delta_left_prefix(Z, f, [0.0, 3.0, 7.0], CFOrder(0.0))
        assert got == [0.0, f.func(3.0) - f.func(0.0), f.func(7.0) - f.func(0.0)]

    def test_dense_points_split_the_run(self):
        got = cf_delta_left_prefix(I01, IDENT, [0.0, 0.25, 0.5, 1.0], CFOrder(0.5))
        want = [2.0 * (1.0 - math.exp(-t)) for t in (0.0, 0.25, 0.5, 1.0)]
        assert got == pytest.approx(want, abs=1e-10)

    def test_degenerate_kernel_inside_hybrid_span_rejected(self):
        # graininess 1 from the grid and the gap 1 -> 2 both kill at alpha 0.5
        ts = TimeScale.of(ContinuousInterval(0.0, 1.0), UniformGrid(2.0, 1.0, 3))
        with pytest.raises(NonRegressiveKernel):
            cf_delta_left_prefix(ts, IDENT, ts.mesh(0.0, 4.0), CFOrder(0.5))
        # the span [0, 1) holds no scattered point yet
        assert len(cf_delta_left_prefix(ts, IDENT, [0.0, 0.5, 1.0], CFOrder(0.5))) == 3

    def test_degenerate_grid_allowed_until_the_span_leaves_it(self):
        ts = TimeScale.of(UniformGrid(0.0, 1.0, 4), ContinuousInterval(3.5, 4.0))
        order = CFOrder(0.5)
        got = cf_delta_left_prefix(ts, IDENT, [0.0, 1.0, 2.0, 3.0], order)
        assert got == [0.0, 2.0, 2.0, 2.0]
        with pytest.raises(NonRegressiveKernel):
            cf_delta_left_prefix(ts, IDENT, [0.0, 1.0, 2.0, 3.0, 3.5], order)
        # a span that starts past the grid only meets the harmless gap 0.5
        assert cf_delta_left_prefix(ts, IDENT, [3.0, 3.5], order)[-1] == 1.0

    def test_mesh_validation(self):
        with pytest.raises(DomainError):
            cf_delta_left_prefix(Z, IDENT, [], CFOrder(0.5))
        with pytest.raises(DomainError):
            cf_delta_left_prefix(Z, IDENT, [0.0, 2.0, 2.0], CFOrder(0.5))

    def test_residual_column_walks_the_atoms_once(self, monkeypatch):
        ts = TimeScale.of(UniformGrid(0.0, 0.1, 11), ContinuousInterval(1.5, 2.5))
        prob = LinearCFProblem(ts, -0.5, Closure(math.sin), 0.0, CFOrder(0.3))
        traj = solve_linear_trajectory(prob, horizon=2.5)
        calls = []
        atoms = TimeScale.atoms
        monkeypatch.setattr(TimeScale, "atoms",
                            lambda self, a, b: calls.append((a, b)) or atoms(self, a, b))
        # right after its trajectory, the residual reuses the trajectory's walk
        column = residual_linear_mesh(prob, traj, traj.mesh)
        assert len(column) == len(traj.mesh) > 200
        assert calls == []
        # on its own (another mesh walked since), it walks the atoms once
        solve_linear_trajectory(prob, horizon=2.0)
        calls.clear()
        assert residual_linear_mesh(prob, traj, traj.mesh) == column
        assert calls == [(0.0, 2.5)]


WAVE = Closure(lambda t: math.sin(1.3 * t) + 0.2 * t,
               derivative=lambda t: 1.3 * math.cos(1.3 * t) + 0.2)


def _derivative_column(ts, mesh, order):
    """D^(alpha)_0 WAVE on a mesh from 0 as a sampled signal; draws whose
    kernel vanishes (1 + mu*alpha_bar = 0) are assumed away."""
    try:
        return Sampled(mesh, tuple(cf_delta_left_prefix(ts, WAVE, mesh, order)))
    except NonRegressiveKernel:
        assume(False)


def test_oracles_do_not_import_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "math", "dataclasses"}


def test_no_unused_imports():
    # package re-exports in __init__.py and __future__ features are exempt
    paths = [*Path(cfts.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    unused = []
    for path in sorted(p for p in paths if p.name != "__init__.py"):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{name}" for name in sorted(imported - used)]
    assert unused == []


def test_only_timescale_knows_the_atom_format():
    package = Path(cfts.__file__).parent
    leaks = []
    for path in sorted(package.glob("*.py")):
        if path.name == "timescale.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.name if isinstance(node, ast.alias)
                    else node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in ("ScatteredAtom", "DenseAtom"):
                leaks.append(f"{path.name}:{name}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "atoms"):
                leaks.append(f"{path.name}:{node.lineno}: .atoms(")
    assert leaks == []


def test_one_kernel_march():
    # every exponential-kernel recurrence, and every product or sum over
    # the cells, runs on calculus.kernel_march, over the cells of
    # calculus._walk, the one owner of `.cells(`: a function that takes
    # cells from it hands them to kernel_march.  The walks allowed besides
    # it step differently: the classical explicit step (pinned figure
    # bytes), the implicit Picard map and the slopes of the classical
    # residual
    allowed = {"classical_trajectory", "classical_residual_mesh", "picard_solve"}
    package = Path(cfts.__file__).parent
    walks = []
    for path in sorted(package.glob("*.py")):
        if path.name == "timescale.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            called = {node.func.attr if isinstance(node.func, ast.Attribute)
                      else getattr(node.func, "id", None)
                      for node in ast.walk(top) if isinstance(node, ast.Call)}
            if owner in allowed:
                continue
            if "cells" in called and owner != "_walk":
                walks.append(f"{path.name}: .cells( in {owner}")
            if "_walk" in called and "kernel_march" not in called:
                walks.append(f"{path.name}: _walk( in {owner} without kernel_march")
    assert walks == []


class TestRightDerivative:
    def test_alpha_zero(self):
        f = Closure(lambda t: t * t)
        assert cf_delta_right(Z, f, 2.0, 9.0, CFOrder(0.0)) == f.func(9.0) - f.func(2.0)

    def test_constant_is_zero(self):
        assert cf_delta_right(Z, constant(5.0), 0.0, 6.0, CFOrder(0.3)) == 0.0

    def test_continuous_closed_form(self):
        got = cf_delta_right(I01, IDENT, 0.0, 1.0, CFOrder(0.5))
        assert got == pytest.approx(2.0 * (math.exp(1.0) - 1.0), abs=1e-10)

    def test_reciprocal_kernel_needs_regressivity(self):
        with pytest.raises(NonRegressiveKernel):
            cf_delta_right(Z, IDENT, 0.0, 4.0, CFOrder(0.5))

    def test_discrete_against_literal_sum(self):
        alpha = 0.25
        abar = alpha / (alpha - 1.0)
        f = Closure(lambda t: math.sin(0.5 * t))
        t, b = 2, 10
        total = 0.0
        for k in range(t, b):
            fd = f.func(k + 1.0) - f.func(k)
            total += fd * (1.0 + abar) ** (t - k - 1)
        want = total / (1.0 - alpha)
        got = cf_delta_right(Z, f, float(t), float(b), CFOrder(alpha))
        assert got == pytest.approx(want, rel=1e-12)

    def test_hybrid_against_reciprocal_kernel_sum(self):
        # [0, 1], then the steps 1 -> 1.5 -> 1.75 -> 2 -> 3: the right
        # operator weights each increment of f by 1/e(sigma(tau), 0)
        ts = TimeScale.of(ContinuousInterval(0.0, 1.0), UniformGrid(1.5, 0.25, 3),
                          IsolatedPoint(3.0))
        alpha = 0.3
        abar = alpha / (alpha - 1.0)
        z = complex(-abar, 1.0)  # integral_0^1 cos(tau) exp(-abar*tau) dtau
        total, e = ((cmath.exp(z) - 1.0) / z).real, math.exp(abar)
        for lo, hi in ((1.0, 1.5), (1.5, 1.75), (1.75, 2.0), (2.0, 3.0)):
            e *= 1.0 + (hi - lo) * abar
            total += (math.sin(hi) - math.sin(lo)) / e
        got = cf_delta_right(ts, Closure(math.sin, derivative=math.cos), 0.0, 3.0,
                             CFOrder(alpha))
        assert got == pytest.approx(total / (1.0 - alpha), rel=1e-12)

    def test_divergent_kernel_on_a_long_span(self):
        # base 1 + 0.5*alpha_bar = -3.5: e(b, t) overflows past about 570
        # steps, while the weights 1/e(sigma(tau), t) decay
        ts = TimeScale.grid(0.0, 0.5, 2001)
        f = Closure(math.sin, derivative=math.cos)
        assert cf_delta_right(ts, f, 0.0, 1000.0, CFOrder(0.9)) == -1.1124664847666588
        z = TimeScale.integers(0, 1000)  # base -8
        assert cf_delta_right(z, f, 0.0, 1000.0, CFOrder(0.9)) == pytest.approx(
            cf_delta_right(z, f, 0.0, 100.0, CFOrder(0.9)), rel=1e-12)

    def test_kernel_out_of_float_range(self):
        # e(100, 0) = exp(-900) underflows to 0: the weights 1/e overflow
        with pytest.raises(DomainError):
            cf_delta_right(TimeScale.interval(0.0, 100.0),
                           Closure(math.sin, derivative=math.cos), 0.0, 100.0, CFOrder(0.9))
        # finite weights, but increments near 1e308 sum past the float range
        with pytest.raises(DomainError, match="leaves the float range"):
            cf_delta_right(TimeScale.integers(0, 10), Closure(lambda t: 1e308 * t * t),
                           0.0, 10.0, CFOrder(0.3))


class TestFractionalIntegral:
    def test_constant_forcing(self):
        for alpha in (0.2, 0.5, 0.8):
            got = cf_integral(Z, constant(1.0), 7.0, CFOrder(alpha))
            assert got == pytest.approx((1.0 - alpha) + alpha * 7.0, rel=1e-14)

    def test_weights_collapse_toward_one(self):
        u = Closure(lambda t: math.cos(t))
        plain = delta_integral(Z, u, 0.0, 9.0)
        got = cf_integral(Z, u, 9.0, CFOrder(1.0 - 1e-9))
        assert got == pytest.approx(plain, abs=1e-6)

    def test_identity_forcing_on_integers(self):
        got = cf_integral(Z, Closure(lambda t: t), 3.0, CFOrder(0.5))
        assert got == pytest.approx(0.5 * 3.0 + 0.5 * (0.0 + 1.0 + 2.0), rel=1e-14)

    def test_matches_discrete_oracle(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(2, 40)
            h = rng.choice([0.2, 0.5, 1.0])
            alpha = rng.uniform(0.05, 0.95)
            u = [rng.uniform(-3, 3) for _ in range(n + 1)]
            ts = TimeScale.grid(0.0, h, n + 1)
            sig = Sampled(ts.mesh(0.0, n * h, max_step=h), tuple(u))
            t_i = rng.randrange(1, n + 1)
            want = oracle_cf_integral_discrete(u, h, alpha, t_i)
            got = cf_integral(ts, sig, t_i * h, CFOrder(alpha))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    # For y = D^(alpha)_0 f, (1-alpha) y^delta + alpha y = f^delta and y(0) = 0,
    # so the fractional integral of y gives back f(t) - f(0).  A divergent
    # kernel |1 + mu*alpha_bar| > 1 grows y far past f, and the integral then
    # cancels terms of y's size, so the bound scales with max |y| too.

    @settings(max_examples=60, deadline=None)
    @given(timescales(start=0.0, kinds=("grid", "point")), st.floats(0.05, 0.95))
    def test_inverts_the_derivative_on_scattered_scales(self, ts, alpha):
        order = CFOrder(alpha)
        mesh = ts.mesh(0.0, ts.t_max)
        y = _derivative_column(ts, mesh, order)
        scale = max(1.0, *map(abs, y.values))
        for t in mesh:
            want = WAVE.func(t) - WAVE.func(0.0)
            assert abs(cf_integral(ts, y, t, order) - want) <= 1e-12 * max(scale, abs(want))

    @settings(max_examples=25, deadline=None)
    @given(timescales(start=0.0), st.floats(0.05, 0.95))
    def test_inverts_the_derivative_to_second_order_on_dense_runs(self, ts, alpha):
        # the trapezoid over dense pieces errs by O(h^2): quartering the
        # step must cut the error at least 8-fold
        assume(any(isinstance(s, ContinuousInterval) for s in ts.segments))
        order = CFOrder(alpha)
        coarse, fine = (ts.mesh(0.0, ts.t_max, max_step=h) for h in (0.01, 0.0025))
        shared = sorted(set(coarse) & set(fine))
        shared = shared[::max(1, len(shared) // 8)] + [ts.t_max]
        errors, scale = [], 1.0
        for mesh in (coarse, fine):
            y = _derivative_column(ts, mesh, order)
            scale = max(scale, *map(abs, y.values))
            errors.append(max(abs(cf_integral(ts, y, t, order) - (WAVE.func(t) - WAVE.func(0.0)))
                              for t in shared))
        assert errors[1] <= errors[0] / 8.0 + 1e-12 * scale

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            cf_integral(Z, constant(1.0), 3.0, CFOrder(0.0))


def _limit_errors(ts, f, a, t, alphas):
    """f^delta(t) and |cf_delta_left(f; a, t) - f^delta(t)| along the orders."""
    fd = delta_derivative(ts, f, t)
    return fd, [abs(cf_delta_left(ts, f, a, t, CFOrder(al)) - fd) for al in alphas]


def _decreasing(errs):
    return all(b <= a * (1.0 + 1e-12) for a, b in zip(errs, errs[1:]))


class TestLimitBehavior:
    def test_errors_decrease_on_interval(self):
        ts = TimeScale.interval(0.0, 3.0)
        f = Closure(lambda t: t * t, derivative=lambda t: 2.0 * t)
        fd, errs = _limit_errors(ts, f, 0.0, 3.0, (0.5, 0.9, 0.99, 0.999))
        assert fd == 6.0
        assert _decreasing(errs)
        assert errs[-1] < 0.05

    def test_linear_function_on_interval_closed_form(self):
        # for f(t) = c*t the operator equals (c/alpha)(1 - exp(abar*(t-a)))
        ts = TimeScale.interval(0.0, 2.0)
        c = 3.0
        f = Closure(lambda t: c * t, derivative=lambda t: c)
        for alpha in (0.3, 0.6, 0.9):
            abar = alpha / (alpha - 1.0)
            want = (c / alpha) * (1.0 - math.exp(abar * 2.0))
            got = cf_delta_left(ts, f, 0.0, 2.0, CFOrder(alpha))
            assert got == pytest.approx(want, rel=1e-10)

    def test_constant_gives_zero_errors_everywhere(self):
        assert delta_derivative(Z, constant(2.0), 9.0) == 0.0
        for al in (0.1, 0.5, 0.9):
            assert cf_delta_left(Z, constant(2.0), 0.0, 9.0, CFOrder(al)) == 0.0

    def test_fixed_grid_diverges_as_alpha_approaches_one(self):
        # On a fixed unit grid the backward weights grow like
        # |(2a-1)/(a-1)| > 1 once alpha > 2/3, so the alpha -> 1 limit does
        # not reproduce the delta derivative; the divergence is real.
        f = Closure(lambda t: t * t)
        _, errs = _limit_errors(TimeScale.integers(0, 20), f, 0.0, 5.0, (0.9, 0.99, 0.999))
        assert not _decreasing(errs)
        assert errs[-1] > 1e6
        # the literal summation oracle agrees with the production value
        samples = [float(k * k) for k in range(21)]
        want = oracle_cf_delta_discrete(samples, 1.0, 0.999, 0, 5)
        got = cf_delta_left(TimeScale.integers(0, 20), f, 0.0, 5.0, CFOrder(0.999))
        assert got == pytest.approx(want, rel=1e-10)


class TestConfigForcingsInClosedForm:
    """constant and sine carry their derivative's kernel integral, so the
    fractional operators integrate them on dense cells without quadrature."""

    def test_no_quadrature(self, monkeypatch):
        calls = []
        quad = cfts.calculus._quad
        monkeypatch.setattr(cfts.calculus, "_quad",
                            lambda *args, **kw: calls.append(args) or quad(*args, **kw))
        order, mesh = CFOrder(0.5), [0.0, 0.5, 1.0]
        wave = sine(1.0, 2.0, 0.0)
        # rate -1, front 2: D_left sin(2t) = (4/5)(cos 2t + 2 sin 2t - e^-t),
        # D_right over [0, 1] = (4/5)(e (cos 2 + 2 sin 2) - 1)
        left = [0.8 * (math.cos(2 * t) + 2 * math.sin(2 * t) - math.exp(-t)) for t in mesh]
        right = 0.8 * (math.e * (math.cos(2.0) + 2 * math.sin(2.0)) - 1.0)
        assert abs(cf_delta_left(I01, wave, 0.0, 1.0, order) - 0.8276548607462231) <= 1e-10
        got = cf_delta_left_prefix(I01, wave, mesh, order)
        assert all(abs(g - w) <= 1e-10 for g, w in zip(got, left))
        assert abs(cf_delta_right(I01, wave, 0.0, 1.0, order) - right) <= 1e-10
        flat = constant(3.0)
        assert cf_delta_left(I01, flat, 0.0, 1.0, order) == 0.0
        assert cf_delta_left_prefix(I01, flat, mesh, order) == [0.0, 0.0, 0.0]
        assert cf_delta_right(I01, flat, 0.0, 1.0, order) == 0.0
        assert calls == []


@pytest.mark.parametrize("call, error, match", [
    (lambda: cf_delta_right(I01, constant(1.0), 1.0, 0.5, CFOrder(0.5)), DomainError,
     "need t <= b"),
    (lambda: cf_integral(TimeScale.interval(-1.0, 1.0), constant(1.0), -0.5, CFOrder(0.5)),
     DomainError, "need t >= 0"),
    (lambda: Sampled((0.0, 1.0), (1.0,)), ValueError, "equal length"),
    (lambda: Sampled((0.0, 1.0, 1.0), (1.0, 2.0, 3.0)), ValueError, "strictly increasing"),
    (lambda: ContinuousInterval(0.0, math.inf), ValueError, "must be finite"),
    (lambda: I01.atoms(1.0, 0.5), ValueError, "need a <= b"),
    # None is no grid step: the reals are classify_r's
    (lambda: cfts.classify_hz(1.0, 0.5, None), TypeError, None),
    (lambda: cfts.classify_hz(1.0, 0.5, 0.0), DomainError, "must be positive"),
    (lambda: cfts.classify_hz(-1.0, 0.5, math.nan), DomainError, "must be positive"),
    (lambda: cfts.classify_hz(-1.0, 0.5, math.inf), DomainError, "must be finite"),
    (lambda: cfts.estimate_sc(TimeScale.grid(0, 1, 5), math.nan), DomainError,
     "p must be finite"),
    (lambda: cfts.estimate_sc(TimeScale.grid(0, 1, 5), -math.inf), DomainError,
     "p must be finite"),
    # e_p(t0, t) underflows to 0, so its reciprocal e_p(t, t0) has no float
    (lambda: exp_ts(TimeScale.interval(0, 1000), -1000.0, 0.0, 1000.0), DomainError,
     "float range"),
    (lambda: exp_ts(TimeScale.grid(0, 1, 2000), -0.9999999, 0.0, 1999.0), DomainError,
     "float range"),
    # M(alpha) = 1 and the window of the segments are no fields
    (lambda: CFOrder(0.5, m_alpha=1.0), TypeError, None),
    (lambda: TimeScale(I01.segments, I01.window), TypeError, None),
], ids=["right-derivative-b-before-t", "integral-before-0", "sampled-unequal-lengths",
        "sampled-repeated-point", "unbounded-interval", "atoms-b-before-a",
        "classify-hz-no-step", "classify-hz-step-0", "classify-hz-step-nan",
        "classify-hz-step-inf", "estimate-sc-p-nan", "estimate-sc-p-minus-inf",
        "exp-ts-backward-underflow-interval", "exp-ts-backward-underflow-grid",
        "cforder-no-normalization", "timescale-no-window"])
def test_input_checks_raise_their_documented_type(call, error, match):
    with pytest.raises(error, match=match):
        call()
