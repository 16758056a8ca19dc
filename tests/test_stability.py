import math
import random

import pytest

from cfts.errors import DomainError, NonRegressiveParameter
from cfts.fractional import CFOrder
from cfts.linear import LinearCFProblem, solve_linear_trajectory
from cfts.signals import constant
from cfts.stability import (
    BOUNDARY,
    IN_SR,
    OUTSIDE,
    REGRESSIVITY_VIOLATION,
    STABLE,
    UNSTABLE,
    classify_hz,
    classify_r,
    estimate_sc,
)
from cfts.timescale import ContinuousInterval, IsolatedPoint, TimeScale


class TestClassifyGrid:
    def test_small_positive_lambda_unstable(self):
        v = classify_hz(0.2, 0.5, 1.0)
        assert v.status == UNSTABLE and v.mechanism == OUTSIDE

    def test_branch_b_threshold_alpha_half(self):
        v = classify_hz(4.2, 0.5, 1.0)
        assert v.status == STABLE and v.branch == "b"
        assert v.boundary_values[0] == pytest.approx(4.0, abs=1e-12)

    def test_branch_b_threshold_alpha_fifth(self):
        v = classify_hz(4.2, 0.2, 1.0)
        assert v.status == STABLE and v.branch == "b"
        assert v.boundary_values[0] == pytest.approx(10.0 / 7.0, abs=1e-12)

    def test_branch_a_interval(self):
        # alpha=0.8, h=1: A = 0.4, stable interval (-5, 0)
        assert classify_hz(-3.0, 0.8, 1.0).status == STABLE
        assert classify_hz(-6.0, 0.8, 1.0).status == UNSTABLE
        v = classify_hz(-3.0, 0.8, 1.0)
        assert v.branch == "a" and v.boundary_values == pytest.approx((-5.0, 0.0))

    def test_classical_limit_is_hilger_interval(self):
        for h in (0.5, 1.0, 2.0):
            assert classify_hz(-0.5 / h, 1.0, h).status == STABLE
            assert classify_hz(-2.0 / h + 1e-6, 1.0, h).status == STABLE
            assert classify_hz(-2.0 / h - 1e-6, 1.0, h).status == UNSTABLE
            assert classify_hz(0.1, 1.0, h).status == UNSTABLE
            # the disc center is the lone S_R point, reported as a violation
            assert classify_hz(-1.0 / h, 1.0, h).status == REGRESSIVITY_VIOLATION

    def test_negative_lambda_stable_in_branch_b(self):
        for lam in (-0.1, -2.0, -40.0):
            assert classify_hz(lam, 0.3, 0.5).status == STABLE

    def test_regressivity_violations(self):
        # K = 0 at lambda = 1/(1-alpha)
        v = classify_hz(2.0, 0.5, 1.0)
        assert v.status == REGRESSIVITY_VIOLATION and v.mechanism == OUTSIDE
        assert math.isnan(v.p_alpha)
        # p = -1/h is the single real point of the S_R set
        v = classify_hz(-2.0, 0.75, 1.0)
        assert v.p_alpha == pytest.approx(-1.0)
        assert v.status == REGRESSIVITY_VIOLATION and v.mechanism == IN_SR

    def test_sr_verdict_fires_exactly_at_minus_one_over_h(self):
        rng = random.Random(1)
        for _ in range(200):
            lam = rng.uniform(-6, 6)
            alpha = rng.uniform(0.05, 0.95)
            h = rng.choice([0.5, 1.0, 2.0])
            v = classify_hz(lam, alpha, h)
            if v.status == REGRESSIVITY_VIOLATION and v.mechanism == IN_SR:
                assert abs(1.0 + h * v.p_alpha) <= 1e-9
            elif not math.isnan(v.p_alpha):
                assert abs(1.0 + h * v.p_alpha) > 1e-12

    def test_boundary_at_zero(self):
        assert classify_hz(0.0, 0.4, 1.0).status == BOUNDARY

    def test_validation(self):
        with pytest.raises(DomainError):
            classify_hz(1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            classify_hz(1.0, 0.0, 1.0)


class TestClassifyContinuous:
    def test_examples(self):
        assert classify_r(-1.0, 0.7).status == STABLE
        assert classify_r(3.0, 0.5).status == STABLE   # 1/(1-0.5) = 2 < 3
        assert classify_r(1.0, 0.5).status == UNSTABLE

    def test_threshold_and_boundary(self):
        assert classify_r(2.0, 0.5).status == REGRESSIVITY_VIOLATION
        assert classify_r(0.0, 0.5).status == BOUNDARY

    def test_p_sign_consistency(self):
        rng = random.Random(9)
        for _ in range(300):
            lam = rng.uniform(-8, 8)
            alpha = rng.uniform(0.05, 0.95)
            v = classify_r(lam, alpha)
            if v.status == STABLE:
                assert v.p_alpha < 0.0
            elif v.status == UNSTABLE:
                assert v.p_alpha > 0.0

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            classify_r(1.0, 1.0)


class TestEstimateSc:
    def test_grid_value_is_horizon_independent(self):
        p = -0.7
        h = 0.5
        want = math.log(abs(1.0 + h * p)) / h
        ts = TimeScale.grid(0.0, h, 41)
        for horizon in (1.0, 5.0, 20.0):
            assert estimate_sc(ts, p, horizon) == pytest.approx(want, rel=1e-12)

    def test_continuous_value_is_p(self):
        ts = TimeScale.interval(0.0, 4.0)
        assert estimate_sc(ts, -1.0) == pytest.approx(-1.0, rel=1e-12)

    def test_hybrid_two_part_average(self):
        ts = TimeScale.of(ContinuousInterval(0.0, 1.0), IsolatedPoint(2.0))
        want = (-0.5 + math.log(0.5)) / 2.0
        assert estimate_sc(ts, -0.5) == pytest.approx(want, rel=1e-12)

    def test_non_regressive_raises(self):
        with pytest.raises(NonRegressiveParameter):
            estimate_sc(TimeScale.integers(0, 10), -1.0)

    def test_bad_horizon(self):
        with pytest.raises(DomainError):
            estimate_sc(TimeScale.integers(0, 10), -0.5, 0.0)


class TestEquivalences:
    def test_grid_verdict_matches_average_sign_and_disc(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(400):
            lam = rng.uniform(-5, 6)
            alpha = rng.choice([0.2, 0.5, 0.8])
            h = rng.choice([0.5, 1.0, 2.0])
            v = classify_hz(lam, alpha, h)
            if v.status not in (STABLE, UNSTABLE):
                continue
            if abs(1.0 + h * v.p_alpha) < 1e-6 or abs(v.p_alpha) < 1e-6:
                continue  # too close to the disc edge for a sign test
            disc = abs(1.0 + h * v.p_alpha) < 1.0 and v.p_alpha < 0.0
            avg = estimate_sc(TimeScale.grid(0.0, h, 5), v.p_alpha)
            # real slice of the disc: negative average iff |1+hp| < 1
            assert (avg < 0.0) == (abs(1.0 + h * v.p_alpha) < 1.0)
            assert (v.status == STABLE) == disc
            checked += 1
        assert checked > 200

    def test_stable_verdict_concords_with_simulation(self):
        # spot checks here; the full grid sweep lives in the acceptance suite
        for lam, alpha, h, expect in (
                (4.2, 0.5, 1.0, STABLE),
                (0.2, 0.5, 1.0, UNSTABLE),
                (-1.0, 0.3, 0.5, STABLE),
                (-6.0, 0.8, 1.0, UNSTABLE)):
            v = classify_hz(lam, alpha, h)
            assert v.status == expect
            ts = TimeScale.grid(0.0, h, 201)
            traj = solve_linear_trajectory(
                LinearCFProblem(ts, lam, constant(1.0), 1.0, CFOrder(alpha)),
                steps=200)
            xs = [x for x in traj.values if math.isfinite(x)]
            if expect == STABLE:
                K = 1.0 - lam * (1.0 - alpha)
                x_inf = 1.0 * (1.0 - 1.0 / K) - 1.0 / (lam * K)
                assert abs(xs[-1] - x_inf) < abs(xs[len(xs) // 2] - x_inf) + 1e-12
            else:
                assert max(abs(x) for x in xs) > 10.0
