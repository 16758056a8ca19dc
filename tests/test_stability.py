import contextlib
import math
import random
from bisect import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfts import stability
from cfts.errors import DomainError, NonRegressiveParameter
from cfts.fractional import CFOrder
from cfts.linear import LinearCFProblem, solve_linear_trajectory
from cfts.signals import constant
from cfts.stability import (
    BOUNDARY,
    BOUNDARY_TOL,
    IN_SC,
    IN_SR,
    OUTSIDE,
    REGRESSIVITY_VIOLATION,
    STABLE,
    UNSTABLE,
    _bands,
    _classify_block,
    _p_column,
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
        for lam in (math.inf, -math.inf, math.nan):
            for alpha in (0.5, 1.0):
                with pytest.raises(DomainError):
                    classify_hz(lam, alpha, 1.0)

    def test_overflowed_kernel_base_is_not_a_violation(self):
        # 1 + h*p overflows to -inf; p = -8.91 lies below -2/h, so unstable
        v = classify_hz(-1000.0, 0.9, 1e308)
        assert v.status == UNSTABLE and v.mechanism == OUTSIDE
        assert v.p_alpha == pytest.approx(-900.0 / 101.0, rel=1e-15)
        assert v.boundary_values == (-2.0 / (1e308 * 0.9 - 2.0 * (1.0 - 0.9)), 0.0)


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

    def test_lambda_must_be_finite(self):
        for lam in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                classify_r(lam, 0.5)


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

    def test_window_away_from_zero(self):
        # the two-part average shifted by 2: the window is [t_min, t_max],
        # so the dense part weighs hi - lo and the mean divides by T - t0
        ts = TimeScale.of(ContinuousInterval(2.0, 3.0), IsolatedPoint(4.0))
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


# -- reference classifiers that redo all the work on every call, with a
# non-finite x never near anything.  The cached per-(alpha, h) classifiers
# must agree with them field for field, to the bit.


def _oracle_near(x, y):
    if math.isinf(y) or not math.isfinite(x):
        return False
    return abs(x - y) <= BOUNDARY_TOL * max(1.0, abs(x), abs(y))


def _oracle_hz(lam, alpha, h):
    K = 1.0 - lam * (1.0 - alpha)
    A = h * alpha - 2.0 * (1.0 - alpha)
    branch = "a" if A > 0.0 else "b"
    if _oracle_near(K, 0.0):
        return REGRESSIVITY_VIOLATION, OUTSIDE, math.nan, (math.nan, math.nan), branch
    p = lam * alpha / K
    if _oracle_near(1.0 + h * p, 0.0):
        return REGRESSIVITY_VIOLATION, IN_SR, p, (math.nan, math.nan), branch
    if branch == "a":
        bounds = (-2.0 / A, 0.0)
    else:
        thr = 2.0 / -A if A < 0.0 else math.inf
        if lam < 0.0:
            bounds = (-math.inf, 0.0)
        elif lam > thr:
            bounds = (thr, math.inf)
        else:
            bounds = (0.0, thr)
    if (_oracle_near(lam, bounds[0]) or _oracle_near(lam, bounds[1])
            or _oracle_near(p, 0.0) or _oracle_near(p, -2.0 / h)):
        return BOUNDARY, OUTSIDE, p, bounds, branch
    stable = -2.0 / h < p < 0.0
    return STABLE if stable else UNSTABLE, IN_SC if stable else OUTSIDE, p, bounds, branch


def _oracle_r(lam, alpha):
    thr = 1.0 / (1.0 - alpha)
    K = 1.0 - lam * (1.0 - alpha)
    if _oracle_near(K, 0.0):
        return REGRESSIVITY_VIOLATION, OUTSIDE, math.nan, (thr, math.inf), "continuous"
    p = lam * alpha / K
    if lam < 0.0:
        bounds = (-math.inf, 0.0)
    elif lam > thr:
        bounds = (thr, math.inf)
    else:
        bounds = (0.0, thr)
    if _oracle_near(lam, 0.0) or _oracle_near(lam, thr):
        return BOUNDARY, OUTSIDE, p, bounds, "continuous"
    stable = lam < 0.0 or lam > thr
    return STABLE if stable else UNSTABLE, IN_SC if stable else OUTSIDE, p, bounds, "continuous"


def _fields(status, mechanism, p, bounds, branch):
    return status, mechanism, branch, p.hex(), bounds[0].hex(), bounds[1].hex()


def _verdict_fields(v):
    return _fields(v.status, v.mechanism, v.p_alpha, v.boundary_values, v.branch)


def _anchors(alpha, h):
    """The lambdas where the verdict changes: 0, the branch threshold, the
    continuous threshold (K = 0) and the S_R point (1 + h*p = 0)."""
    abar = 1.0 - alpha
    A = h * alpha - 2.0 * abar
    out = [0.0]
    if A != 0.0:
        out.append(-2.0 / A)
    if abar:
        out.append(1.0 / abar)
    if h * alpha != abar:
        out.append(-1.0 / (h * alpha - abar))
    return [a for a in out if math.isfinite(a)]


_alphas = st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.1, 0.5, 0.9, 1.0]),
                    st.floats(0.999, 1.0))
_steps = st.one_of(st.floats(1e-3, 4.0), st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                   st.floats(1e300, 1e308), st.floats(5e-324, 1e-300))
_offsets = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e,
                                             st.sampled_from([-1.0, 1.0]),
                                             st.floats(-13.0, -9.0)))


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_hoisted_classifiers_match_the_per_call_form(data):
    alpha = data.draw(_alphas)
    h = data.draw(_steps)
    if alpha < 1.0 and data.draw(st.booleans()):
        # the branch switch A = 0 lies at h = 2(1/alpha - 1)
        h = 2.0 * (1.0 - alpha) / alpha * (1.0 + data.draw(_offsets))
    if data.draw(st.booleans()):
        anchor = data.draw(st.sampled_from(_anchors(alpha, h)))
        off = data.draw(_offsets)
        lam = off if anchor == 0.0 else anchor * (1.0 + off)
    else:
        lam = data.draw(st.floats(-50.0, 50.0))
    assert _fields(*_oracle_hz(lam, alpha, h)) == _verdict_fields(classify_hz(lam, alpha, h))
    if alpha < 1.0:
        assert _fields(*_oracle_r(lam, alpha)) == _verdict_fields(classify_r(lam, alpha))


def test_hoisted_classifiers_match_at_the_band_edges():
    # a seeded sweep that lands lambda at the edge of the BOUNDARY_TOL band
    # of every anchor often enough to tell each boundary test apart
    rng = random.Random(5)
    for _ in range(40_000):
        alpha = rng.choice([rng.uniform(1e-3, 1.0), 1.0 - 10.0 ** rng.uniform(-16.0, -3.0)])
        h = rng.choice([rng.uniform(1e-3, 4.0), 10.0 ** rng.uniform(300.0, 308.0),
                        10.0 ** rng.uniform(-323.0, -300.0)])
        anchor = rng.choice(_anchors(alpha, h))
        off = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13.5, -11.0)
        lam = off if anchor == 0.0 else anchor * (1.0 + off)
        assert _fields(*_oracle_hz(lam, alpha, h)) == _verdict_fields(
            classify_hz(lam, alpha, h)), (lam, alpha, h)
        if alpha < 1.0:
            assert _fields(*_oracle_r(lam, alpha)) == _verdict_fields(
                classify_r(lam, alpha)), (lam, alpha)
    # infinite thresholds: -2/A and -2/h overflow at alpha = 1 with the
    # least step, and A = 0 puts the branch (b) threshold at inf
    for alpha, h in ((1.0, 5e-324), (0.5, 2.0)):
        for lam in (-1e308, -1.0, -0.0, 1.0, 1e308):
            assert _fields(*_oracle_hz(lam, alpha, h)) == _verdict_fields(
                classify_hz(lam, alpha, h)), (lam, alpha, h)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_p_alpha_does_not_depend_on_the_scale(data):
    # the stability table formats p_alpha once per (lambda, alpha) and
    # reuses it in every h block; one h on each side of the branch switch
    alpha = data.draw(st.one_of(st.floats(1e-3, 0.999),
                                st.floats(0.999, 1.0, exclude_max=True)))
    pole = 1.0 / (1.0 - alpha)
    lam = data.draw(st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0, pole])))
    switch = 2.0 * (1.0 - alpha) / alpha
    va = classify_hz(lam, alpha, switch * data.draw(st.floats(2.0, 1e3)))
    vb = classify_hz(lam, alpha, switch * data.draw(st.floats(1e-3, 0.5)))
    assert (va.branch, vb.branch) == ("a", "b")
    assert va.p_alpha.hex() == vb.p_alpha.hex() == classify_r(lam, alpha).p_alpha.hex()
    if lam == pole:
        assert math.isnan(va.p_alpha)


# -- the block path: a sweep block classified by its cells must give every
# lambda the verdict of the per-row classifier, at every edge


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -1e-300, -2e-300]),
                          st.floats(allow_nan=False)), max_size=4))
def test_bands_are_disjoint_and_cover_each_cut(cuts):
    # parity reads "inside a band" only on a strictly increasing list
    flat = _bands(*cuts)
    assert len(flat) % 2 == 0 and all(a < b for a, b in zip(flat, flat[1:]))
    for c in cuts:
        if math.isfinite(c):
            w = 1e3 * BOUNDARY_TOL * max(1.0, abs(c))
            for x in (c - 0.99 * w, c, c + 0.99 * w):
                assert not math.isfinite(x) or bisect(flat, x) % 2 == 1
    # h = 1e300 puts the p-cuts 0, -1/h and -2/h in one band
    assert len(_bands(0.0, -2.0 / 1e300, -1.0 / 1e300)) == 2


def _edge_lams(alpha, h, exponents):
    """Lambdas at every anchor: anchor * (1 +- 10**e) for each e, and the
    lambdas on each side of the BOUNDARY_TOL band and of its 1e3 margin,
    in lambda and (mapped back through p) in p, walked ulp by ulp."""
    abar = 1.0 - alpha
    anchors = _anchors(alpha, h)
    out = [sign * 10.0 ** e if c == 0.0 else c * (1.0 + sign * 10.0 ** e)
           for c in anchors for e in exponents for sign in (-1.0, 1.0)]
    edges = [c + sign * m * BOUNDARY_TOL * max(1.0, abs(c))
             for c in anchors for m in (1.0, 1e3) for sign in (-1.0, 1.0)]
    # lambda = p / (alpha + p*abar) inverts p = lambda*alpha/K
    for c in (0.0, -2.0 / h, -1.0 / h):
        for m in (1.0, 1e3):
            for sign in (-1.0, 1.0):
                p = c + sign * m * BOUNDARY_TOL * max(1.0, abs(c))
                with contextlib.suppress(ZeroDivisionError):
                    edges.append(p / (alpha + p * abar))
    out += [x + k * math.ulp(x) for x in edges if math.isfinite(x) for k in range(-8, 9)]
    return [lam for lam in out if math.isfinite(lam)]


def _run_index(runs):
    """The verdict index of each row of a block, from its (stop, index) runs."""
    index, r = [], 0
    for s, k in runs:
        index += [k] * (s - r)
        r = s
    return index


def _assert_block_matches_rows(lams, alpha, h):
    ps = _p_column(lams, alpha)
    for step in ([h] if alpha == 1.0 else [h, None]):
        verdicts, runs = _classify_block(lams, ps, alpha, step)
        for lam, p, k in zip(lams, ps, _run_index(runs), strict=True):
            v = verdicts[k]
            want = _oracle_hz(lam, alpha, step) if step else _oracle_r(lam, alpha)
            assert _fields(*want) == _fields(v.status, v.mechanism, p, v.boundary_values,
                                             v.branch), (lam, alpha, step)


def _edge_pairs(rng):
    """(alpha, h) pairs: random, near alpha = 1, at extreme steps and at or
    near the branch switch A = 0."""
    alpha = rng.choice([rng.uniform(1e-3, 1.0), rng.uniform(0.999, 1.0), 1.0])
    h = rng.choice([rng.uniform(1e-3, 4.0), 10.0 ** rng.uniform(300.0, 308.0),
                    10.0 ** rng.uniform(-323.0, -300.0)])
    yield alpha, h
    if alpha < 1.0:
        switch = 2.0 * (1.0 - alpha) / alpha
        yield alpha, switch
        yield alpha, switch * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13.0, -6.0))


def test_block_cells_match_the_per_row_classifier_at_every_edge():
    rng = random.Random(13)
    for _ in range(150):
        for alpha, h in _edge_pairs(rng):
            lams = _edge_lams(alpha, h, [rng.uniform(-13.0, -6.0) for _ in range(8)])
            lams += [rng.uniform(-50.0, 50.0) for _ in range(40)]
            rng.shuffle(lams)
            _assert_block_matches_rows(lams, alpha, h)
    # h = 7e8 merges the p-bands of -1/h and -2/h with the band of 0
    for alpha, h in ((1.0, 5e-324), (0.5, 2.0), (0.9, 1e300), (0.3, 1e308), (0.5, 7e8)):
        _assert_block_matches_rows(_edge_lams(alpha, h, range(-13, -5)), alpha, h)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_cells_match_the_per_row_classifier(data):
    alpha = data.draw(_alphas)
    h = data.draw(_steps)
    if alpha < 1.0 and data.draw(st.booleans()):
        h = 2.0 * (1.0 - alpha) / alpha * (1.0 + data.draw(_offsets))
    anchors = _anchors(alpha, h)
    near = st.builds(lambda c, sign, e: sign * 10.0 ** e if c == 0.0
                     else c * (1.0 + sign * 10.0 ** e),
                     st.sampled_from(anchors), st.sampled_from([-1.0, 1.0]),
                     st.floats(-13.0, -6.0))
    lams = data.draw(st.lists(st.one_of(near, st.floats(-50.0, 50.0)), min_size=1,
                              max_size=40))
    _assert_block_matches_rows([lam for lam in lams if math.isfinite(lam)] or [0.0],
                               alpha, h)


def _sweep(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


def _count_bisects(monkeypatch):
    calls = []

    def counted(a, x):
        calls.append(x)
        return bisect(a, x)
    monkeypatch.setattr(stability, "bisect", counted)
    return calls


def test_sorted_sweep_keys_only_the_row_that_ends_a_run(monkeypatch):
    # a row inside its predecessor's cell joins the run without a lookup;
    # keying every row on its own made 2 * 4000 bisect calls per block
    lams = _sweep(-5.0, 6.0, 4000)
    ps = _p_column(lams, 0.5)
    for h in (1.0, None):
        block = stability._block(0.5, h)
        keys = [None if i % 2 or j % 2 or math.isnan(p) else (i, j)
                for lam, p in zip(lams, ps)
                for i, j in [(bisect(block.lam_bands, lam), bisect(block.p_bands, p))]]
        runs = sum(1 for r, key in enumerate(keys)
                   if key is not None and (r == 0 or keys[r - 1] != key))
        band_rows = keys.count(None)
        calls = _count_bisects(monkeypatch)
        got = _classify_block(lams, ps, 0.5, h)
        assert len(calls) <= 2 * (runs + band_rows) and len(calls) < 100, (h, len(calls))
        monkeypatch.undo()
        assert got == _classify_block(lams, ps, 0.5, h)


def test_stability_sweep_table_keys_a_few_hundred_rows(monkeypatch):
    # the 144,000-row benchmark table (4000 lambdas x 9 alphas x 4 steps)
    # made 288,000 bisect calls when every row was keyed
    off = random.Random(11).uniform(0.0, 0.01)
    lams = _sweep(-5.0 + off, 6.0 + off, 4000)
    calls = _count_bisects(monkeypatch)
    for alpha in _sweep(0.1, 0.9, 9):
        ps = _p_column(lams, alpha)
        for h in (0.25, 0.5, 1.0, 2.0):
            _classify_block(lams, ps, alpha, h)
    assert len(calls) <= 400


def test_shuffled_block_matches_the_per_row_classifier(monkeypatch):
    # an unsorted list takes the same walk, in shorter runs
    lams = _sweep(-5.0, 6.0, 4000)
    random.Random(7).shuffle(lams)
    for alpha, h in ((0.5, 1.0), (0.5, None), (0.9, 0.25), (1.0, 2.0)):
        ps = _p_column(lams, alpha)
        calls = _count_bisects(monkeypatch)
        verdicts, runs = _classify_block(lams, ps, alpha, h)
        assert len(calls) <= 2 * len(lams)
        for lam, p, k in zip(lams, ps, _run_index(runs), strict=True):
            want = classify_r(lam, alpha) if h is None else classify_hz(lam, alpha, h)
            assert _verdict_fields(verdicts[k]._replace(p_alpha=p)) == _verdict_fields(want)


def _assert_runs_partition_the_rows(lams, alpha, h):
    verdicts, runs = _classify_block(lams, _p_column(lams, alpha), alpha, h)
    stops = [s for s, _ in runs]
    index = [k for _, k in runs]
    assert all(r < s for r, s in zip([0, *stops], stops)), (alpha, h)
    assert stops[-1] == len(lams), (alpha, h)
    assert all(j != k for j, k in zip(index, index[1:])), (alpha, h)
    # every verdict is some row's
    assert set(index) == set(range(len(verdicts))), (alpha, h)


def test_runs_partition_the_rows():
    lams = _sweep(-5.0, 6.0, 4000)
    shuffled = lams[:]
    random.Random(7).shuffle(shuffled)
    for alpha, h in ((0.5, 1.0), (0.5, None), (0.9, 0.25), (1.0, 2.0)):
        for rows in (lams, lams[::-1], shuffled):
            _assert_runs_partition_the_rows(rows, alpha, h)
    for alpha, h in ((1.0, 5e-324), (0.5, 2.0), (0.9, 1e300), (0.3, 1e308)):
        for step in ([h] if alpha == 1.0 else [h, None]):
            _assert_runs_partition_the_rows(_edge_lams(alpha, h, range(-13, -5)), alpha, step)
    assert _classify_block([], [], 0.5, 1.0) == ([], [])


def test_stability_sweep_table_has_a_few_runs_per_block():
    # the seed-11 benchmark table: 36 blocks of 4000 rows each, every one
    # laid out in at most 5 runs
    off = random.Random(11).uniform(0.0, 0.01)
    lams = _sweep(-5.0 + off, 6.0 + off, 4000)
    for alpha in _sweep(0.1, 0.9, 9):
        ps = _p_column(lams, alpha)
        for h in (0.25, 0.5, 1.0, 2.0):
            _, runs = _classify_block(lams, ps, alpha, h)
            assert len(runs) <= 5, (alpha, h, len(runs))
