import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfts.errors import DomainError, PointNotInTimeScale
from cfts.signals import Sampled, value
from cfts.timescale import (
    ContinuousInterval,
    IsolatedPoint,
    PointClass,
    TimeScale,
    UniformGrid,
    _atol,
    _close,
    parse_segment,
    parse_timescale,
)

Z30 = TimeScale.integers(0, 30)
HYB = TimeScale.of(ContinuousInterval(0.0, 1.0), IsolatedPoint(2.0))


class TestJumpOperators:
    def test_sigma_on_integers(self):
        assert Z30.sigma(3.0) == 4.0

    def test_sigma_interval_end_jumps(self):
        assert HYB.sigma(1.0) == 2.0

    def test_sigma_dense_interior(self):
        assert HYB.sigma(0.5) == 0.5

    def test_sigma_fixes_max(self):
        assert Z30.sigma(30.0) == 30.0
        assert HYB.sigma(2.0) == 2.0

    def test_rho_on_integers(self):
        assert Z30.rho(3.0) == 2.0

    def test_rho_isolated(self):
        assert HYB.rho(2.0) == 1.0

    def test_rho_fixes_min(self):
        assert HYB.rho(0.0) == 0.0
        assert Z30.rho(0.0) == 0.0

    def test_mu(self):
        assert Z30.mu(7.0) == 1.0
        assert HYB.mu(1.0) == 1.0
        assert HYB.mu(0.3) == 0.0
        h = TimeScale.grid(0.0, 0.25, 9)
        assert h.mu(0.5) == 0.25

    def test_point_not_in_scale(self):
        with pytest.raises(PointNotInTimeScale):
            Z30.sigma(3.5)
        with pytest.raises(PointNotInTimeScale):
            HYB.mu(1.7)

    def test_one_lookup_per_operator(self, monkeypatch):
        calls = []
        locate = TimeScale._locate
        monkeypatch.setattr(TimeScale, "_locate",
                            lambda self, t: calls.append(t) or locate(self, t))
        for op in ("sigma", "rho", "mu", "classify", "in_kappa_domain"):
            for t in (0.0, 0.5, 1.0, 2.0):
                calls.clear()
                getattr(HYB, op)(t)
                assert calls == [t], op


class TestMembership:
    def test_grid_lattice_snapping(self):
        g = TimeScale.grid(0.0, 0.1, 31)
        assert 0.1 + 0.1 + 0.1 in g  # 0.30000000000000004
        assert g.snap(0.1 + 0.1 + 0.1) == g.segments[0].point(3)
        assert 0.31 not in g
        assert 3.05 not in g

    def test_interval_membership(self):
        assert 0.123456 in HYB
        assert 1.0 in HYB
        assert 1.5 not in HYB

    def test_window(self):
        assert HYB.window == (0.0, 2.0)
        assert Z30.window == (0.0, 30.0)


class TestNormalization:
    def test_single_point_grid_becomes_isolated(self):
        ts = TimeScale.of(UniformGrid(5.0, 1.0, 1))
        assert isinstance(ts.segments[0], IsolatedPoint)

    def test_touching_interval_and_grid_share_a_point(self):
        # written as [0,1] plus the grid {1,2,3}; the union drops the duplicate
        ts = TimeScale.of(ContinuousInterval(0.0, 1.0), UniformGrid(1.0, 1.0, 3))
        assert ts.sigma(1.0) == 2.0
        assert ts.mu(2.0) == 1.0
        assert ts.window == (0.0, 3.0)

    def test_touching_intervals_merge(self):
        ts = TimeScale.of(ContinuousInterval(0.0, 1.0), ContinuousInterval(1.0, 2.0))
        assert len(ts.segments) == 1
        assert ts.mu(1.0) == 0.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            TimeScale.of(ContinuousInterval(0.0, 1.0), ContinuousInterval(0.5, 2.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TimeScale.of()

    def test_bad_segments_rejected(self):
        # an interval whose ends lie within the membership tolerance too
        for a, b in ((1.0, 1.0), (0.0, 1e-12), (1e6, 1e6 + 1e-7)):
            with pytest.raises(ValueError):
                ContinuousInterval(a, b)
        with pytest.raises(ValueError):
            UniformGrid(0.0, -1.0, 5)
        with pytest.raises(ValueError):
            UniformGrid(0.0, 1.0, 0)
        # a grid whose neighbouring points lie within the tolerance
        for start, step in ((0.0, 1e-12), (1e6, 1e-7), (-1e6, 1e-7)):
            with pytest.raises(ValueError):
                UniformGrid(start, step, 3)
        for bad in (UniformGrid(0.0, math.nan, 5), UniformGrid(0.0, math.inf, 3),
                    IsolatedPoint(math.nan), IsolatedPoint(math.inf)):
            with pytest.raises(ValueError):
                TimeScale.of(ContinuousInterval(-2.0, -1.0), bad)


class TestClassification:
    def test_dense_interior(self):
        assert HYB.classify(0.5) is PointClass.DENSE

    def test_isolated(self):
        mid = TimeScale.of(ContinuousInterval(0.0, 1.0), IsolatedPoint(2.0),
                           ContinuousInterval(3.0, 4.0))
        assert mid.classify(2.0) is PointClass.ISOLATED

    def test_mixed_tags(self):
        assert HYB.classify(1.0) is PointClass.LEFT_DENSE_RIGHT_SCATTERED
        ts = TimeScale.of(IsolatedPoint(-1.0), ContinuousInterval(0.0, 1.0))
        assert ts.classify(0.0) is PointClass.RIGHT_DENSE_LEFT_SCATTERED

    def test_boundary_tags_are_one_sided(self):
        assert Z30.classify(0.0) is PointClass.RIGHT_SCATTERED
        assert Z30.classify(30.0) is PointClass.LEFT_SCATTERED
        assert HYB.classify(2.0) is PointClass.LEFT_SCATTERED

    def test_interval_start_of_window_is_dense(self):
        assert HYB.classify(0.0) is PointClass.DENSE


class TestKappaDomain:
    def test_left_scattered_max_excluded(self):
        assert not Z30.in_kappa_domain(30.0)
        assert Z30.in_kappa_domain(29.0)

    def test_left_dense_max_included(self):
        ts = TimeScale.interval(0.0, 1.0)
        assert ts.in_kappa_domain(1.0)


class TestParsing:
    def test_parse_roundtrip(self):
        text = "interval 0 1\ngrid 1.5 0.5 3\npoint 4\n"
        ts = parse_timescale(text)
        assert ts.window == (0.0, 4.0)
        lines = [f"interval {s.a:g} {s.b:g}" if isinstance(s, ContinuousInterval)
                 else f"grid {s.start:g} {s.step:g} {s.count}" if isinstance(s, UniformGrid)
                 else f"point {s.t:g}" for s in ts.segments]
        again = parse_timescale("\n".join(lines))
        assert again == ts

    def test_comments_and_blank_lines(self):
        ts = parse_timescale("# header\n\ninterval 0 2  # trailing\n")
        assert ts.window == (0.0, 2.0)

    def test_bad_lines(self):
        for bad in ("interval 0", "grid 0 1", "line 3 4", "point", "interval a b"):
            with pytest.raises(ValueError):
                parse_segment(bad)


# -- randomized structural invariants ---------------------------------------


@st.composite
def timescales(draw, start=None, kinds=("interval", "grid", "point")):
    """Hybrid scales of 1-4 segments from ``kinds``, from ``start`` (drawn
    in [-5, 5] when None)."""
    if start is None:
        start = draw(st.floats(-5.0, 5.0))
    segs = []
    pos = start
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "interval":
            length = draw(st.floats(0.25, 2.0))
            segs.append(ContinuousInterval(pos, pos + length))
            pos += length
        elif kind == "grid":
            step = draw(st.floats(0.1, 1.0))
            count = draw(st.integers(2, 6))
            segs.append(UniformGrid(pos, step, count))
            pos += step * (count - 1)
        else:
            segs.append(IsolatedPoint(pos))
        pos += draw(st.floats(0.25, 1.5))  # gap to the next segment
    return TimeScale.of(*segs)


@settings(max_examples=60, deadline=None)
@given(timescales(), st.floats(0.0, 1.0))
def test_jump_operator_order(ts, frac):
    for t in _probe_points(ts, frac):
        assert ts.sigma(t) >= t
        assert ts.rho(t) <= t
        assert ts.mu(t) >= 0.0
        assert ts.mu(t) == ts.sigma(t) - t


@settings(max_examples=60, deadline=None)
@given(timescales(), st.floats(0.0, 1.0))
def test_classification_consistent_with_jumps(ts, frac):
    for t in _probe_points(ts, frac):
        cls = ts.classify(t)
        rs = ts.sigma(t) > t
        ls = ts.rho(t) < t
        if cls is PointClass.ISOLATED:
            assert rs and ls
        elif cls is PointClass.DENSE:
            assert not rs and not ls
        elif cls in (PointClass.RIGHT_SCATTERED, PointClass.LEFT_DENSE_RIGHT_SCATTERED):
            assert rs and not ls
        else:
            assert ls and not rs


@settings(max_examples=80, deadline=None)
@given(timescales(), st.data())
def test_cells_tile_the_mesh(ts, data):
    full = ts.mesh(ts.t_min, ts.t_max, max_step=0.3)
    keep = data.draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
    sub = [t for t, k in zip(full, keep) if k] or [full[0]]
    meshes = [sub, [sub[0]], [full[-1], full[-1]]]
    if ts.t_max > ts.t_min:
        meshes.append([ts.t_min, ts.t_max])
    for mesh in meshes:
        cells = list(ts.cells(mesh))
        assert ts.atoms(mesh[0], mesh[-1]) == list(ts.cells((mesh[0], mesh[-1])))
        if mesh[0] == mesh[-1]:
            assert cells == []
            continue
        assert cells[0][0] == mesh[0]
        assert cells[-1][1] == mesh[-1]
        for (_, hi, _), (lo, _, _) in zip(cells, cells[1:]):
            assert lo == hi
        ends = {hi for _, hi, _ in cells}
        assert all(t in ends for t in mesh[1:])
        for lo, hi, mu in cells:
            assert lo < hi
            if mu:
                assert hi == ts.sigma(lo)
                assert mu == ts.mu(lo)
                assert ts.rho(hi) == lo
            else:
                assert mu == 0.0
                assert ts.sigma(lo) == lo
                assert ts.rho(hi) == hi
                assert any(isinstance(s, ContinuousInterval) and s.a <= lo and hi <= s.b
                           for s in ts.segments)


def _probe_points(ts, frac):
    pts = [ts.t_min, ts.t_max]
    for seg in ts.segments:
        if isinstance(seg, ContinuousInterval):
            pts.append(seg.a + frac * (seg.b - seg.a))
        elif isinstance(seg, UniformGrid):
            pts.append(seg.point(min(seg.count - 1, 1)))
        else:
            pts.append(seg.t)
    return [ts.snap(p) for p in pts]


def _scan_locate(ts, t):
    """Reference lookup: the linear scan over every segment in order.  A t
    close to an interval's end snaps to it; any other t must lie inside."""
    for i, s in enumerate(ts.segments):
        if t < s.lo - _atol(t):
            break
        if isinstance(s, ContinuousInterval):
            if _close(t, s.a):
                return i, s.a
            if _close(t, s.b):
                return i, s.b
            if s.a <= t <= s.b:
                return i, t
        elif isinstance(s, UniformGrid):
            k = round((t - s.start) / s.step)
            if 0 <= k < s.count and _close(t, s.point(k)):
                return i, s.point(k)
        elif _close(t, s.t):
            return i, s.t
    raise PointNotInTimeScale(f"t={t!r} is not a point of the time scale")


@st.composite
def hybrid_segments(draw, start=None, kinds=("interval", "grid", "point")):
    """Up to 40 segments from ``kinds`` in increasing order from ``start``
    (drawn in [-1e4, 1e4] when None), one-point grids included, each
    touching the last exactly, within tolerance, at the tolerance plus a few
    ulps (which the sum with pos rounds to either side of it), or after a
    gap."""
    pos = draw(st.floats(-1e4, 1e4)) if start is None else start
    segs = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind == "interval":
            length = draw(st.floats(1e-3, 3.0))
            segs.append(ContinuousInterval(pos, pos + length))
            pos += length
        elif kind == "grid":
            step = draw(st.floats(1e-3, 2.0))
            count = draw(st.integers(1, 5))
            segs.append(UniformGrid(pos, step, count))
            pos += step * (count - 1)
        else:
            segs.append(IsolatedPoint(pos))
        tol = _atol(pos)
        pos += draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0 * tol),
                              st.integers(1, 4).map(lambda k: tol * (1 + k * 2**-52)),
                              st.floats(1e-3, 2.0)))
    return segs


def hybrid_scales():
    """The time scales of ``hybrid_segments``."""
    return hybrid_segments().map(lambda segs: TimeScale.of(*segs))


def _scattered(segs):
    """The points of the grids and isolated points of segs, in order, a grid's
    as start + k*step."""
    return [t for s in segs if not isinstance(s, ContinuousInterval)
            for t in _points_of(s)]


def _union_by_the_shared_point_rule(segs):
    """The dense runs and scattered points of the union of segments given in
    increasing order.  Touching intervals merge.  A point in a dense run or
    within tolerance of its end, or of the last point kept before it, is
    dropped; so is a point within tolerance of a later run's start.  A grid
    whose first point is dropped is held from its second, as
    (start + step) + k*step."""
    runs = []
    for s in segs:
        if not isinstance(s, ContinuousInterval):
            continue
        if runs and _close(s.a, runs[-1][1]):
            runs[-1] = (runs[-1][0], s.b)
        else:
            runs.append((s.a, s.b))
    points = []
    for s in segs:
        if isinstance(s, ContinuousInterval):
            continue
        pts = _points_of(s)
        if (any(a <= pts[0] and (pts[0] <= b or _close(pts[0], b)) for a, b in runs)
                or points and _close(pts[0], points[-1])):
            pts = [pts[1] + k * s.step for k in range(len(pts) - 1)] if pts[1:] else []
        points += pts
    return runs, [t for t in points if not any(_close(t, a) for a, _ in runs)]


@settings(max_examples=200, deadline=None)
@given(hybrid_segments())
def test_normalization_keeps_the_union_by_the_shared_point_rule(segs):
    ts = TimeScale.of(*segs)
    runs, points = _union_by_the_shared_point_rule(segs)
    assert [(s.a, s.b) for s in ts.segments if isinstance(s, ContinuousInterval)] == runs
    assert _scattered(ts.segments) == points
    ends = [t for run in runs for t in run] + points
    assert ts.window == (min(ends), max(ends))
    for s, n in zip(ts.segments, ts.segments[1:]):
        assert n.lo > s.hi and not _close(n.lo, s.hi)


def _brute_force_atoms(ts, a, b):
    """The cells (lo, hi, mu) of [a, b) from the sorted scattered points and
    the dense runs of ts: each dense run's part inside [a, b), and a cell from
    each scattered point or right-scattered run end in [a, b) to the next
    point where a segment starts."""
    runs = [(s.a, s.b) for s in ts.segments if isinstance(s, ContinuousInterval)]
    points = sorted(_scattered(ts.segments))
    starts = sorted(points + [lo for lo, _ in runs])
    out = [(max(lo, a), min(hi, b), 0.0) for lo, hi in runs if max(lo, a) < min(hi, b)]
    for t in points + [hi for _, hi in runs]:
        if a <= t < b:
            nxt = min(x for x in starts if x > t)
            out.append((t, nxt, nxt - t))
    return sorted(out)


@settings(max_examples=200, deadline=None)
@given(hybrid_scales(), st.data())
def test_atoms_match_the_brute_force_cells(ts, data):
    picks = [t for s in ts.segments for t in _points_of(s)]
    for _ in range(4):
        a, b = sorted(data.draw(st.lists(st.sampled_from(picks), min_size=2, max_size=2)))
        assert ts.atoms(a, b) == _brute_force_atoms(ts, a, b), (a, b)


@settings(max_examples=200, deadline=None)
@given(hybrid_scales(), st.lists(st.floats(-1.1e4, 1.1e4), max_size=5))
def test_locate_matches_the_linear_scan(ts, extra):
    for t in (math.inf, -math.inf, math.nan):  # the scan maps inf into intervals
        with pytest.raises(PointNotInTimeScale):
            ts._locate(t)
    probes = [ts.t_min - 1.0, ts.t_max + 1.0, *extra]
    probes += [0.5 * (s.hi + n.lo) for s, n in zip(ts.segments, ts.segments[1:])]
    for s in ts.segments:
        ends = [s.lo, s.hi, 0.5 * (s.lo + s.hi)]
        if isinstance(s, UniformGrid):
            ends += [s.point(k) for k in range(s.count)]
        for e in ends:
            probes += [e + f * _atol(e) for f in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
    for t in probes:
        try:
            want = _scan_locate(ts, t)
        except PointNotInTimeScale:
            with pytest.raises(PointNotInTimeScale):
                ts._locate(t)
            continue
        i, got = ts._locate(t)
        assert (i, float.hex(got)) == (want[0], float.hex(want[1])), t
        assert _is_point_of(ts.segments[i], got), t
    # a value that is exactly a point of segment k is located in segment k
    for k, s in enumerate(ts.segments):
        for e in _points_of(s):
            assert ts._locate(e) == (k, e)


def _points_of(s):
    if isinstance(s, ContinuousInterval):
        return [s.a, 0.5 * (s.a + s.b), s.b]
    if isinstance(s, UniformGrid):
        return [s.point(k) for k in range(s.count)]
    return [s.t]


def _is_point_of(s, x):
    if isinstance(s, ContinuousInterval):
        return s.a <= x <= s.b
    return x in _points_of(s)


def test_cells_reject_a_mesh_point_in_a_gap():
    ts = TimeScale.of(IsolatedPoint(0.0), ContinuousInterval(1.0, 2.0))
    with pytest.raises(DomainError):
        ts.cells((0.0, 0.5, 2.0))


@pytest.mark.parametrize("lo, length", [(0.0, 2e-12), (0.0, 1e-10), (-1e6, 1e-4),
                                        (1e6, 2.5e-6)])
def test_mesh_pieces_outlast_the_tolerance(lo, length):
    # a dense run cut into DENSE_DIVISIONS pieces, or by a tiny max_step,
    # would give points that snap together
    ts = TimeScale.of(ContinuousInterval(lo, lo + length), IsolatedPoint(lo + 1.0))
    for max_step in (None, 1e-300):
        mesh = ts.mesh(lo, lo + 1.0, max_step)
        assert [ts.snap(t) for t in mesh] == list(mesh)
        assert min(b - a for a, b in zip(mesh, mesh[1:])) > _atol(lo + length)
        assert len(ts.cells(mesh)) == len(mesh) - 1


@settings(max_examples=150, deadline=None)
@given(hybrid_scales(), st.one_of(st.none(), st.floats(0.05, 1.0)))
def test_neighbours_agree_with_the_cells_at_every_mesh_point(ts, max_step):
    mesh = ts.mesh(ts.t_min, ts.t_max, max_step)
    for lo, hi, mu in ts.cells(mesh):
        assert ts._neighbours(lo)[1:] == (lo, hi if mu else lo)
        assert ts._neighbours(hi)[:2] == (lo if mu else hi, hi)


class TestNearTouchingSegments:
    # two intervals 2.4588e-11 apart, just over the tolerance at 24.6
    A, B = 24.587868946701725, 24.587868946726314
    TS = TimeScale.of(ContinuousInterval(22.693337696701725, A),
                      ContinuousInterval(B, 27.587868946726314))

    def test_snap_never_leaves_the_scale(self):
        ts = TimeScale.interval(0.0, 1.0)
        with pytest.raises(PointNotInTimeScale):
            ts.snap(1.000000000001)  # |t - 1| is just over the tolerance
        assert ts.snap(1.0000000000005) == 1.0
        assert ts.snap(-5e-13) == 0.0

    def test_each_end_is_located_in_its_own_interval(self):
        assert len(self.TS.segments) == 2
        assert self.TS._locate(self.A) == (0, self.A)
        assert self.TS._locate(self.B) == (1, self.B)
        assert self.TS._neighbours(self.B) == (self.A, self.B, self.B)
        assert self.TS._neighbours(self.A) == (self.A, self.A, self.B)

    def test_index_of_finds_both_ends(self):
        sig = Sampled((self.A, self.B, 25.0), (0.0, 1.0, 2.0))
        assert [sig.index_of(t) for t in (self.A, self.B, 25.0)] == [0, 1, 2]
        # off a mesh point within tolerance: the nearer neighbour
        assert sig.index_of(self.B + 1e-12) == 1
        assert sig.index_of(self.A - 1e-12) == 0
        assert sig.index_of(25.0 + 1e-11) == 2
        for t in (25.0 + 1e-9, 26.0, math.inf, -math.inf, math.nan):
            with pytest.raises(PointNotInTimeScale):
                sig.index_of(t)


def _snap_then_index_value(sig, ts, t):
    """Reference read of a Sampled signal: snap t to the scale, take the
    mesh point within tolerance, else interpolate inside a dense run."""
    t = ts.snap(t)
    try:
        return sig.values[sig.index_of(t)]
    except PointNotInTimeScale:
        pass
    i = bisect_left(sig.mesh, t)
    if i == 0 or i == len(sig.mesh):
        raise PointNotInTimeScale(f"t={t!r} outside the sampled mesh")
    lo, hi = sig.mesh[i - 1], sig.mesh[i]
    w = (t - lo) / (hi - lo)
    return (1.0 - w) * sig.values[i - 1] + w * sig.values[i]


def _outcome(read, *args):
    try:
        return float.hex(read(*args))
    except PointNotInTimeScale as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(hybrid_scales(), st.integers(0, 39), st.integers(0, 39),
       st.one_of(st.none(), st.floats(0.05, 1.0)),
       st.lists(st.integers(0, 10 ** 6), max_size=40))
def test_value_at_mesh_points_matches_snap_then_index(ts, i, j, max_step, picks):
    """An exact mesh-point read by index returns what the snap-then-index
    read returns, at mesh points, off them by atol/2, inside dense cells,
    in gaps and at non-finite t."""
    segs = ts.segments
    lo, hi = sorted((segs[i % len(segs)], segs[j % len(segs)]), key=lambda s: s.lo)
    mesh = ts.mesh(lo.lo, hi.hi, max_step)
    sig = Sampled(mesh, tuple(math.sin(3.0 * k) + k for k in range(len(mesh))))
    ks = {0, len(mesh) - 1, *(p % len(mesh) for p in picks)}
    probes = [math.inf, -math.inf, math.nan, ts.t_min - 1.0, ts.t_max + 1.0]
    for k in sorted(ks):
        t = mesh[k]
        probes += [t, t - 0.5 * _atol(t), t + 0.5 * _atol(t)]
        if k + 1 < len(mesh):
            probes.append(0.5 * (t + mesh[k + 1]))  # dense interior or a gap
    probes += [0.5 * (s.hi + n.lo) for s, n in zip(segs, segs[1:])]
    for t in probes:
        assert (_outcome(value, sig, ts, t)
                == _outcome(_snap_then_index_value, sig, ts, t)), t


def test_value_at_a_stored_point_needs_no_lookup(monkeypatch):
    sig = Sampled(HYB.mesh(0.0, 2.0), tuple(range(258)))
    calls = []
    monkeypatch.setattr(TimeScale, "_locate",
                        lambda self, t: calls.append(t) or (0, t))
    assert [value(sig, HYB, t) for t in sig.mesh] == list(sig.values)
    assert calls == []


def test_value_reads_an_off_scale_mesh_point_by_index():
    # a hand-built mesh may hold a point the scale lacks: it reads by index
    # (the snap-then-index read raised there), while other off-scale t raise
    sig = Sampled((0.0, 0.5, 1.0), (1.0, 2.0, 3.0))
    assert value(sig, Z30, 0.5) == 2.0
    with pytest.raises(PointNotInTimeScale):
        _snap_then_index_value(sig, Z30, 0.5)
    with pytest.raises(PointNotInTimeScale):
        value(sig, Z30, 0.25)
