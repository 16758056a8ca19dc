"""Hybrid time scales: closed subsets of the reals built from intervals,
uniform grids and isolated points on a bounded working window.

A time scale supplies the jump operators sigma/rho, the graininess mu,
point classification, and the one cell walk (``TimeScale.cells``) over
scattered points and dense runs that every kernel loop of the calculus
layer is built on; ``TimeScale.atoms`` gives the same (lo, hi, mu) cell
format with each dense run left whole.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence, Union

from ._record import record
from .errors import DomainError, PointNotInTimeScale

#: Relative tolerance for deciding that a float coincides with a lattice point.
MEMBERSHIP_RTOL = 1e-12

#: Default number of subdivisions of a continuous interval for sampled meshes.
DENSE_DIVISIONS = 256


def _atol(t: float) -> float:
    return MEMBERSHIP_RTOL * max(1.0, abs(t))


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= MEMBERSHIP_RTOL * max(1.0, abs(x), abs(y))


@record
class ContinuousInterval:
    """A closed real interval [a, b] with b > a, its ends not within the
    membership tolerance of each other."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if self.b <= self.a:
            raise ValueError(f"interval needs b > a, got [{self.a}, {self.b}]")
        if _close(self.a, self.b):
            raise ValueError(f"interval [{self.a}, {self.b}] is no longer than "
                             f"the membership tolerance")

    @property
    def lo(self) -> float:
        return self.a

    @property
    def hi(self) -> float:
        return self.b


@record
class UniformGrid:
    """Points start, start+step, ..., start+(count-1)*step with step > 0,
    no two of them within the membership tolerance of each other."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if self.count < 1:
            raise ValueError("grid needs at least one point")
        # the tolerance grows with |t|, so the tightest pair is at an end
        if self.count > 1 and math.isfinite(self.hi) and (
                _close(self.start, self.point(1))
                or _close(self.point(self.count - 2), self.hi)):
            raise ValueError(f"grid step {self.step!r} is no longer than the "
                             f"membership tolerance")

    def point(self, k: int) -> float:
        return self.start + k * self.step

    @property
    def lo(self) -> float:
        return self.start

    @property
    def hi(self) -> float:
        return self.point(self.count - 1)


@record
class IsolatedPoint:
    """A single point."""

    t: float

    @property
    def lo(self) -> float:
        return self.t

    @property
    def hi(self) -> float:
        return self.t


Segment = Union[ContinuousInterval, UniformGrid, IsolatedPoint]


def _member(s: Segment, t: float) -> float | None:
    """The point of segment s that t coincides with, or None.

    A t near an interval's end snaps to that end by the same ``_close``
    test as a lattice point, and any other t must lie inside [a, b], so
    the result is always a point of s.
    """
    if isinstance(s, ContinuousInterval):
        if _close(t, s.a):
            return s.a
        if _close(t, s.b):
            return s.b
        if s.a <= t <= s.b:
            return t
    elif isinstance(s, UniformGrid):
        k = round((t - s.start) / s.step)
        if 0 <= k < s.count and _close(t, s.point(k)):
            return s.point(k)
    elif _close(t, s.t):
        return s.t
    return None


class PointClass(Enum):
    """Classification of a point by the behavior of sigma and rho.

    Interior points get the two-sided tags; at the window boundary the
    convention sigma(max)=max, rho(min)=min says nothing about density,
    so the bare one-sided tags are used there.
    """

    DENSE = "dense"
    RIGHT_SCATTERED = "right-scattered"
    LEFT_SCATTERED = "left-scattered"
    ISOLATED = "isolated"
    RIGHT_DENSE_LEFT_SCATTERED = "right-dense-left-scattered"
    LEFT_DENSE_RIGHT_SCATTERED = "left-dense-right-scattered"


def _without_end(s: UniformGrid | IsolatedPoint, first: bool) -> list[Segment]:
    """A grid or point without its first (or else its last) point."""
    if isinstance(s, IsolatedPoint):
        return []
    start = s.point(1) if first else s.start
    return [UniformGrid(start, s.step, s.count - 1) if s.count > 2 else IsolatedPoint(start)]


def _normalize(segments: Iterable[Segment]) -> tuple[Segment, ...]:
    segs: list[Segment] = []
    for s in segments:
        if not (math.isfinite(s.lo) and math.isfinite(s.hi)):
            raise ValueError(f"segment {s!r} has a non-finite point")
        if isinstance(s, UniformGrid) and s.count == 1:
            s = IsolatedPoint(s.start)
        segs.append(s)
    if not segs:
        raise ValueError("a time scale needs at least one segment")
    segs.sort(key=lambda s: s.lo)

    out: list[Segment] = segs[:1]
    for cur in segs[1:]:
        prev = out[-1]
        if cur.lo > prev.hi and not _close(cur.lo, prev.hi):
            out.append(cur)
            continue
        if cur.lo < prev.hi and not _close(cur.lo, prev.hi):
            raise ValueError(f"segments overlap near t={cur.lo!r}")
        # They share a point: two intervals merge, a later interval takes it
        # from a grid or point, and any other later segment gives it up.
        if not isinstance(cur, ContinuousInterval):
            out += _without_end(cur, first=True)
        elif isinstance(prev, ContinuousInterval):
            out[-1] = ContinuousInterval(prev.a, cur.b)
        else:
            out[-1:] = [*_without_end(prev, first=False), cur]
    return tuple(out)


@record
class TimeScale:
    """An ordered union of disjoint segments; its bounded window runs from
    the first segment's lo to the last one's hi.

    Instances are immutable; every method is a pure function of its
    arguments, so concurrent use needs no synchronization.
    """

    segments: tuple[Segment, ...]

    # -- construction -----------------------------------------------------

    @classmethod
    def of(cls, *segments: Segment) -> "TimeScale":
        return cls(_normalize(segments))

    @classmethod
    def interval(cls, a: float, b: float) -> "TimeScale":
        return cls.of(ContinuousInterval(a, b))

    @classmethod
    def grid(cls, start: float, step: float, count: int) -> "TimeScale":
        """Uniform grid: start, start+step, ..., start+(count-1)*step."""
        return cls.of(UniformGrid(start, step, count))

    @classmethod
    def integers(cls, lo: int, hi: int) -> "TimeScale":
        """The integers lo..hi inclusive."""
        return cls.grid(float(lo), 1.0, hi - lo + 1)

    # -- membership -------------------------------------------------------

    @property
    def window(self) -> tuple[float, float]:
        return self.t_min, self.t_max

    @property
    def t_min(self) -> float:
        return self.segments[0].lo

    @property
    def t_max(self) -> float:
        return self.segments[-1].hi

    @cached_property
    def _los(self) -> tuple[float, ...]:
        return tuple(s.lo for s in self.segments)

    def _locate(self, t: float) -> tuple[int, float]:
        """Return (segment index, snapped point) or raise PointNotInTimeScale.

        The first segment, in order, with lo - atol(t) <= t that holds t
        within tolerance wins.  Segments are disjoint and sorted, so
        bisection bounds the candidates and the search walks back only over
        segments that end near t.  No non-finite t is a point.
        """
        if not math.isfinite(t):
            raise PointNotInTimeScale(f"t={t!r} is not a point of the time scale")
        atol = _atol(t)
        found = None
        for i in range(bisect_right(self._los, t + 2.0 * atol) - 1, -1, -1):
            s = self.segments[i]
            if s.hi < t - 4.0 * atol:
                break
            snapped = _member(s, t) if t >= s.lo - atol else None
            if snapped is not None:
                found = i, snapped
        if found is None:
            raise PointNotInTimeScale(f"t={t!r} is not a point of the time scale")
        return found

    def __contains__(self, t: float) -> bool:
        try:
            self._locate(t)
            return True
        except PointNotInTimeScale:
            return False

    def snap(self, t: float) -> float:
        """Canonical representative of t (exact lattice value), or raise."""
        return self._locate(t)[1]

    # -- jump operators ---------------------------------------------------

    def _neighbours(self, t: float) -> tuple[float, float, float]:
        """(rho(t), t, sigma(t)) for the snapped t, from one lookup."""
        i, t = self._locate(t)
        s = self.segments[i]
        before = self.segments[i - 1].hi if i > 0 else t
        after = self.segments[i + 1].lo if i + 1 < len(self.segments) else t
        if isinstance(s, ContinuousInterval):
            if t > s.a:
                before = t
            if t < s.b:
                after = t
        elif isinstance(s, UniformGrid):
            k = round((t - s.start) / s.step)
            if k > 0:
                before = s.point(k - 1)
            if k < s.count - 1:
                after = s.point(k + 1)
        return before, t, after

    def sigma(self, t: float) -> float:
        """Forward jump: the nearest point strictly after t, or t at the max."""
        return self._neighbours(t)[2]

    def rho(self, t: float) -> float:
        """Backward jump: the nearest point strictly before t, or t at the min."""
        return self._neighbours(t)[0]

    def mu(self, t: float) -> float:
        """Graininess sigma(t) - t."""
        _, t, after = self._neighbours(t)
        return after - t

    def classify(self, t: float) -> PointClass:
        before, t, after = self._neighbours(t)
        right_scattered = after > t
        left_scattered = before < t
        if right_scattered and left_scattered:
            return PointClass.ISOLATED
        if not right_scattered and not left_scattered:
            return PointClass.DENSE
        if right_scattered:
            if t == self.t_min:
                return PointClass.RIGHT_SCATTERED
            return PointClass.LEFT_DENSE_RIGHT_SCATTERED
        if t == self.t_max:
            return PointClass.LEFT_SCATTERED
        return PointClass.RIGHT_DENSE_LEFT_SCATTERED

    def in_kappa_domain(self, t: float) -> bool:
        """Whether t belongs to the delta-differentiation domain.

        The left-scattered maximum of a bounded window is excluded.
        """
        before, t, _ = self._neighbours(t)
        return t < self.t_max or before == t  # the max only if left-dense

    # -- structure walks --------------------------------------------------

    def atoms(self, a: float, b: float) -> list[tuple[float, float, float]]:
        """The cells (lo, hi, mu) of [a, b) with dense runs left whole.

        A scattered point t gives (t, sigma(t), mu(t)); a maximal dense run
        gives (lo, hi, 0.0).  Each hi is the exact lo of the next cell, or b.
        """
        a = self.snap(a)
        b = self.snap(b)
        if b < a:
            raise ValueError(f"need a <= b, got a={a}, b={b}")
        out: list[tuple[float, float, float]] = []
        if a == b:
            return out
        for i, s in enumerate(self.segments):
            if s.hi < a and not _close(s.hi, a):
                continue
            if s.lo >= b:
                break
            nxt = self.segments[i + 1].lo if i + 1 < len(self.segments) else None
            if isinstance(s, ContinuousInterval):
                lo, hi = max(s.a, a), min(s.b, b)
                if hi > lo:
                    out.append((lo, hi, 0.0))
                if a <= s.b < b:
                    out.append((s.b, nxt, nxt - s.b))
            elif isinstance(s, UniformGrid):
                start, step = s.start, s.step
                # a is a point of this grid or lies before it
                k_lo = max(0, math.ceil((a - start) / step - 0.5))
                # the points from k_lo up to the first at or past b, then
                # nxt after the grid's last point
                k_hi = min(s.count, max(k_lo, math.ceil((b - start) / step)) + 2)
                pts = [start + k * step for k in range(k_lo, k_hi)]
                n = bisect_left(pts, b)  # the points before b
                if k_hi == s.count:
                    pts.append(nxt)
                out += [(t, hi, hi - t) for t, hi in zip(pts[:n], pts[1:n + 1])]
            elif a <= s.t < b:
                out.append((s.t, nxt, nxt - s.t))
        return out

    def cells(self, mesh: Sequence[float]) -> list[tuple[float, float, float]]:
        """The cells (lo, hi, mu) of [mesh[0], mesh[-1]), in order.

        These are the cells of ``atoms`` with every dense run cut at the
        mesh points inside it.  The cells tile the span, and every mesh
        point after the first is the hi of a cell; a one-point span
        (mesh[0] == mesh[-1]) has none.  The mesh must be increasing
        canonical points (as ``snap`` and ``mesh`` return them); one in the
        gap before an atom raises DomainError.
        """
        out: list[tuple[float, float, float]] = []
        k = 1  # next mesh point not yet passed
        for lo, hi, mu in self.atoms(mesh[0], mesh[-1]):
            if mesh[k] < lo:
                raise DomainError(f"mesh point {mesh[k]!r} is not a point of the scale")
            if not mu:
                while mesh[k] < hi:
                    out.append((lo, mesh[k], 0.0))
                    lo = mesh[k]
                    k += 1
            out.append((lo, hi, mu))
            if mesh[k] == hi:
                k += 1
        return out

    def mesh(self, a: float, b: float, max_step: float | None = None) -> tuple[float, ...]:
        """All scattered points of [a, b] plus subdivided dense runs.

        Each dense run is split uniformly; by default into pieces no longer
        than the run's length divided by DENSE_DIVISIONS, and into no more than
        length / (2 * tol) pieces, tol the largest membership tolerance on
        the run, so that no two points of the mesh snap together.
        """
        a = self.snap(a)
        b = self.snap(b)
        pts: list[float] = []
        for lo, hi, mu in self.atoms(a, b):
            if mu:
                pts.append(lo)
            else:
                length = hi - lo
                step = max_step if max_step is not None else length / DENSE_DIVISIONS
                n = max(1, min(math.ceil(length / step - 1e-9),
                               int(length / (2.0 * _atol(max(abs(lo), abs(hi)))))))
                pts.extend(lo + j * (length / n) for j in range(n))
        pts.append(b)
        return tuple(pts)

    def graininess_values(self) -> tuple[float, ...]:
        """Distinct positive graininess values over the kappa domain."""
        vals: set[float] = set()
        for i, s in enumerate(self.segments):
            if isinstance(s, UniformGrid) and s.count >= 2:
                vals.add(s.step)
            if i + 1 < len(self.segments):
                vals.add(self.segments[i + 1].lo - s.hi)
        return tuple(sorted(vals))


# -- plain-text description ------------------------------------------------
#
# One segment per line:  "interval a b" | "grid start step count" | "point t"


def parse_segment(line: str) -> Segment:
    parts = line.split()
    kind = parts[0].lower()
    if kind == "interval" and len(parts) == 3:
        return ContinuousInterval(float(parts[1]), float(parts[2]))
    if kind == "grid" and len(parts) == 4:
        return UniformGrid(float(parts[1]), float(parts[2]), int(parts[3]))
    if kind == "point" and len(parts) == 2:
        return IsolatedPoint(float(parts[1]))
    raise ValueError(f"bad segment description: {line!r}")


def parse_timescale(text: str) -> TimeScale:
    segs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            segs.append(parse_segment(line))
    return TimeScale.of(*segs)

