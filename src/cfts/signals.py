"""Real-valued signals over a time scale.

Two representations: a Closure wraps a callable (optionally with an exact
ordinary-derivative callable used at dense points), a Sampled signal stores
values on a mesh and interpolates linearly inside continuous intervals.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Union

from .errors import DenseDerivativeUnavailable, PointNotInTimeScale
from .timescale import TimeScale, _atol


@dataclass(frozen=True)
class Closure:
    """Signal given by a function t -> value.

    ``derivative``, when present, is the exact ordinary derivative; it is
    consulted only at dense points (scattered points always use the exact
    difference quotient).
    """

    func: Callable[[float], float]
    derivative: Callable[[float], float] | None = None

    def __call__(self, t: float) -> float:
        return self.func(t)


@dataclass(frozen=True)
class Sampled:
    """Signal stored on an increasing mesh of time-scale points."""

    mesh: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.mesh) != len(self.values):
            raise ValueError("mesh and values must have equal length")
        if any(b <= a for a, b in zip(self.mesh, self.mesh[1:])):
            raise ValueError("mesh must be strictly increasing")

    def index_of(self, t: float) -> int:
        """The index of mesh point t: an exact match, else the nearer of
        its two neighbours (the lower on a tie) if within ``_atol(t)``.
        No non-finite t is a mesh point."""
        mesh = self.mesh
        i = bisect_left(mesh, t)
        if i < len(mesh) and mesh[i] == t:
            return i
        j = min((j for j in (i - 1, i) if 0 <= j < len(mesh)),
                key=lambda j: abs(mesh[j] - t), default=None)
        if j is not None and abs(mesh[j] - t) <= _atol(t) < math.inf:
            return j
        raise PointNotInTimeScale(f"t={t!r} is not a mesh point")

    def between(self, lo: float, hi: float) -> tuple[float, ...]:
        """Mesh points m with lo < m < hi, found by bisection."""
        return self.mesh[bisect_right(self.mesh, lo):bisect_left(self.mesh, hi)]


Signal = Union[Closure, Sampled]


def as_signal(f) -> Signal:
    """Coerce a plain callable or constant into a Signal."""
    if isinstance(f, (Closure, Sampled)):
        return f
    if callable(f):
        return Closure(f)
    return constant(f)


def constant(c: float) -> Closure:
    c = float(c)
    return Closure(lambda t: c, derivative=lambda t: 0.0)


def value(sig: Signal, ts: TimeScale, t: float) -> float:
    """Evaluate a signal at a time-scale point.

    A Sampled signal read at one of its own mesh points (t equal to a
    stored mesh value) returns the stored value by index, with no segment
    lookup.  Any other t is snapped to the scale first, then read at the
    mesh point within tolerance, or interpolated linearly between
    neighboring mesh points when it falls strictly inside a dense run.
    """
    if isinstance(sig, Closure):
        return sig.func(t)
    i = bisect_left(sig.mesh, t)
    if i < len(sig.mesh) and sig.mesh[i] == t:
        return sig.values[i]
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


def sample(ts: TimeScale, f: Callable[[float], float], a: float, b: float,
           max_step: float | None = None) -> Sampled:
    """Tabulate f on the canonical mesh of [a, b]."""
    mesh = ts.mesh(a, b, max_step)
    return Sampled(mesh, tuple(f(t) for t in mesh))


def sampled_slope(sig: Sampled, ts: TimeScale, t: float) -> float:
    """Derivative estimate at a dense mesh point from neighboring samples.

    Uses the centered secant when both neighbors exist, a one-sided secant
    at a run boundary.  Raises when no neighbor is available.
    """
    i = sig.index_of(t)
    lo = i - 1 if i > 0 and ts.rho(sig.mesh[i]) == sig.mesh[i] else i
    hi = i + 1 if i + 1 < len(sig.mesh) and ts.sigma(sig.mesh[i]) == sig.mesh[i] else i
    if hi == lo:
        raise DenseDerivativeUnavailable(
            f"no dense-side samples around t={t!r} to form a derivative")
    return (sig.values[hi] - sig.values[lo]) / (sig.mesh[hi] - sig.mesh[lo])
