"""Real-valued signals over a time scale.

Two representations: a Closure wraps a callable (optionally with an exact
ordinary-derivative callable used at dense points, and an exact kernel
integral used on dense cells), a Sampled signal stores values on a mesh and
interpolates linearly inside continuous intervals.

``constant`` and ``sine`` (the config's ``constant`` and ``sin`` forcings)
carry the kernel integral in closed form: integral_lo^hi u(tau)
exp(p*(hi - tau)) dtau is d*phi1(z) with d = hi - lo and z = p*d, times c,
or the imaginary part of amp*exp(i*(freq*hi + phase))*d*phi1(z) with
z = (p - i*freq)*d, where phi1(z) = (e^z - 1)/z is the weight of
exponential integrators (Hochbruck & Ostermann, Acta Numerica 19, 2010).
Their derivatives are Closures too, with the same closed forms (0, and the
real part of amp*freq*exp(i*(freq*hi + phase))*d*phi1(z)), so the
fractional operators integrate them on dense cells without quadrature.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import le
from typing import Callable, Sequence, Union

from ._record import keep_last, record
from .errors import DenseDerivativeUnavailable, PointNotInTimeScale
from .timescale import TimeScale, _atol


@record
class Closure:
    """Signal given by a function t -> value.

    ``derivative``, when present, is the exact ordinary derivative, a
    callable or a Closure (whose kernel integral the fractional operators
    then use); it is consulted only at dense points (scattered points
    always use the exact difference quotient).
    ``kernel_integral(lo, hi, p)``, when present, is the exact
    integral_lo^hi func(tau) exp(p*(hi - tau)) dtau over a dense cell, used
    there in place of quadrature.
    """

    func: Callable[[float], float]
    derivative: Callable[[float], float] | None = None
    kernel_integral: Callable[[float, float, float], float] | None = None

    def __call__(self, t: float) -> float:
        return self.func(t)


@record
class Sampled:
    """Signal stored on an increasing mesh of time-scale points."""

    mesh: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.mesh) != len(self.values):
            raise ValueError("mesh and values must have equal length")
        if any(map(le, self.mesh[1:], self.mesh)):
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


def _phi1(z: complex) -> complex:
    """(e^z - 1)/z, 1 at z = 0; e^z - 1 is formed as
    (expm1(x)*cos(y) - 2*sin(y/2)**2) + i*e^x*sin(y), which loses no digits
    to cancellation when |z| is small."""
    if not z:
        return 1.0
    x, y = z.real, z.imag
    return complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
                   math.exp(x) * math.sin(y)) / z


#: The derivative of a constant, with its zero kernel integral.
_ZERO = Closure(lambda t: 0.0, kernel_integral=lambda lo, hi, p: 0.0)


def constant(c: float) -> Closure:
    c = float(c)

    def kernel_integral(lo, hi, p):
        d = hi - lo
        return c * d * _phi1(p * d).real

    return Closure(lambda t: c, derivative=_ZERO, kernel_integral=kernel_integral)


def sine(amp: float, freq: float, phase: float) -> Closure:
    """amp*sin(freq*t + phase), with its derivative and kernel integral.

    A phase freq*t + phase, or a cell's turn freq*(hi - lo), that is not
    finite raises OverflowError (math.sin and math.cos raise ValueError).
    """

    def wave(trig, scale):
        def at(t):
            try:
                return scale * trig(freq * t + phase)
            except ValueError:
                raise OverflowError(f"the sine phase at t={t!r} is not finite") from None
        return at

    def turn(lo, hi, p):
        """sin and cos of the phase at hi, and d*phi1((p - i*freq)*d), d = hi - lo."""
        d = hi - lo
        theta = freq * hi + phase
        try:
            return (math.sin(theta), math.cos(theta),
                    d * _phi1(complex(p * d, -freq * d)))
        except ValueError:
            raise OverflowError(f"the sine phase on [{lo!r}, {hi!r}] is not finite"
                                ) from None

    def kernel_integral(lo, hi, p):
        s, c, w = turn(lo, hi, p)
        return amp * (s * w.real + c * w.imag)

    def slope_kernel_integral(lo, hi, p):
        s, c, w = turn(lo, hi, p)
        return amp * freq * (c * w.real - s * w.imag)

    slope = Closure(wave(math.cos, amp * freq), kernel_integral=slope_kernel_integral)
    return Closure(wave(math.sin, amp), derivative=slope, kernel_integral=kernel_integral)


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


def _column(sig: Signal, ts: TimeScale, points: tuple[float, ...]) -> Sequence[float]:
    """sig at each of the points: its stored values when sig is sampled on
    exactly these points, else one ``value`` read per point, kept for the
    next call with the same signal and points, so that the trajectory,
    residual and classical walks of one scenario read its forcing once."""
    if isinstance(sig, Sampled) and sig.mesh == points:
        return sig.values
    return _read(sig, ts, points)


@keep_last
def _read(sig: Signal, ts: TimeScale, points: tuple[float, ...]) -> tuple[float, ...]:
    """``value`` of sig at each of the points."""
    return tuple([value(sig, ts, t) for t in points])


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
