"""Exponential-stability classification of the linear fractional equation.

With K = 1 - lambda*(1-alpha) and p = lambda*alpha/K, stability is
membership of p in the stability set of the time scale: for a step-h grid
the real slice of the Hilger disc, p in (-2/h, 0); for the reals,
Re p < 0, which in terms of lambda reads "lambda < 0 or
lambda > 1/(1-alpha)".  The reals are the step-0 case of the one grid
classifier: as h -> 0 the edge -2/h of the disc goes to -inf.  A windowed
average of log|1 + mu*p|/mu, a sum on the kernel march, provides
finite-horizon numeric evidence for general hybrid scales.

Everything that depends only on (alpha, h) -- the validation, the branch,
the thresholds, their bounds tuples and their bands -- is computed once
per pair in a small cache, so that a sweep over lambda pays only for K, p
and the comparisons.  "On a boundary" means within BOUNDARY_TOL of it:
absolute at 0, relative (BOUNDARY_TOL * max(1, |x|, |y|)) at a finite
nonzero threshold y, tested to the bit as |x - y| <= band or
|x - y| <= BOUNDARY_TOL * |x| with the band BOUNDARY_TOL * max(1, |y|).
Nothing is on an infinite threshold, and a non-finite x is never on a
boundary, so an overflowed 1 + h*p (h near the float maximum) is
classified by the sign tests instead of being reported as a regressivity
violation.

A sweep classifies one (alpha, h) block by its cells.  The verdict
changes only near a few cut points: in lambda 0 and the threshold -2/A
(A = h*alpha - 2(1-alpha)); in p 0, the edge -2/h and the S_R point -1/h
(on the reals, the grid of step 0, the edge and the S_R point lie at
-inf and the threshold -2/A is the pole 1/(1-alpha)).  The pole needs no
cut: a row whose K is within BOUNDARY_TOL of 0 has p NaN, and p changes
sign across the pole, so its two sides lie in different p-regions.  Each
finite cut c gets the band c +- 1e3 * BOUNDARY_TOL * max(1, |c|), and
overlapping bands are merged.  A row whose lambda and p both lie outside
every band is 1000 times further from each boundary test than the test
reaches (|x - y| <= BOUNDARY_TOL * max(1, |y|) or BOUNDARY_TOL * |x|,
|K| <= BOUNDARY_TOL, |1 + h*p| <= BOUNDARY_TOL), so the classifier ends
at its last line, the test of p against the edge and 0: the p-region
fixes the status and the lambda-region the bounds.  Such a row takes the
verdict of the first row of its (lambda-region, p-region) cell; every
row inside a band, or with p NaN, is classified on its own.  The rows
are walked in runs of one cell, and only the row that leaves the
previous row's cell is looked up, so a sorted sweep pays a few lookups
per block and any other order stays exact.  A block is returned as those
runs, (stop, verdict index) pairs, so that the table lays out each run's
verdict columns with one slice assignment instead of one string per row.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .calculus import _first_killed, _walk, kernel_march
from .errors import DomainError, NonRegressiveParameter
from .timescale import TimeScale

#: Absolute tolerance for "sits exactly on an interval endpoint".
BOUNDARY_TOL = 1e-12

STABLE = "stable"
UNSTABLE = "unstable"
BOUNDARY = "boundary"
REGRESSIVITY_VIOLATION = "regressivity-violation"

IN_SC = "in-S_C"
IN_SR = "in-S_R"
OUTSIDE = "outside"


class StabilityVerdict(NamedTuple):
    """Outcome of classifying one (lambda, alpha, scale) triple.

    ``boundary_values`` are the endpoints of the lambda-interval that
    decided the verdict (math.inf endpoints for unbounded sides).
    ``p_alpha`` depends on lambda and alpha only, never on the scale, and
    is NaN when K vanishes.
    """

    status: str
    mechanism: str
    p_alpha: float
    boundary_values: tuple[float, float]
    branch: str = ""


_NO_BOUNDS = (math.nan, math.nan)


class _Block(NamedTuple):
    """The classifier of one (alpha, h) pair or one alpha, as a function of
    lambda, and the sorted flat [lo, hi, lo, hi, ...] bounds of its
    disjoint lambda- and p-bands (see ``_bands``)."""

    classify: Callable[[float], StabilityVerdict]
    lam_bands: list[float]
    p_bands: list[float]


def _bands(*cuts: float) -> list[float]:
    """The bands c +- 1e3 * BOUNDARY_TOL * max(1, |c|) of the finite cuts,
    overlapping ones merged, as a sorted flat [lo, hi, lo, hi, ...] list:
    a value lies inside a band iff its ``bisect`` index is odd."""
    flat: list[float] = []
    # c - w increases with c, so the bands come in order of their low ends
    for c in sorted(c for c in cuts if math.isfinite(c)):
        w = 1e3 * BOUNDARY_TOL * max(1.0, abs(c))
        if flat and c - w <= flat[-1]:
            flat[-1] = max(flat[-1], c + w)
        else:
            flat += [c - w, c + w]
    return flat


def _band(y: float) -> float:
    """BOUNDARY_TOL * max(1, |y|) for a finite threshold y; -1.0, which no
    distance is within, for an infinite one."""
    return BOUNDARY_TOL * max(1.0, abs(y)) if math.isfinite(y) else -1.0


@functools.lru_cache(maxsize=64)
def _block(alpha: float, h: float | None) -> _Block:
    """The classifier of one (alpha, h) pair and its bands, h None for the
    reals; raises DomainError for an alpha or h out of range.

    The reals are the grid of step 0: the edge -2/h and the S_R point -1/h
    sit at -inf, 1 + 0*p never vanishes, and A = -2(1-alpha) puts them on
    branch (b) with thr = 1/(1-alpha) exactly.  What is left per scale is
    fixed here: the bounds of a vanishing K, the branch label and whether
    p near 0 is a boundary.
    """
    abar = 1.0 - alpha
    if h is None:
        if not 0.0 < alpha < 1.0:
            raise DomainError("classify_r needs alpha in (0, 1)")
        # lambda == 1/(1-alpha), where K vanishes, is exactly the upper
        # stability boundary; p_tol -1.0 puts no p on the boundary
        step, edge, sr, p_tol = 0.0, -math.inf, -math.inf, -1.0
        label, k_bounds = "continuous", (1.0 / abar, math.inf)
    elif not 0.0 < h < math.inf:
        raise DomainError(f"grid step h must be {'finite' if h > 0.0 else 'positive'}")
    elif not 0.0 < alpha <= 1.0:
        raise DomainError("classify_hz needs alpha in (0, 1]")
    else:
        step, edge, sr, p_tol = h, -2.0 / h, -1.0 / h, BOUNDARY_TOL
        label, k_bounds = "", _NO_BOUNDS
    A = step * alpha - 2.0 * abar
    edge_band = _band(edge)
    on_a = A > 0.0
    # branch (a) is stable on (cut, 0), branch (b) off [0, cut]
    cut = -2.0 / A if A else math.inf
    cut_band = _band(cut)
    branch = label or ("a" if on_a else "b")
    bounds_a = (cut, 0.0)
    below, above, between = (-math.inf, 0.0), (cut, math.inf), (0.0, cut)

    def classify(lam: float) -> StabilityVerdict:
        if not math.isfinite(lam):
            raise DomainError("lambda must be finite")
        K = 1.0 - lam * abar
        if -BOUNDARY_TOL <= K <= BOUNDARY_TOL:
            return StabilityVerdict(REGRESSIVITY_VIOLATION, OUTSIDE, math.nan,
                                    k_bounds, branch)
        p = lam * alpha / K
        if -BOUNDARY_TOL <= 1.0 + step * p <= BOUNDARY_TOL:
            return StabilityVerdict(REGRESSIVITY_VIOLATION, IN_SR, p,
                                    _NO_BOUNDS, branch)
        if on_a:
            bounds = bounds_a
        elif lam < 0.0:
            bounds = below
        else:
            bounds = above if lam > cut else between
        # lam is finite, so |lam - y| <= BOUNDARY_TOL * |lam| fails at an
        # infinite threshold y; on branch (b) a negative lam is more than
        # cut >= 1 away from it
        d = abs(lam - cut)
        on_edge = d <= cut_band or d <= BOUNDARY_TOL * abs(lam)
        # p overflows when K is barely outside the tolerance; "< math.inf"
        # keeps an infinite p off the edge
        d = abs(p - edge)
        if (on_edge or -BOUNDARY_TOL <= lam <= BOUNDARY_TOL
                or -p_tol <= p <= p_tol
                or d <= edge_band or d <= BOUNDARY_TOL * abs(p) < math.inf):
            return StabilityVerdict(BOUNDARY, OUTSIDE, p, bounds, branch)
        # the sign of p, read from lam and K: p itself underflows to -0.0
        # for a subnormal alpha
        stable = edge < p and (lam < 0.0) != (K < 0.0)
        return StabilityVerdict(STABLE if stable else UNSTABLE,
                                IN_SC if stable else OUTSIDE, p, bounds, branch)

    return _Block(classify, _bands(0.0, cut), _bands(0.0, edge, sr))


def classify_hz(lam: float, alpha: float, h: float) -> StabilityVerdict:
    """Classify the equation on the step-h grid.

    Branch (a), h > 2(1/alpha - 1): stable iff
    lambda in (-2/(h*alpha - 2(1-alpha)), 0).
    Branch (b), h <= 2(1/alpha - 1): stable iff lambda < 0 or
    lambda > 2/(2(1-alpha) - h*alpha).  Both are the real Hilger-circle
    condition p in (-2/h, 0).  Raises TypeError for h None: the reals
    are ``classify_r``'s.
    """
    if h is None:
        raise TypeError("classify_hz needs a grid step h; classify_r classifies the reals")
    return _block(alpha, h).classify(lam)


def classify_r(lam: float, alpha: float) -> StabilityVerdict:
    """Classify the equation on the reals: stable iff lambda < 0 or
    lambda > 1/(1-alpha), equivalently p(alpha) < 0 with K nonzero."""
    return _block(alpha, None).classify(lam)


def _p_column(lams: Sequence[float], alpha: float) -> list[float]:
    """p(alpha) of each lambda, NaN where K is within BOUNDARY_TOL of 0:
    the classifiers' own expression, so bit for bit their p_alpha."""
    abar = 1.0 - alpha
    return [math.nan if -BOUNDARY_TOL <= (K := 1.0 - lam * abar) <= BOUNDARY_TOL
            else lam * alpha / K for lam in lams]


def _classify_block(lams: Sequence[float], ps: Sequence[float], alpha: float,
                    h: float | None) -> tuple[list[StabilityVerdict], list[tuple[int, int]]]:
    """Classify the lambdas of one (alpha, h) block (h None: the reals) by
    their cells; ``ps`` is ``_p_column(lams, alpha)``.

    Returns the distinct verdicts and their runs, a list of
    (stop, verdict index): each run is the rows from the previous stop (0
    for the first) up to ``stop``.  The stops strictly increase and end at
    ``len(lams)``, and adjacent runs have different verdicts, so a sorted
    sweep is a handful of runs and the caller lays out each run's columns
    at once instead of row by row.  A row inside a band, or with p NaN,
    gets its own ``classify_hz`` / ``classify_r`` call and its own run;
    every other row shares the verdict of the first row of its cell.
    Every field but p_alpha is the row's own; its p_alpha is ``ps[row]``.

    The rows are walked in runs: while a row lies in the bounds of the
    previous row's cell it joins that cell with two chained comparisons,
    and only the row that ends a run is keyed by ``bisect``.  The cell
    bounds are the bands' ends padded with -inf and +inf, and
    ``lo <= x < hi`` is the bisect-right test, so a run never crosses a
    cell edge whatever the row order; a NaN p fails it and is keyed.
    """
    block = _block(alpha, h)
    lam_bands, p_bands = block.lam_bands, block.p_bands
    lb = [-math.inf, *lam_bands, math.inf]
    pb = [-math.inf, *p_bands, math.inf]
    verdicts: list[StabilityVerdict] = []
    runs: list[tuple[int, int]] = []
    # (i, j) -> (verdict index, lambda bounds, p bounds) of the cell
    cells: dict[tuple[int, int] | None, tuple[int, float, float, float, float]] = {}
    nan = math.nan
    k, lo, hi, plo, phi = -1, nan, nan, nan, nan
    # the row number as a third column: cheaper per row than enumerate
    for lam, p, r in zip(lams, ps, range(len(lams))):
        if not (lo <= lam < hi and plo <= p < phi):
            i, j = bisect(lam_bands, lam), bisect(p_bands, p)
            key = None if i & 1 or j & 1 or p != p else (i, j)
            cell = cells.get(key)
            if cell is None:
                # a band row gets NaN bounds, so that the next row is keyed
                cell = ((len(verdicts), lb[i], lb[i + 1], pb[j], pb[j + 1]) if key
                        else (len(verdicts), nan, nan, nan, nan))
                # by module-level name, so that a wrapper of the classifier
                # sees every call
                verdicts.append(classify_r(lam, alpha) if h is None
                                else classify_hz(lam, alpha, h))
                if key:
                    cells[key] = cell
            # a keyed row has left its predecessor's cell, and no two cells
            # share a verdict, so it starts a run
            if r:
                runs.append((r, k))
            k, lo, hi, plo, phi = cell
    if lams:
        runs.append((len(lams), k))
    return verdicts, runs


def estimate_sc(ts: TimeScale, p: float, horizon: float | None = None) -> float:
    """Windowed average of the decay-rate integrand over [t_min, horizon].

    The integrand is log|1 + mu(t)*p| / mu(t) at scattered points and p at
    dense points (its mu -> 0 limit), summed on the kernel march at rate 0.
    A negative value is finite-horizon evidence that p lies in the stability
    set, not a proof: the true criterion is a limit over an unbounded scale.
    """
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p!r}")
    t0 = ts.t_min
    T = ts.t_max if horizon is None else ts.snap(horizon)
    if T <= t0:
        raise DomainError("horizon must exceed the window start")
    cells, _ = _walk(ts, (t0, T))
    k = _first_killed(cells, p)
    if k < len(cells):
        raise NonRegressiveParameter(
            f"1 + mu*p vanishes at t={cells[k][0]!r}; the average is -inf")
    terms = [math.log(abs(1.0 + mu * p)) if mu else p * (hi - lo)
             for lo, hi, mu in cells]
    return kernel_march(cells, (t0, T), 0.0, terms)[-1][1] / (T - t0)
