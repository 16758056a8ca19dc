"""Seeded generation of the benchmark's workloads.

``generate(name, seed, work)`` writes the config files a workload needs
under ``work`` and returns a ``Workload``: the CLI arguments, the CSV rows
one invocation writes, and the reference each output is checked against.
The seed moves the hybrid segment layouts, the forcing phase and the
stability sweep's lambda offset; it never changes a size, so every seed
does the same amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

LAM = -0.5
AMP = 1.0
CFTS_TOL = 1e-10


@dataclass
class Trajectory:
    """Expected content of one t,x,residual CSV."""

    t: list[float]
    x: list[float]
    residual: list[float]


@dataclass
class VerdictTable:
    """Expected rows of the stability table: inputs and acceptable statuses."""

    rows: list[tuple[float, float, float]]
    statuses: list[frozenset[str]]


@dataclass
class Workload:
    name: str
    args: list[str]            # CLI arguments; "{out}" stands for the output path
    outputs: dict[str, object] = field(default_factory=dict)  # path under {out} -> expected
    reports: dict[str, int] = field(default_factory=dict)     # report file -> line count

    @property
    def rows(self) -> int:
        """CSV data rows one invocation writes."""
        n = 0
        for exp in self.outputs.values():
            n += len(exp.t) if isinstance(exp, Trajectory) else len(exp.rows)
        return n

    def argv(self, out: Path) -> list[str]:
        return [a.replace("{out}", str(out)) for a in self.args]


def _fmt_segment(s) -> str:
    if isinstance(s, ref.Interval):
        return f"segment = interval {s.a!r} {s.b!r}"
    if isinstance(s, ref.Grid):
        return f"segment = grid {s.start!r} {s.step!r} {s.count}"
    return f"segment = point {s.t!r}"


def _linear_scenario(name, segments, u: ref.Sine, x0, alphas, horizon) -> str:
    lines = [f"[scenario {name}]"]
    lines += [_fmt_segment(s) for s in segments]
    lines += [
        "equation = linear",
        f"lambda = {LAM!r}",
        f"u = sin {u.amp!r} {u.freq!r} {u.phase!r}",
        f"x0 = {x0!r}",
        "alpha = " + " ".join(f"{a:g}" for a in alphas),
        horizon,
        "outputs = trajectory residuals",
    ]
    return "\n".join(lines) + "\n"


def _linear_expected(segments, b, u, x0, alphas, name) -> dict[str, Trajectory]:
    pts, dense = ref.mesh(segments, b)
    out = {}
    for alpha in alphas:
        if alpha == 1.0:
            xs = ref.classical_trajectory(pts, dense, LAM, u, x0)
            res = ref.classical_residual(pts, dense, xs, LAM, u)
        else:
            xs = ref.linear_trajectory(pts, dense, LAM, u, x0, alpha)
            res = ref.fractional_residual(pts, dense, xs, alpha,
                                          lambda t, x: LAM * x + u(t))
        out[f"{name}_alpha{alpha:g}.csv"] = Trajectory(pts, xs, res)
    return out


def _compatible_sine(rng: random.Random, freq: float) -> tuple[ref.Sine, float]:
    """Forcing with a seeded phase and the x0 that makes u(0) + lambda*x0 = 0."""
    u = ref.Sine(AMP, freq, rng.uniform(0.0, 2.0 * math.pi))
    return u, -u(0.0) / LAM


def _gap(rng: random.Random) -> float:
    # Graininess stays in [0.05, 0.35]: below (1-alpha)/alpha = 3/7 for alpha
    # 0.7, so every kernel factor 1 + mu*alpha_bar lies in (0, 1).
    return round(rng.uniform(0.05, 0.35), 6)


def grid_kernel(seed: int, work: Path) -> Workload:
    """One 800-step grid (alphas 0.3, 0.7) and two disjoint 0.5-long
    intervals (alphas 0.3, 0.7, 1).  Segment lookup is O(1), so the O(n^2)
    residual march through cf_delta_left is nearly all the time; the dense
    scenario is the only user of scipy quadrature and the classical path."""
    rng = random.Random(seed)
    u, x0 = _compatible_sine(rng, 1.0)
    grid = [ref.Grid(0.0, 0.01, 801)]
    intervals, a = [], 0.0
    for _ in range(2):
        intervals.append(ref.Interval(a, a + 0.5))
        a = round(a + 0.5 + _gap(rng), 6)
    b_dense = intervals[-1].b
    text = (_linear_scenario("grid", grid, u, x0, (0.3, 0.7), "horizon = steps 800")
            + "\n"
            + _linear_scenario("dense", intervals, u, x0, (0.3, 0.7, 1.0),
                               f"horizon = time {b_dense!r}"))
    (work / "grid-kernel.config").write_text(text)
    w = Workload("grid-kernel", ["simulate", str(work / "grid-kernel.config"), "--out", "{out}"])
    w.outputs.update(_linear_expected(grid, grid[0].hi, u, x0, (0.3, 0.7), "grid"))
    w.outputs.update(_linear_expected(intervals, b_dense, u, x0, (0.3, 0.7, 1.0), "dense"))
    return w


def hybrid_lookup(seed: int, work: Path) -> Workload:
    """200 segments alternating isolated points and 2-point grids (300 mesh
    points), alphas 0.3 and 0.7: the O(segments) scan in TimeScale._locate
    dominates."""
    rng = random.Random(seed)
    u, x0 = _compatible_sine(rng, 0.5)
    segments, t = [], 0.0
    for i in range(200):
        if i % 2 == 0:
            segments.append(ref.Point(t))
        else:
            seg = ref.Grid(t, _gap(rng), 2)
            segments.append(seg)
            t = seg.hi
        t = round(t + _gap(rng), 6)
    pts, _ = ref.mesh(segments, segments[-1].hi)
    text = _linear_scenario("hybrid", segments, u, x0, (0.3, 0.7),
                            f"horizon = steps {len(pts) - 1}")
    (work / "hybrid-lookup.config").write_text(text)
    w = Workload("hybrid-lookup",
                 ["simulate", str(work / "hybrid-lookup.config"), "--out", "{out}"])
    w.outputs.update(_linear_expected(segments, segments[-1].hi, u, x0, (0.3, 0.7), "hybrid"))
    return w


def picard_nonlinear(seed: int, work: Path) -> Workload:
    """solve-nonlinear with rhs = 0.8 sin(x), x0 = 1 on a 600-point grid over
    [0, 0.5], alphas 0.3 and 0.7: the only user of the Picard solver."""
    # Seed-independent: the problem has no layout or phase to vary.  Its data
    # are incompatible on purpose (every rhs form is autonomous, so compatible
    # data sit at an equilibrium that converges in one iteration).
    del seed
    amp, x0, alphas = 0.8, 1.0, (0.3, 0.7)
    grid = ref.Grid(0.0, 0.5 / 599, 600)
    text = "\n".join([
        "[scenario picard]",
        _fmt_segment(grid),
        "equation = nonlinear",
        f"rhs = sin_x {amp!r}",
        f"lipschitz = {amp!r}",
        "window = 0 0.5",
        f"x0 = {x0!r}",
        "alpha = " + " ".join(f"{a:g}" for a in alphas),
    ]) + "\n"
    (work / "picard-nonlinear.config").write_text(text)
    w = Workload("picard-nonlinear",
                 ["solve-nonlinear", str(work / "picard-nonlinear.config"), "--out", "{out}"],
                 reports={"picard_report.txt": len(alphas)})
    pts, _ = ref.mesh([grid], grid.hi)
    dense = [False] * (len(pts) - 1)
    for alpha in alphas:
        xs = ref.picard(pts, amp, x0, alpha, CFTS_TOL)
        res = ref.fractional_residual(pts, dense, xs, alpha,
                                      lambda t, x: amp * math.sin(x))
        w.outputs[f"picard_alpha{alpha:g}.csv"] = Trajectory(pts, xs, res)
    return w


def _sweep(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


def stability_sweep(seed: int, work: Path) -> Workload:
    """144k (lambda, alpha, h) rows: no kernel march and no segment lookup,
    only start-up, classify_hz and CSV formatting.  The seed shifts the
    lambda range by less than 0.01."""
    del work
    off = random.Random(seed).uniform(0.0, 0.01)
    lo, hi = -5.0 + off, 6.0 + off
    lams = _sweep(lo, hi, 4000)
    alphas = _sweep(0.1, 0.9, 9)
    hs = [0.25, 0.5, 1.0, 2.0]
    rows = [(lam, alpha, h) for h in hs for alpha in alphas for lam in lams]
    statuses = [ref.stability_statuses(*r) for r in rows]
    return Workload("stability-sweep",
                    ["stability", f"--lambda={lo!r}:{hi!r}:4000", "--alpha", "0.1:0.9:9",
                     "--h", "0.25,0.5,1,2", "--out", "{out}/table.csv"],
                    outputs={"table.csv": VerdictTable(rows, statuses)})


GENERATORS = {
    "grid-kernel": grid_kernel,
    "hybrid-lookup": hybrid_lookup,
    "picard-nonlinear": picard_nonlinear,
    "stability-sweep": stability_sweep,
}


def generate(name: str, seed: int, work: Path) -> Workload:
    return GENERATORS[name](seed, work)
