"""Command-line frontend.

Subcommands: ``simulate`` runs the linear scenarios of a config and
``solve-nonlinear`` the nonlinear ones (fixed-point solver, plus a report
per scenario), writing one trajectory CSV per (scenario, alpha);
``stability`` classifies parameter grids into a verdict table; ``figures``
reproduces the three bundled demonstration scenarios as CSV data plus an
optional plot script.  ``simulate`` and ``solve-nonlinear`` share one
pipeline: parse the config, solve every job and check that it is finite,
and only then create the output directory and write, so that an error
leaves no directory, no file and no stdout line behind.  A scenario's
verdict file is written by ``cmd_stability``: it is the ``stability``
table of the scenario's lambda, its alphas below 1 and its scale (the
step of a scale that is one grid, else the reals).

CSV columns are fixed (trajectories: t,x,residual; verdicts: lambda,alpha,
h,status,mechanism,p_alpha,threshold_low,threshold_high), values are
printed with 17 significant digits and "\n" line endings, so identical
configs produce byte-identical files.  The residual column re-checks the
trajectory through the fractional operator: for alpha < 1 the whole column
comes from one forward kernel march over the mesh (O(n)), and alpha = 1
uses the classical delta-equation defect.  A maximum residual above
RESIDUAL_GATE prints a warning with the start-up value of the scenario
kind (u(0) + lambda*x0 or f(a, x0)) and the likeliest cause (see
``_self_check``).  No option or environment variable sets a tolerance:
the solvers read their own (``nonlinear.DEFAULT_TOL``, ``calculus.QUAD_TOL``).

Errors exit with a code and a one-line message on stderr: 2 for a config,
path or domain error (an arithmetic overflow included, named by its
scenario and alpha), 3 for a regressivity violation, 4 for a fixed-point
iteration that is not contractive or spends its budget, and 5 for
quadrature that did not converge (a ``poly`` forcing on a dense run).  A
stdout closed by its reader (``cfts stability ... | head``) exits 1 with
nothing on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

from .config import ConfigError, Scenario, alpha_tag, parse_config
from .errors import (
    DomainError,
    MaxIterationsExceeded,
    NonRegressiveParameter,
    NotContractive,
    PointNotInTimeScale,
    QuadratureNonConvergence,
)
from .fractional import CFOrder
from .linear import (
    LinearCFProblem,
    classical_residual_mesh,
    classical_trajectory,
    residual_linear_mesh,
    solve_linear_trajectory,
)
from .nonlinear import NonlinearCFProblem, picard_solve, residual_nonlinear_mesh
from .stability import _block, _classify_block, _p_column
from .signals import value
from .timescale import ContinuousInterval, UniformGrid

#: Self-check bound announced for emitted trajectories.
RESIDUAL_GATE = 1e-8

TRAJECTORY_HEADER = ("t", "x", "residual")
VERDICT_HEADER = ("lambda", "alpha", "h", "status", "mechanism", "p_alpha",
                  "threshold_low", "threshold_high")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_csv(path: Path, header, body: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n" + body)


def _trajectory_rows(t_strings, xs, residuals) -> str:
    """t,x,residual lines, the t column given formatted, with one ``%`` over
    a flat tuple: "%.17g" gives the bytes of ``_fmt``, nan, inf and -0
    included."""
    flat = [None] * (3 * len(xs))
    flat[0::3], flat[1::3], flat[2::3] = t_strings, xs, residuals
    return ("%s,%.17g,%.17g\n" * len(xs)) % tuple(flat)


# -- simulate and solve-nonlinear --------------------------------------------


def _linear_trajectory(scn: Scenario, alpha: float):
    """Solve one linear job: the trajectory, its residual column, and,
    when the scenario asks for a verdict and alpha < 1, the (alpha, h)
    block of its verdict table (h None for the reals), else None."""
    if alpha == 1.0:
        traj = classical_trajectory(scn.ts, scn.lam, scn.u, scn.x0,
                                    horizon=scn.horizon, steps=scn.steps)
        # at the last point sigma(t) lies beyond the sampled horizon
        resid = classical_residual_mesh(scn.ts, scn.lam, scn.u, traj) + [math.nan]
        return traj, resid, None
    prob = LinearCFProblem(scn.ts, scn.lam, scn.u, scn.x0, CFOrder(alpha))
    traj = solve_linear_trajectory(prob, horizon=scn.horizon, steps=scn.steps)
    block = None
    if "verdict" in scn.outputs:
        segs = scn.ts.segments
        h = segs[0].step if len(segs) == 1 and isinstance(segs[0], UniformGrid) else None
        _block(alpha, h)  # a bad alpha raises before anything is written
        block = alpha, h
    return traj, residual_linear_mesh(prob, traj, traj.mesh), block


def _nonlinear_trajectory(scn: Scenario, alpha: float):
    """Solve one nonlinear job: the fixed point, its residual column, and
    its line of the scenario report."""
    prob = NonlinearCFProblem(scn.ts, scn.rhs, scn.lipschitz,
                              scn.window[0], scn.window[1], scn.x0, CFOrder(alpha))
    result = picard_solve(prob)
    traj = result.solution
    line = (f"scenario={scn.name} alpha={alpha_tag(alpha)} "
            f"q={_fmt(result.contraction_q)} iterations={result.iterations} "
            f"final_defect={_fmt(result.final_defect)}")
    return traj, residual_nonlinear_mesh(prob, traj, traj.mesh), line


#: The start-up value of each scenario kind and why a nonzero one leaves a
#: residual: the operator vanishes at the base point, so the equation holds
#: there only when the value is 0.
_LINEAR_STARTUP = ("u(0) + lambda*x0", "the closed form solves the equation "
                   "exactly only when u(0) + lambda*x0 = 0")
_NONLINEAR_STARTUP = ("f(a, x0)", "the equation holds at t = a only when "
                      "f(a, x0) = 0, since the operator vanishes there")


def _self_check(scn: Scenario, alpha: float, traj, residuals,
                startup_kind: tuple[str, str], startup: float) -> None:
    """Warn on stderr when the largest finite residual reaches RESIDUAL_GATE,
    with the start-up value and the likeliest cause: the start-up condition
    when that value is nonzero and alpha < 1 (alpha = 1 solves the
    classical equation, which has no start-up defect), else dense-run
    discretization when the trajectory spans part of a continuous
    interval, else a divergent kernel that amplifies rounding."""
    worst = max(map(abs, filter(math.isfinite, residuals)), default=0.0)
    if worst < RESIDUAL_GATE:
        return
    ts = scn.ts
    label, condition = startup_kind
    a, b = traj.mesh[0], traj.mesh[-1]
    if startup and alpha < 1.0:
        cause = condition
    elif any(isinstance(s, ContinuousInterval) and s.lo < b and s.hi > a
             for s in ts.segments):
        cause = ("dense-run discretization: the residual is taken on the "
                 "sampled mesh of a continuous interval")
    elif alpha < 1.0 and any(abs(1.0 + mu * alpha / (alpha - 1.0)) > 1.0
                             for mu in ts.graininess_values()):
        cause = "rounding amplified by a kernel base |1 + mu*alpha_bar| > 1"
    else:
        cause = "no start-up defect, dense run or divergent kernel explains it"
    print(f"warning: {scn.name} alpha={alpha_tag(alpha)}: max |residual| = "
          f"{worst:.3g} exceeds {RESIDUAL_GATE:g} ({label} = {startup:.3g}; "
          f"{cause})", file=sys.stderr)


def _require_finite(name: str, alpha: float, traj, residuals) -> None:
    """Reject a run that left the float range before any CSV is written;
    the NaN residual in the last row of an alpha = 1 run is by design.
    Only a failing run walks its rows, to name the first bad t."""
    checked = residuals[:-1] if alpha == 1.0 else residuals
    if all(map(math.isfinite, traj.values)) and all(map(math.isfinite, checked)):
        return
    last = len(traj.mesh) - 1
    for i, (t, x, r) in enumerate(zip(traj.mesh, traj.values, residuals)):
        if not (math.isfinite(x) and (math.isfinite(r) or (alpha == 1.0 and i == last))):
            raise DomainError(f"{name} alpha={alpha_tag(alpha)}: the trajectory "
                              f"leaves the float range at t = {t:g}")


def _run(config_path: str, out_dir: str, kind: str) -> int:
    """The pipeline of ``simulate`` (kind 'linear') and ``solve-nonlinear``
    (kind 'nonlinear'): solve and check every job, then write."""
    scenarios = parse_config(Path(config_path).read_text(encoding="utf-8"))
    for scn in scenarios:
        if scn.kind != kind:
            command = "simulate" if scn.kind == "linear" else "solve-nonlinear"
            raise ConfigError(f"scenario '{scn.name}' is {scn.kind}; use 'cfts {command}'")
    linear = kind == "linear"
    # looked up per call, so that a tracing wrapper bound in its place is seen
    job = _linear_trajectory if linear else _nonlinear_trajectory
    runs = []
    for scn in scenarios:
        jobs = []
        for alpha in scn.alphas:
            try:
                traj, resid, summary = job(scn, alpha)
            except OverflowError:
                raise DomainError(f"{scn.name} alpha={alpha_tag(alpha)}: an "
                                  f"intermediate value overflows the float range"
                                  ) from None
            _require_finite(scn.name, alpha, traj, resid)
            jobs.append((alpha, traj, resid, summary))
        startup = (value(scn.u, scn.ts, 0.0) + scn.lam * scn.x0 if linear
                   else scn.rhs(traj.mesh[0], scn.x0))
        runs.append((scn, startup, jobs))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    startup_kind = _LINEAR_STARTUP if linear else _NONLINEAR_STARTUP
    t_mesh = None
    for scn, startup, jobs in runs:
        for alpha, traj, resid, summary in jobs:
            _self_check(scn, alpha, traj, resid, startup_kind, startup)
            if traj.mesh is not t_mesh:  # the alphas of a scenario share their mesh
                t_mesh, t_strings = traj.mesh, ["%.17g" % t for t in traj.mesh]
            _write_csv(out / f"{scn.name}_alpha{alpha_tag(alpha)}.csv",
                       TRAJECTORY_HEADER, _trajectory_rows(t_strings, traj.values, resid))
    for scn, _, jobs in runs:
        summaries = [summary for *_, summary in jobs if summary is not None]
        if not summaries:
            continue
        if linear:
            h = summaries[0][1]
            cmd_stability([scn.lam], [alpha for alpha, _ in summaries], [h],
                          str(out / f"{scn.name}_verdicts.csv"))
        else:
            (out / f"{scn.name}_report.txt").write_text("\n".join(summaries) + "\n")
            print("\n".join(summaries))
    return 0


def cmd_simulate(config_path: str, out_dir: str) -> int:
    return _run(config_path, out_dir, "linear")


def cmd_solve_nonlinear(config_path: str, out_dir: str) -> int:
    return _run(config_path, out_dir, "nonlinear")


# -- stability --------------------------------------------------------------


def _parse_sweep(spec: str, flag: str) -> list[float]:
    try:
        if ":" in spec:
            lo_s, hi_s, n_s = spec.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
            step = (hi - lo) / max(n - 1, 1)
            vals = [lo] if n == 1 else [lo + k * step for k in range(n)]
        else:
            vals = [float(s) for s in spec.split(",") if s]
        if vals and all(math.isfinite(v) for v in vals):
            return vals
    except ValueError:
        pass
    raise ConfigError(f"bad sweep {spec!r} for {flag}; use finite X | X,Y,... | "
                      "lo:hi:count with count >= 1")


def cmd_stability(lams, alphas, hs, out_path: str | None) -> int:
    """Write the verdict table, one (h, alpha) block of rows at a time.

    Every block's classifier is built, and so its alpha and h checked, before
    the output is opened, so an error leaves no file and no stdout.  Each row
    is the lambda, a head (alpha, h, status, mechanism), p_alpha and a tail
    (the two boundary values), each float as ``_fmt`` gives it and h empty on
    the reals (h None), held in one flat list of four slots per lambda that
    each block writes as one join.  The lambda column is formatted once per
    sweep and each alpha's p column once, each by one ``%`` ("%.17g" gives the
    bytes of ``_fmt``, nan, inf and -0 included): p_alpha does not depend on
    h, so later blocks of an alpha reuse it.  Each block is classified by its
    cells (``stability._classify_block``) into verdict runs; each verdict's
    head and tail are formatted once per block and laid into a run's slots by
    one slice assignment each.
    """
    blocks = [(alpha, h) for h in hs for alpha in alphas]
    for alpha, h in blocks:
        _block(alpha, h)
    n = len(lams)
    flat = [""] * (4 * n)
    flat[0::4] = ("%.17g\n" * n % tuple(lams)).splitlines()
    p_cols: dict[float, tuple[list[float], list[str]]] = {}
    with (open(out_path, "w", newline="") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(",".join(VERDICT_HEADER) + "\n")
        for alpha, h in blocks:
            mid = f",{_fmt(alpha)},{'' if h is None else _fmt(h)},"
            if alpha not in p_cols:
                ps = _p_column(lams, alpha)
                p_cols[alpha] = ps, ("%.17g\n" * n % tuple(ps)).splitlines()
            ps, p_strs = p_cols[alpha]
            flat[2::4] = p_strs
            verdicts, runs = _classify_block(lams, ps, alpha, h)
            parts = [(f"{mid}{v.status},{v.mechanism},",
                      f",{_fmt(v.boundary_values[0])},{_fmt(v.boundary_values[1])}\n")
                     for v in verdicts]
            # rows [r, s) share the head and tail of their verdict
            r = 0
            for s, k in runs:
                head, tail = parts[k]
                flat[4 * r + 1:4 * s:4] = [head] * (s - r)
                flat[4 * r + 3:4 * s:4] = [tail] * (s - r)
                r = s
            fh.write("".join(flat))
    return 0


# -- figures ----------------------------------------------------------------

FIGURE_CONFIGS = {
    1: """\
# Step-1 grid, lambda=0.2: growing trajectories for every order.
[scenario fig1]
segment = grid 0 1 31
equation = linear
lambda = 0.2
u = constant 1
x0 = 0
alpha = 0.2 0.5 0.9 1
horizon = steps 30
outputs = trajectory residuals verdict
""",
    2: """\
# Step-1 grid, lambda=4.2: bounded (stable) trajectories.
[scenario fig2]
segment = grid 0 1 31
equation = linear
lambda = 4.2
u = constant 1
x0 = 0
alpha = 0.2 0.5
horizon = steps 30
outputs = trajectory residuals verdict
""",
    3: """\
# Refining the step toward the continuous solution, alpha=0.5.
[scenario fig3_h0.1]
segment = grid 0 0.1 31
equation = linear
lambda = 0.2
u = constant 1
x0 = 0
alpha = 0.5
horizon = time 3
outputs = trajectory residuals

[scenario fig3_h0.5]
segment = grid 0 0.5 7
equation = linear
lambda = 0.2
u = constant 1
x0 = 0
alpha = 0.5
horizon = time 3
outputs = trajectory residuals

[scenario fig3_h1]
segment = grid 0 1 4
equation = linear
lambda = 0.2
u = constant 1
x0 = 0
alpha = 0.5
horizon = time 3
outputs = trajectory residuals
""",
}

_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Generated plot script: reads the CSVs next to this file.
# Requires matplotlib, which the data-producing tool itself does not.
import csv
import pathlib

import matplotlib.pyplot as plt

HERE = pathlib.Path(__file__).parent
FILES = {files!r}

for name in FILES:
    with open(HERE / name) as fh:
        rows = list(csv.DictReader(fh))
    t = [float(r["t"]) for r in rows]
    x = [float(r["x"]) for r in rows]
    plt.plot(t, x, marker=".", label=name.rsplit(".", 1)[0])
plt.xlabel("t")
plt.ylabel("x(t)")
plt.legend()
plt.tight_layout()
plt.savefig(HERE / {png!r}, dpi=150)
print("wrote", HERE / {png!r})
"""


def cmd_figures(which: int, out_dir: str, plot_script: bool) -> int:
    text = FIGURE_CONFIGS[which]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / f"fig{which}.config"
    cfg_path.write_text(text)
    cmd_simulate(str(cfg_path), str(out))
    if plot_script:
        files = [f"{scn.name}_alpha{alpha_tag(a)}.csv"
                 for scn in parse_config(text) for a in scn.alphas]
        script = _PLOT_TEMPLATE.format(files=files, png=f"fig{which}.png")
        (out / f"plot_fig{which}.py").write_text(script)
    return 0


# -- entry point ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cfts",
        description="Fractional dynamic equations on hybrid time scales: "
                    "simulation, stability classification, fixed-point solving.")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run linear scenarios from a config")
    sim.add_argument("config")
    sim.add_argument("--out", default=".", help="output directory")

    st = sub.add_parser("stability", help="classify a (lambda, alpha, h) grid")
    st.add_argument("--lambda", dest="lam", required=True,
                    help="value, comma list, or lo:hi:count sweep "
                         "(use --lambda=-1 for negative values)")
    st.add_argument("--alpha", required=True,
                    help="value, comma list, or lo:hi:count sweep")
    grp = st.add_mutually_exclusive_group(required=True)
    grp.add_argument("--h", help="grid step(s); value, comma list, or sweep")
    grp.add_argument("--continuous", action="store_true",
                     help="classify on the reals instead of a grid")
    st.add_argument("--out", default=None, help="CSV path (default: stdout)")

    nl = sub.add_parser("solve-nonlinear",
                        help="run the fixed-point solver from a config")
    nl.add_argument("config")
    nl.add_argument("--out", default=".", help="output directory")

    fig = sub.add_parser("figures", help="reproduce a bundled demonstration")
    fig.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    fig.add_argument("--out", required=True, help="output directory")
    fig.add_argument("--no-plot-script", action="store_true",
                     help="skip writing the matplotlib helper script")
    return ap


#: Exit code and one-line message prefix per error type, first match wins
#: (NotRegressive is a NonRegressiveParameter).
_EXITS = (
    ((ConfigError, OSError, UnicodeDecodeError), 2, "config error"),
    ((DomainError, PointNotInTimeScale, OverflowError), 2, "domain error"),
    ((NonRegressiveParameter,), 3, "regressivity violation"),
    ((NotContractive,), 4, "not contractive"),
    ((MaxIterationsExceeded,), 4, "iteration budget spent"),
    ((QuadratureNonConvergence,), 5, "quadrature did not converge"),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            code = cmd_simulate(args.config, args.out)
        elif args.command == "stability":
            lams = _parse_sweep(args.lam, "--lambda")
            alphas = _parse_sweep(args.alpha, "--alpha")
            hs = [None] if args.continuous else _parse_sweep(args.h, "--h")
            code = cmd_stability(lams, alphas, hs, args.out)
        elif args.command == "solve-nonlinear":
            code = cmd_solve_nonlinear(args.config, args.out)
        else:
            code = cmd_figures(args.which, args.out, not args.no_plot_script)
        # a reader that closes stdout early must fail here, inside the try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # `| head` closed stdout: not an input error, so no message; the
        # flush at exit goes to the null device instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except tuple(t for types, _, _ in _EXITS for t in types) as exc:
        code, prefix = next((c, p) for types, c, p in _EXITS if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
