"""Command-line frontend.

Subcommands: ``simulate`` runs the linear scenarios of a config and
``solve-nonlinear`` the nonlinear ones (fixed-point solver, plus a report
per scenario), writing one trajectory CSV per (scenario, alpha);
``stability`` classifies parameter grids into a verdict table; ``figures``
reproduces the three bundled demonstration scenarios as CSV data plus an
optional plot script.  ``simulate`` and ``solve-nonlinear`` share one
pipeline: parse the config, solve every job and check that it is finite,
and only then create the output directory and write, so that an error
leaves no directory, no file and no stdout line behind.

CSV columns are fixed (trajectories: t,x,residual; verdicts: lambda,alpha,
h,status,mechanism,p_alpha,threshold_low,threshold_high), values are
printed with 17 significant digits and "\n" line endings, so identical
configs produce byte-identical files.  The residual column re-checks the
trajectory through the fractional operator: for alpha < 1 the whole column
comes from one forward kernel march over the mesh (O(n)), and alpha = 1
uses the classical delta-equation defect.  A maximum residual above
RESIDUAL_GATE prints a warning with the start-up value of the scenario
kind (u(0) + lambda*x0 or f(a, x0)) and the likeliest cause (see
``_self_check``).  The environment variable CFTS_TOL overrides the default
numeric tolerance (a finite number >= 0; quadrature and fixed-point
stopping; default 1e-10).

Errors exit with a code and a one-line message on stderr: 2 for a config,
path or domain error (arithmetic overflow included), 3 for a regressivity
violation, 4 for a fixed-point iteration that is not contractive or spends
its budget, and 5 for quadrature that did not converge.  A stdout closed by
its reader (``cfts stability ... | head``) exits 1 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

from .config import ConfigError, Scenario, _floats, build_rhs, build_signal, parse_config
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
    _resolve_mesh,
    classical_residual_mesh,
    classical_trajectory,
    residual_linear_mesh,
    solve_linear_trajectory,
)
from .nonlinear import NonlinearCFProblem, picard_solve, residual_nonlinear_mesh
from .stability import (
    StabilityVerdict,
    _classify_block,
    _hz,
    _p_column,
    _r,
    classify_hz,
    classify_r,
)
from .signals import value
from .timescale import ContinuousInterval, UniformGrid

#: Self-check bound announced for emitted trajectories.
RESIDUAL_GATE = 1e-8

TRAJECTORY_HEADER = ("t", "x", "residual")
VERDICT_HEADER = ("lambda", "alpha", "h", "status", "mechanism", "p_alpha",
                  "threshold_low", "threshold_high")


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    return f"{v:.17g}"


def _write_csv(path: Path, header, rows) -> None:
    text = "".join([",".join(header) + "\n",
                    *[",".join(map(_fmt, row)) + "\n" for row in rows]])
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _alpha_tag(alpha: float) -> str:
    return f"{alpha:g}"


# -- simulate and solve-nonlinear --------------------------------------------


def _linear_trajectory(scn: Scenario, alpha: float, tol: float):
    """Solve one linear job: the trajectory, its residual column, the
    verdict row when the scenario asks for one (alpha < 1) else None, and
    the start-up value u(0) + lambda*x0."""
    # a sample table is given on the run mesh
    mesh = (_resolve_mesh(scn.ts, scn.horizon, scn.steps, None)
            if scn.u_spec[0] == "samples" else None)
    u = build_signal(scn.u_spec, mesh)
    startup = value(u, scn.ts, 0.0) + scn.lam * scn.x0
    if alpha == 1.0:
        traj = classical_trajectory(scn.ts, scn.lam, u, scn.x0,
                                    horizon=scn.horizon, steps=scn.steps, tol=tol)
        # at the last point sigma(t) lies beyond the sampled horizon
        resid = classical_residual_mesh(scn.ts, scn.lam, u, traj) + [math.nan]
        return traj, resid, None, startup
    prob = LinearCFProblem(scn.ts, scn.lam, u, scn.x0, CFOrder(alpha))
    traj = solve_linear_trajectory(prob, horizon=scn.horizon, steps=scn.steps,
                                   tol=tol)
    verdict = _scenario_verdict(scn, alpha) if "verdict" in scn.outputs else None
    return traj, residual_linear_mesh(prob, traj, traj.mesh), verdict, startup


def _nonlinear_trajectory(scn: Scenario, alpha: float, tol: float):
    """Solve one nonlinear job: the fixed point, its residual column, its
    line of the scenario report, and the start-up value f(a, x0)."""
    prob = NonlinearCFProblem(scn.ts, build_rhs(scn.rhs_spec), scn.lipschitz,
                              scn.window[0], scn.window[1], scn.x0, CFOrder(alpha))
    result = picard_solve(prob, tol=tol)
    traj = result.solution
    line = (f"scenario={scn.name} alpha={_alpha_tag(alpha)} "
            f"q={_fmt(result.contraction_q)} iterations={result.iterations} "
            f"final_defect={_fmt(result.final_defect)}")
    return (traj, residual_nonlinear_mesh(prob, traj, traj.mesh), line,
            prob.rhs(prob.a, prob.x0))


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
    worst = max((abs(r) for r in residuals if math.isfinite(r)), default=0.0)
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
    print(f"warning: {scn.name} alpha={_alpha_tag(alpha)}: max |residual| = "
          f"{worst:.3g} exceeds {RESIDUAL_GATE:g} ({label} = {startup:.3g}; "
          f"{cause})", file=sys.stderr)


def _require_finite(name: str, alpha: float, traj, residuals) -> None:
    """Reject a run that left the float range before any CSV is written;
    the NaN residual in the last row of an alpha = 1 run is by design."""
    last = len(traj.mesh) - 1
    for i, (t, x, r) in enumerate(zip(traj.mesh, traj.values, residuals)):
        if not (math.isfinite(x) and (math.isfinite(r) or (alpha == 1.0 and i == last))):
            raise DomainError(f"{name} alpha={_alpha_tag(alpha)}: the trajectory "
                              f"leaves the float range at t = {t:g}")


def _scenario_verdict(scn: Scenario, alpha: float) -> tuple:
    segs = scn.ts.segments
    if len(segs) == 1 and isinstance(segs[0], UniformGrid):
        h = segs[0].step
        return verdict_row(scn.lam, alpha, h, classify_hz(scn.lam, alpha, h))
    return verdict_row(scn.lam, alpha, None, classify_r(scn.lam, alpha))


def verdict_row(lam: float, alpha: float, h: float | None,
                v: StabilityVerdict) -> tuple:
    return (lam, alpha, "" if h is None else h, v.status, v.mechanism,
            v.p_alpha, v.boundary_values[0], v.boundary_values[1])


def _run(config_path: str, out_dir: str, tol: float, kind: str) -> int:
    """The pipeline of ``simulate`` (kind 'linear') and ``solve-nonlinear``
    (kind 'nonlinear'): solve and check every job, then write."""
    # kind -> (subcommand, job, start-up label and condition); built per
    # call so that a rebinding of a job function (a tracing wrapper, say) is
    # seen
    kinds = {"linear": ("simulate", _linear_trajectory, _LINEAR_STARTUP),
             "nonlinear": ("solve-nonlinear", _nonlinear_trajectory,
                           _NONLINEAR_STARTUP)}
    scenarios = parse_config(Path(config_path).read_text(encoding="utf-8"))
    for scn in scenarios:
        if scn.kind != kind:
            raise ConfigError(f"scenario '{scn.name}' is {scn.kind}; "
                              f"use 'cfts {kinds[scn.kind][0]}'")
    _, job, startup_kind = kinds[kind]
    runs = []
    for scn in scenarios:
        for alpha in scn.alphas:
            traj, resid, summary, startup = job(scn, alpha, tol)
            _require_finite(scn.name, alpha, traj, resid)
            runs.append((scn, alpha, traj, resid, summary, startup))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries: dict[str, list] = {}
    for scn, alpha, traj, resid, summary, startup in runs:
        name = scn.name
        _self_check(scn, alpha, traj, resid, startup_kind, startup)
        _write_csv(out / f"{name}_alpha{_alpha_tag(alpha)}.csv", TRAJECTORY_HEADER,
                   zip(traj.mesh, traj.values, resid))
        if summary is not None:
            summaries.setdefault(name, []).append(summary)
    for name, rows in summaries.items():
        if kind == "linear":
            _write_csv(out / f"{name}_verdicts.csv", VERDICT_HEADER, rows)
        else:
            (out / f"{name}_report.txt").write_text("\n".join(rows) + "\n")
            print("\n".join(rows))
    return 0


def cmd_simulate(config_path: str, out_dir: str, tol: float) -> int:
    return _run(config_path, out_dir, tol, "linear")


def cmd_solve_nonlinear(config_path: str, out_dir: str, tol: float) -> int:
    return _run(config_path, out_dir, tol, "nonlinear")


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


def cmd_stability(lams, alphas, hs, continuous: bool, out_path: str | None) -> int:
    """Write the verdict table, one (h, alpha) block of rows at a time.

    Every block's classifier is built, and so its alpha and h checked,
    before the output is opened, so an error leaves no file and no stdout.
    Each row is the bytes that ``_fmt`` gives for ``verdict_row``.  Each
    block is classified by its cells (``stability._classify_block``): only
    the rows near a cut point and the first row of each cell call the
    classifier, and each distinct verdict is formatted once per block.
    Each lambda is formatted once per sweep, and each p_alpha once per
    (lambda, alpha): p_alpha does not depend on h, so the first block of
    an alpha computes and formats its p column and later blocks reuse it.
    """
    blocks = ([(alpha, None) for alpha in alphas] if continuous
              else [(alpha, h) for h in hs for alpha in alphas])
    for alpha, h in blocks:
        _r(alpha) if h is None else _hz(alpha, h)
    lam_strs = [f"{lam:.17g}" for lam in lams]
    p_cols: dict[float, tuple[list[float], list[str]]] = {}
    with (open(out_path, "w", newline="") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(",".join(VERDICT_HEADER) + "\n")
        for alpha, h in blocks:
            mid = f",{_fmt(alpha)},{'' if h is None else _fmt(h)},"
            if alpha not in p_cols:
                ps = _p_column(lams, alpha)
                p_cols[alpha] = ps, [f"{p:.17g}" for p in ps]
            ps, p_strs = p_cols[alpha]
            verdicts, index = _classify_block(lams, ps, alpha, h)
            # each row is lam_s + head + p_s + tail of its verdict
            parts = [(f"{mid}{v.status},{v.mechanism},",
                      f",{_fmt(v.boundary_values[0])},{_fmt(v.boundary_values[1])}\n")
                     for v in verdicts]
            fh.write("".join([f"{lam_s}{head}{p_s}{tail}" for lam_s, p_s, (head, tail)
                              in zip(lam_strs, p_strs, map(parts.__getitem__, index))]))
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


def cmd_figures(which: int, out_dir: str, tol: float, plot_script: bool) -> int:
    text = FIGURE_CONFIGS[which]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / f"fig{which}.config"
    cfg_path.write_text(text)
    cmd_simulate(str(cfg_path), str(out), tol)
    if plot_script:
        files = [f"{scn.name}_alpha{_alpha_tag(a)}.csv"
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
        tol = _floats([os.environ.get("CFTS_TOL", "1e-10")], None, "CFTS_TOL")[0]
        if tol < 0.0:
            raise ConfigError(f"expected a tolerance >= 0, got {tol:g}", None, "CFTS_TOL")
        if args.command == "simulate":
            code = cmd_simulate(args.config, args.out, tol)
        elif args.command == "stability":
            lams = _parse_sweep(args.lam, "--lambda")
            alphas = _parse_sweep(args.alpha, "--alpha")
            hs = _parse_sweep(args.h, "--h") if args.h is not None else []
            code = cmd_stability(lams, alphas, hs, args.continuous, args.out)
        elif args.command == "solve-nonlinear":
            code = cmd_solve_nonlinear(args.config, args.out, tol)
        else:
            code = cmd_figures(args.which, args.out, tol, not args.no_plot_script)
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
