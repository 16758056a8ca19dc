"""Output check for one CLI invocation against the workload's reference.

A trajectory passes when every t and x is finite, t matches the reference
mesh, and x and the residual column agree with the reference within
TOL * max(1, |reference|).  TOL is far above the rounding differences of a
reordered kernel march (about 1e-13 here) and far below any change in the
numbers themselves.  The residual column is compared with the reference's
residual, not with a bound: on dense runs it holds O(h^2) discretization
error and on incompatible data the start-up defect, both by design.  The
classical path writes NaN in the last row, where sigma(t) is past the
horizon.  A stability row passes when its inputs match the sweep, its
status is one the Hilger-circle condition allows, and p_alpha matches.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import Trajectory, VerdictTable, Workload

TOL = 1e-8
MESH_RTOL = 1e-12


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _columns(header, names, rel):
    try:
        return [header.index(n) for n in names]
    except (AttributeError, ValueError):
        raise ValueError(f"{rel}: header {header!r} lacks one of {names}")


def _check_trajectory(rel: str, header, rows, exp: Trajectory) -> str | None:
    it, ix, ir = _columns(header, ("t", "x", "residual"), rel)
    for k, (row, t_ref, x_ref, r_ref) in enumerate(zip(rows, exp.t, exp.x, exp.residual)):
        t, x, r = float(row[it]), float(row[ix]), float(row[ir])
        if not (math.isfinite(t) and math.isfinite(x)):
            return f"{rel} row {k}: non-finite t={t} x={x}"
        if not _close(t, t_ref, MESH_RTOL):
            return f"{rel} row {k}: t={t!r}, reference {t_ref!r}"
        if not _close(x, x_ref, TOL):
            return f"{rel} row {k}: x={x!r}, reference {x_ref!r}"
        if math.isnan(r_ref) != math.isnan(r) or (not math.isnan(r) and not _close(r, r_ref, TOL)):
            return f"{rel} row {k}: residual={r!r}, reference {r_ref!r}"
    return None


def _check_verdicts(rel: str, header, rows, exp: VerdictTable) -> str | None:
    il, ia, ih, ist, ip = _columns(header, ("lambda", "alpha", "h", "status", "p_alpha"), rel)
    for k, (row, (lam, alpha, h), ok) in enumerate(zip(rows, exp.rows, exp.statuses)):
        got = (float(row[il]), float(row[ia]), float(row[ih]))
        if not all(_close(g, e, MESH_RTOL) for g, e in zip(got, (lam, alpha, h))):
            return f"{rel} row {k}: inputs {got}, expected {(lam, alpha, h)}"
        if row[ist] not in ok:
            return f"{rel} row {k}: status {row[ist]!r} for {got}, expected one of {sorted(ok)}"
        if row[ist] in ("stable", "unstable"):
            p_ref = lam * alpha / (1.0 - lam * (1.0 - alpha))
            if not _close(float(row[ip]), p_ref, MESH_RTOL):
                return f"{rel} row {k}: p_alpha {row[ip]}, expected {p_ref!r}"
    return None


def check(w: Workload, out: Path, returncode: int) -> list[str]:
    """Problems found with one invocation's outputs; empty when it passed."""
    errors = [] if returncode == 0 else [f"exit code {returncode}"]
    for rel, exp in w.outputs.items():
        path = out / rel
        if not path.is_file():
            errors.append(f"{rel}: missing")
            continue
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
        n_exp = len(exp.t) if isinstance(exp, Trajectory) else len(exp.rows)
        if len(rows) != n_exp:
            errors.append(f"{rel}: {len(rows)} rows, expected {n_exp}")
            continue
        try:
            if isinstance(exp, Trajectory):
                problem = _check_trajectory(rel, header, rows, exp)
            else:
                problem = _check_verdicts(rel, header, rows, exp)
        except (ValueError, IndexError) as exc:
            problem = f"{rel}: unreadable ({exc})"
        if problem:
            errors.append(problem)
    for rel, n_lines in w.reports.items():
        path = out / rel
        lines = path.read_text().splitlines() if path.is_file() else []
        if len([ln for ln in lines if ln.strip()]) != n_lines:
            errors.append(f"{rel}: expected {n_lines} report lines, found {len(lines)}")
    return errors
