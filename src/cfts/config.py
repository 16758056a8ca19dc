"""Plain-text scenario configs for the command-line tools.

Flat key-value lines grouped under ``[scenario NAME]`` headers; '#' starts
a comment.  NAME must be unique within a config, because it names the
scenario's output files, and so must the tag ``alpha_tag`` gives each
alpha of a scenario.  Keys:

    segment   = interval a b | grid start step count | point t   (repeatable)
    equation  = linear | nonlinear
    lambda    = <float>                 (linear)
    u         = constant c | poly c0 c1 ... | sin amp freq phase
                | samples v0 v1 ...     (linear forcing)
    rhs       = affine lam c | zero | sin_x amp      (nonlinear f(t, x))
    lipschitz = <float>                 (nonlinear)
    window    = a b                     (nonlinear)
    x0        = <float>
    alpha     = <float> [<float> ...]   (linear: values in [0, 1], 1 = classical
                                         path; nonlinear: values in [0, 1))
    horizon   = steps n | time t        (linear)
    outputs   = trajectory [verdict] [residuals]   (verdict: linear only;
                                         trajectory and residuals are
                                         always written)

A scenario holds its forcing ``u`` (a sample table laid on its run mesh)
or right-hand side ``rhs``, built once while the config is parsed.  The
``constant`` and ``sin`` forcings are built by ``signals.constant`` and
``signals.sine``, whose exact kernel integrals spare every dense cell the
quadrature; a ``poly`` forcing is a plain Closure integrated by quadrature.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from ._record import record
from .linear import _resolve_mesh
from .signals import Closure, Sampled, Signal, constant, sine
from .timescale import Segment, TimeScale, parse_segment


class ConfigError(Exception):
    """Config problem with a line number and field name for diagnostics."""

    def __init__(self, message: str, line: int | None = None, field_: str = ""):
        self.line = line
        self.field = field_
        where = f" (line {line}" + (f", field '{field_}'" if field_ else "") + ")" \
            if line is not None else (f" (field '{field_}')" if field_ else "")
        super().__init__(message + where)


_OUTPUTS = ("trajectory", "verdict", "residuals")


@record
class Scenario:
    name: str
    ts: TimeScale
    kind: str                      # 'linear' | 'nonlinear'
    x0: float
    alphas: tuple[float, ...]
    outputs: tuple[str, ...]
    lam: float | None = None
    u: Signal | None = None        # linear: a sample table lies on the run mesh
    rhs: Callable[[float, float], float] | None = None
    lipschitz: float | None = None
    window: tuple[float, float] | None = None
    horizon: float | None = None
    steps: int | None = None


def alpha_tag(alpha: float) -> str:
    """The tag that names an alpha's output files and report line."""
    return f"{alpha:g}"


def _floats(tokens, line, field_):
    try:
        vals = tuple(float(t) for t in tokens)
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {tokens!r}: {exc}", line, field_)
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"expected finite numbers, got {tokens!r}", line, field_)
    return vals


def parse_config(text: str) -> list[Scenario]:
    raw: list[tuple[str, int, list[tuple[str, str, int]]]] = []
    current: list[tuple[str, str, int]] | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            parts = line[1:-1].split()
            if len(parts) != 2 or parts[0] != "scenario":
                raise ConfigError("section header must be '[scenario NAME]'", lineno)
            if any(name == parts[1] for name, _, _ in raw):
                raise ConfigError(f"duplicate scenario name '{parts[1]}'", lineno, "scenario")
            current = []
            raw.append((parts[1], lineno, current))
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        if current is None:
            raise ConfigError("key outside any [scenario] section", lineno)
        key, val = (s.strip() for s in line.split("=", 1))
        current.append((key, val, lineno))
    if not raw:
        raise ConfigError("config defines no scenarios")
    return [_build_scenario(name, lineno, entries) for name, lineno, entries in raw]


def _build_scenario(name: str, header_line: int,
                    entries: list[tuple[str, str, int]]) -> Scenario:
    segments: list[Segment] = []
    fields: dict[str, tuple[str, int]] = {}
    for key, val, lineno in entries:
        if key == "segment":
            try:
                segments.append(parse_segment(val))
            except (ValueError, IndexError) as exc:
                raise ConfigError(str(exc), lineno, "segment")
        elif key in fields:
            raise ConfigError(f"duplicate key '{key}'", lineno, key)
        else:
            fields[key] = (val, lineno)

    def need(key: str) -> tuple[str, int]:
        if key not in fields:
            raise ConfigError(f"missing required key '{key}'", header_line, key)
        return fields.pop(key)

    def take(key: str) -> tuple[str, int] | None:
        return fields.pop(key, None)

    if not segments:
        raise ConfigError("scenario needs at least one 'segment' line",
                          header_line, "segment")
    try:
        ts = TimeScale.of(*segments)
    except ValueError as exc:
        raise ConfigError(str(exc), header_line, "segment")

    kind_val, kind_line = need("equation")
    kind = kind_val.strip().lower()
    if kind not in ("linear", "nonlinear"):
        raise ConfigError(f"equation must be linear or nonlinear, got {kind!r}",
                          kind_line, "equation")

    x0_val, x0_line = need("x0")
    x0 = _floats([x0_val], x0_line, "x0")[0]

    a_val, a_line = need("alpha")
    a_toks = a_val.split()
    alphas = _floats(a_toks, a_line, "alpha")
    if not alphas or any(not 0.0 <= a <= 1.0 for a in alphas):
        raise ConfigError("alpha values must lie in [0, 1]", a_line, "alpha")
    # each alpha names its own output file and report line
    tags = [alpha_tag(a) for a in alphas]
    for i, tag in enumerate(tags):
        j = tags.index(tag)
        if j < i:
            raise ConfigError(f"alpha values {a_toks[j]} and {a_toks[i]} share "
                              f"the output tag {tag!r}", a_line, "alpha")

    out = take("outputs")
    outputs = tuple(out[0].split()) if out else ("trajectory",)
    for o in outputs:
        if o not in _OUTPUTS:
            raise ConfigError(f"unknown output {o!r} (choose from {_OUTPUTS})",
                              out[1], "outputs")
    if kind == "nonlinear" and "verdict" in outputs:
        raise ConfigError("a nonlinear scenario has no verdict output",
                          out[1], "outputs")

    lam = u = rhs = lipschitz = window = horizon = steps = None
    if kind == "linear":
        lam_val, lam_line = need("lambda")
        lam = _floats([lam_val], lam_line, "lambda")[0]
        u_val, u_line = need("u")
        u_spec = tuple(u_val.split())
        _forcing_args(u_spec, u_line)  # its errors come before the horizon's
        h_val, h_line = need("horizon")
        htoks = h_val.split()
        if len(htoks) == 2 and htoks[0] == "steps":
            try:
                steps = int(htoks[1])
            except ValueError:
                raise ConfigError("steps must be an integer", h_line, "horizon")
        elif len(htoks) == 2 and htoks[0] == "time":
            horizon = _floats([htoks[1]], h_line, "horizon")[0]
        else:
            raise ConfigError("horizon must be 'steps N' or 'time T'",
                              h_line, "horizon")
        # a sample table is given on the run mesh
        u = build_signal(u_spec, _resolve_mesh(ts, horizon, steps, None)
                         if u_spec[0] == "samples" else None, u_line)
    else:
        if any(a >= 1.0 for a in alphas):
            raise ConfigError("the fixed-point solver needs alpha < 1", a_line, "alpha")
        r_val, r_line = need("rhs")
        rhs = build_rhs(tuple(r_val.split()), r_line)
        l_val, l_line = need("lipschitz")
        lipschitz = _floats([l_val], l_line, "lipschitz")[0]
        w_val, w_line = need("window")
        wt = _floats(w_val.split(), w_line, "window")
        if len(wt) != 2 or wt[1] <= wt[0]:
            raise ConfigError("window must be 'a b' with a < b", w_line, "window")
        window = (wt[0], wt[1])

    for key, (_, lineno) in fields.items():
        raise ConfigError(f"unknown key '{key}'", lineno, key)

    return Scenario(name, ts, kind, x0, alphas, outputs, lam, u, rhs, lipschitz,
                    window, horizon, steps)


def _forcing_args(spec: tuple[str, ...], line: int | None) -> tuple[str, tuple]:
    """A forcing's form and numbers, checked against its form's arity."""
    kind, n = (spec[0] if spec else ""), len(spec) - 1
    if not {"constant": n == 1, "poly": n >= 1, "sin": n == 3,
            "samples": n >= 1}.get(kind, False):
        raise ConfigError(
            f"u must be 'constant c' | 'poly c0 c1 ...' | 'sin amp freq phase' "
            f"| 'samples v0 ...', got {' '.join(spec)!r}", line, "u")
    return kind, _floats(spec[1:], line, "u")


def _fsum(terms: Iterable[float]) -> float:
    """math.fsum, exact on every Python (sum() is not); inf + -inf is NaN."""
    try:
        return math.fsum(terms)
    except ValueError:
        return math.nan


def build_signal(spec: tuple[str, ...], mesh: tuple[float, ...] | None = None,
                 line: int | None = None) -> Signal:
    """Check a forcing's config tokens and build it; a sample table is laid
    on ``mesh``, one value per point."""
    kind, args = _forcing_args(spec, line)
    if kind == "constant":
        return constant(args[0])
    if kind == "poly":
        return Closure(
            lambda t: _fsum(c * t ** k for k, c in enumerate(args)),
            derivative=lambda t: _fsum(k * c * t ** (k - 1)
                                       for k, c in enumerate(args) if k > 0))
    if kind == "sin":
        return sine(*args)
    if mesh is None:
        raise ConfigError("sample tables need a mesh", field_="u")
    if len(args) != len(mesh):
        raise ConfigError(
            f"sample table has {len(args)} values but the mesh has "
            f"{len(mesh)} points", field_="u")
    return Sampled(mesh, args)


def build_rhs(spec: tuple[str, ...],
              line: int | None = None) -> Callable[[float, float], float]:
    """Materialize a nonlinear right-hand side f(t, x) from config tokens."""
    kind = spec[0] if spec else ""
    args = _floats(spec[1:], line, "rhs")
    if kind == "affine" and len(args) == 2:
        lam, c = args
        return lambda t, x: lam * x + c
    if kind == "zero" and not args:
        return lambda t, x: 0.0
    if kind == "sin_x" and len(args) == 1:
        amp = args[0]
        return lambda t, x: amp * math.sin(x)
    raise ConfigError(
        f"rhs must be 'affine lam c' | 'zero' | 'sin_x amp', got {' '.join(spec)!r}",
        line, "rhs")
