"""Every config the grammar of ``cfts.config`` admits ends in documented
output or a documented exit.

A hypothesis strategy writes one-scenario configs: all three segment kinds
with gaps and lengths near the membership tolerance, all four forcings and
all three right-hand sides, magnitudes up to 1e300, both equations, and now
and then a malformed token, the other subcommand or alpha = 1/(1 + h) for a
grid step h, whose kernel factor vanishes on the grid.  Each config runs
through ``cli.main`` in process, twice.  Dense runs are cut into at most
``DENSE_DIVISIONS`` pieces and grids have at most six points, so no mesh
exceeds a few hundred points.
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from cfts.cli import main
from cfts.errors import CftsError
from cfts.linear import _resolve_mesh
from cfts.timescale import MEMBERSHIP_RTOL, TimeScale, parse_segment

#: README's exit codes for a run whose stdout stays open.
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}

#: A dense run a few membership tolerances long next to a point: cut into
#: DENSE_DIVISIONS pieces, its mesh points would snap together.
SHORT_RUN = """\
[scenario s]
segment = interval 0 {length}
segment = grid 0.5 1 1
equation = linear
lambda = 0
u = constant 1
x0 = 0
alpha = {alpha}
horizon = steps 1
"""

#: A grid whose step is below the tolerance at its magnitude: 1e16 + 1
#: rounds to 1e16, so two of its points coincide.
COLLAPSED_GRID = """\
[scenario s]
segment = interval 0 1
segment = grid 1e16 1 3
equation = linear
lambda = 0
u = constant 0
x0 = 0
alpha = 0
horizon = steps 0
"""

#: A stable verdict whose p_alpha = lambda*alpha/K underflows to -0.0.
SUBNORMAL_ALPHA = """\
[scenario s]
segment = interval 0 1
equation = linear
lambda = -1
u = constant 0
x0 = 0
alpha = 5e-324
horizon = steps 0
outputs = trajectory verdict
"""


#: p = lambda*alpha/K = -1/3 against the gap mu = 3 after the grid: exit 3.
GAP_KILLS_P = """\
[scenario s]
segment = grid 0 1 5
segment = point 7
equation = linear
lambda = -1
u = constant 1
x0 = 1
alpha = 0.5
horizon = steps 1
"""

#: alpha_bar = alpha/(alpha - 1) = -4, so the kernel factor 1 + mu*alpha_bar
#: vanishes on the grid of step 0.25 before the interval: exit 3.
GRID_KILLS_KERNEL = """\
[scenario s]
segment = grid 0 0.25 5
segment = interval 2 3
equation = linear
lambda = 0
u = constant 0
x0 = 0
alpha = 0.8
horizon = time 2.5
"""


def _now_and_then(n):
    """True about once in n draws; False in the simplest example."""
    return st.sampled_from((False,) * (n - 1) + (True,))


def _tol(t):
    return MEMBERSHIP_RTOL * max(1.0, abs(t))


_MAGNITUDES = (0.0, 5e-324, 1e-300, 1e-12, 1e-6, 0.5, 1.0, 3.0, 1e6, 1e16, 1e300)

numbers = st.one_of(
    st.floats(-5.0, 5.0),
    st.integers(-3, 3).map(float),
    st.builds(lambda m, s: s * m, st.sampled_from(_MAGNITUDES), st.sampled_from((1, -1))))


def _token(x):
    return repr(float(x))


@st.composite
def tokens(draw, values=numbers):
    """A number's token, now and then one the parser must reject."""
    if draw(_now_and_then(151)):
        return draw(st.sampled_from(("nan", "inf", "-inf", "x", "1e400")))
    return _token(draw(values))


@st.composite
def spans(draw, pos):
    """A length or gap after pos: ordinary, scaled up, or a small multiple of
    the membership tolerance there."""
    kind = draw(st.sampled_from(("plain", "plain", "huge", "tol")))
    if kind == "plain":
        return draw(st.floats(0.05, 3.0))
    if kind == "huge":
        return draw(st.sampled_from((1e6, 1e16, 1e300)))
    factor = draw(st.sampled_from((0.5, 1.0, 1.0 + 2.0 ** -50, 2.0, 3.0, 256.0, 600.0)))
    return factor * _tol(pos)


@st.composite
def segments(draw):
    """Segment lines in increasing order, and the points where they start
    and end (candidate horizons and windows)."""
    pos = draw(st.sampled_from((-1.0, 0.5, -1e300)) | st.floats(-3.0, 0.0)) \
        if draw(_now_and_then(5)) else 0.0
    lines, marks = [], [pos]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("interval", "grid", "point")))
        if kind == "interval":
            end = pos + draw(spans(pos))
            lines.append(f"interval {_token(pos)} {_token(end)}")
            pos = end
        elif kind == "grid":
            step, count = draw(spans(pos)), draw(st.integers(1, 6))
            lines.append(f"grid {_token(pos)} {_token(step)} {count}")
            pos += step * (count - 1)
        else:
            lines.append(f"point {_token(pos)}")
        marks.append(pos)
        # now and then touching or overlapping the next segment
        pos += draw(st.sampled_from((0.0, -0.25))) if draw(_now_and_then(10)) \
            else draw(spans(pos))
    return lines, marks


@st.composite
def forcings(draw, segs, horizon):
    kind = draw(st.sampled_from(("constant", "poly", "sin", "samples")))
    if kind == "constant":
        args = [draw(tokens())]
    elif kind == "poly":
        args = draw(st.lists(tokens(), min_size=1, max_size=3))
    elif kind == "sin":
        args = [draw(tokens()) for _ in range(3)]
    else:
        try:  # one value per point of the run mesh, or a count that is off
            ts = TimeScale.of(*map(parse_segment, segs))
            key, val = horizon.split()
            n = len(_resolve_mesh(ts, float(val) if key == "time" else None,
                                  int(val) if key == "steps" else None, None))
        except (ValueError, ArithmeticError, LookupError, CftsError):
            n = 3
        n = draw(st.sampled_from((n, n, n, max(1, n - 1), n + 1)))
        args = [draw(tokens()) for _ in range(n)]
    return " ".join([kind, *args])


@st.composite
def configs(draw):
    """(subcommand, config text) for one scenario."""
    segs, marks = draw(segments())
    linear = draw(st.booleans())
    top = 1.0 if linear or draw(_now_and_then(21)) else 0.99
    alpha_values = st.sampled_from((0.0, 0.25, 0.5, 0.9, top)) | st.floats(0.0, top)
    steps = [float(s.split()[2]) for s in segs if s.startswith("grid")]
    if steps and draw(_now_and_then(5)):
        # the kernel factor 1 + h*alpha_bar vanishes at graininess h
        alpha_values = st.sampled_from([1.0 / (1.0 + h) for h in steps])
    # two alphas with one tag now and then
    alphas = draw(st.lists(alpha_values, min_size=1, max_size=3,
                           unique_by=None if draw(_now_and_then(21))
                           else lambda a: f"{a:g}"))
    lines = [f"segment = {s}" for s in segs]
    lines.append(f"equation = {'linear' if linear else 'nonlinear'}")
    lines.append(f"x0 = {draw(tokens())}")
    lines.append("alpha = " + " ".join(map(_token, alphas)))
    extras = ("verdict", "residuals") if linear or draw(_now_and_then(21)) \
        else ("residuals",)
    outputs = ["trajectory", *draw(st.lists(st.sampled_from(extras), max_size=2,
                                            unique=True))]
    lines.append("outputs = " + " ".join(outputs))
    if linear:
        horizon = draw(st.one_of(
            st.integers(0, 6).map(lambda n: f"steps {n}"),
            (numbers if draw(_now_and_then(5)) else st.sampled_from(marks)).map(
                lambda t: f"time {_token(t)}")))
        lines.append(f"lambda = {draw(tokens())}")
        lines.append(f"u = {draw(forcings(segs, horizon))}")
        lines.append(f"horizon = {horizon}")
    else:
        rhs = draw(st.one_of(
            st.tuples(tokens(), tokens()).map(lambda lc: "affine " + " ".join(lc)),
            st.just("zero"),
            tokens().map(lambda amp: f"sin_x {amp}")))
        points = sorted(set(marks))
        if len(points) > 1 and not draw(_now_and_then(5)):
            i = draw(st.integers(0, len(points) - 2))
            a, b = points[i], draw(st.sampled_from(points[i + 1:]))
        else:
            a, b = sorted((draw(numbers), draw(numbers)))
        lines.append(f"rhs = {rhs}")
        lines.append(f"lipschitz = {draw(tokens(st.sampled_from((0.1, 0.5, 0.8, 2.0) * 3 + (0.0,))))}")
        lines.append(f"window = {_token(a)} {_token(b)}")
    command = "simulate" if linear else "solve-nonlinear"
    if draw(_now_and_then(16)):
        command = "solve-nonlinear" if linear else "simulate"
    body = "\n".join(draw(st.permutations(lines)))
    return command, f"[scenario s]\n{body}\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _outputs(out):
    return {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else None


def _check_success(out, text):
    """Files named by the alpha tags, with finite values but the alpha = 1
    last-row residual, which is NaN."""
    alphas = next(line for line in text.splitlines()
                  if line.startswith("alpha =")).split("=")[1].split()
    names = {f"s_alpha{float(a):g}.csv" for a in alphas}
    extra = set(_outputs(out)) - names
    assert extra <= {"s_verdicts.csv", "s_report.txt"}, extra
    for a in map(float, alphas):
        with open(out / f"s_alpha{a:g}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x", "residual"]
        values = [[float(v) for v in row] for row in rows[1:]]
        assert values
        for k, (t, x, r) in enumerate(values):
            last = k == len(values) - 1
            assert math.isfinite(t) and math.isfinite(x), (a, k)
            assert math.isnan(r) if a == 1.0 and last else math.isfinite(r), (a, k)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs())
@example(("simulate", SHORT_RUN.format(length="1e-12", alpha="1")))
@example(("simulate", SHORT_RUN.format(length="1e-12", alpha="0.5")))
@example(("simulate", SHORT_RUN.format(length="2e-12", alpha="0.5 1")))
@example(("simulate", SHORT_RUN.format(length="1e-10", alpha="0.5 1")))
@example(("simulate", COLLAPSED_GRID))
@example(("simulate", SUBNORMAL_ALPHA))
@example(("simulate", GAP_KILLS_P))
@example(("simulate", GRID_KILLS_KERNEL))
def test_every_config_ends_in_a_documented_outcome(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "in.config"
        cfg.write_text(text)
        runs = []
        for tag in ("first", "second"):
            out = Path(tmp) / tag
            code, stdout, stderr = _run([command, str(cfg), "--out", str(out)])
            event(f"exit {code}")
            runs.append((code, stdout, stderr.replace(str(out), "OUT"), _outputs(out)))
            assert code in DOCUMENTED_EXITS, (code, stderr)
            assert "Traceback" not in stderr
            if code:
                assert stderr.endswith("\n") and stderr.count("\n") == 1, stderr
                assert stdout == "" and not out.exists()
            else:
                _check_success(out, text)
        assert runs[0] == runs[1]
