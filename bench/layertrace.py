"""Per-layer tracing of an in-process CLI run, from outside the program.

``Tracer.install()`` replaces the entry points of each ``cfts`` module
with timing wrappers at every binding a caller looks up: a function
imported by name into another module (``_quad`` into ``fractional`` and
``linear``, ``residual_linear`` into ``cli``, ...) is rebound there too,
and methods are wrapped on their class.  ``uninstall()`` puts every
original back.

Busy time is thread CPU time, so the jobs ``cmd_simulate`` runs on a
thread pool are charged only for the time they hold the interpreter, not
for the time they wait for it.  Counters are kept per thread and summed at
the end.  A wrapped call's self time is its duration minus the time of the
wrapped calls it makes on the same thread; ``<layer>.self_s`` sums those
over the layer, so the layers' self times add up to the traced CPU time.
Coarse spans (commands, jobs, solvers, parsing, CSV writes) are also kept
with wall-clock bounds and their parent, which for a pool job is the span
that submitted it.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass

LAYERS = ("config", "timescale", "signals", "calculus", "fractional", "linear",
          "nonlinear", "stability", "cli")


class _Frame:
    __slots__ = ("name", "parent", "child", "span")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child = 0.0   # CPU time of wrapped calls made on this thread
        self.span = None   # id when recorded as a coarse span


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.adopted: _Frame | None = None  # parent for a pool job's first frame
        self.depth: dict[str, int] = {}
        self.agg: dict[str, list] = {}      # name -> [calls, outermost CPU s, self CPU s]
        self.counts: dict[str, float] = {}

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: str
    start: float
    end: float
    cpu: float


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []

    # -- bookkeeping ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _open(self, name: str, record: bool) -> _Frame:
        st = self._state()
        frame = _Frame(name, st.stack[-1] if st.stack else st.adopted)
        if record:
            frame.span = next(self._ids)
        st.stack.append(frame)
        return frame

    def _recorded_parent(self, frame: _Frame) -> int | None:
        p = frame.parent
        while p is not None and p.span is None:
            p = p.parent
        return None if p is None else p.span

    def _close(self, frame: _Frame, cpu: float, w0: float, w1: float) -> None:
        st = self._state()
        st.stack.pop()
        if st.stack:
            st.stack[-1].child += cpu
        agg = st.agg.setdefault(frame.name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += cpu
        agg[2] += cpu - frame.child
        if frame.span is not None:
            self.spans.append(Span(frame.span, frame.name, self._recorded_parent(frame),
                                   threading.current_thread().name, w0, w1, cpu))

    def wrap(self, fn, name: str, post=None, record: bool = False):
        """Timing wrapper for ``fn``.  ``post(state, frame, args, result)``
        adds counters after a successful call.  The body repeats _open and
        _close inline because it runs millions of times per traced run."""
        local, state = self._local, self._state
        cpu_clock, wall_clock = time.thread_time, time.perf_counter
        ids, spans, recorded_parent = self._ids, self.spans, self._recorded_parent

        def wrapper(*args, **kwargs):
            st = getattr(local, "st", None) or state()
            stack = st.stack
            frame = _Frame(name, stack[-1] if stack else st.adopted)
            if record:
                frame.span = next(ids)
                w0 = wall_clock()
            depth = st.depth.get(name, 0)
            st.depth[name] = depth + 1
            stack.append(frame)
            c0 = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = cpu_clock() - c0
                stack.pop()
                st.depth[name] = depth
                if stack:
                    stack[-1].child += cpu
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                if depth == 0:  # recursion is counted once in the inclusive time
                    agg[1] += cpu
                agg[2] += cpu - frame.child
                if record:
                    spans.append(Span(frame.span, name, recorded_parent(frame),
                                      threading.current_thread().name, w0,
                                      wall_clock(), cpu))
            if post is not None:
                post(st, frame, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.bench_span = name
        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, fn, new) -> None:
        """Rebind ``fn`` in every cfts module that holds it under any name."""
        for mod in _cfts_modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        """Wrap every entry point in ``_ENTRY_POINTS`` that this version of
        cfts has; a missing one is skipped and its metrics read 0."""
        import importlib

        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner_path, attr, name, post, record in _ENTRY_POINTS:
            modname, _, clsname = owner_path.partition(":")
            owner = importlib.import_module(f"cfts.{modname}")
            if clsname:
                owner = getattr(owner, clsname)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            new = self.wrap(fn, name, post, record)
            if clsname:
                self._patch(owner, attr, new)
            else:
                self._patch_everywhere(fn, new)
        cli = importlib.import_module("cfts.cli")
        if hasattr(cli, "ThreadPoolExecutor"):
            self._patch(cli, "ThreadPoolExecutor", _traced_pool(self, cli.ThreadPoolExecutor))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def totals(self) -> tuple[dict[str, list], dict[str, float]]:
        """Per-name [calls, inclusive CPU s, self CPU s] and counters, summed over threads."""
        agg: dict[str, list] = {}
        counts: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (n, incl, self_t) in st.agg.items():
                a = agg.setdefault(name, [0, 0.0, 0.0])
                a[0] += n
                a[1] += incl
                a[2] += self_t
            for key, n in st.counts.items():
                counts[key] = counts.get(key, 0) + n
        return agg, counts

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).  A ``*_s`` named after
        an entry point is its inclusive busy time; ``<layer>.self_s`` is the
        layer's exclusive busy time; ``trace.cpu_s`` is their sum."""
        agg, counts = self.totals()

        def calls(name):
            return agg.get(name, (0, 0.0, 0.0))[0]

        def busy(name):
            return agg.get(name, (0, 0.0, 0.0))[1]

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        pool = [s for s in self.spans if s.name == "cli.pool"]
        m = {
            "timescale.locate_calls": (calls("timescale.locate"), "count"),
            "timescale.locate_s": (busy("timescale.locate"), "s"),
            "timescale.locate_us_per_call": (
                per(busy("timescale.locate"), calls("timescale.locate"), 1e6), "us"),
            "timescale.atoms_calls": (calls("timescale.atoms"), "count"),
            "timescale.atoms_yielded": (counts.get("atoms_yielded", 0), "count"),
            "timescale.atoms_s": (busy("timescale.atoms"), "s"),
            "timescale.mesh_points": (counts.get("mesh_points", 0), "count"),
            "signals.value_calls": (calls("signals.value"), "count"),
            "signals.value_s": (busy("signals.value"), "s"),
            "calculus.quad_calls": (calls("calculus.quad"), "count"),
            "calculus.quad_s": (busy("calculus.quad"), "s"),
            "fractional.cf_delta_left_calls": (calls("fractional.cf_delta_left"), "count"),
            "fractional.cf_delta_left_s": (busy("fractional.cf_delta_left"), "s"),
            "fractional.atoms_per_call": (
                per(counts.get("cf_atoms", 0), calls("fractional.cf_delta_left")), "count"),
            "linear.trajectory_s": (busy("linear.trajectory"), "s"),
            "linear.trajectory_us_per_step": (
                per(busy("linear.trajectory"), counts.get("linear.trajectory.steps", 0), 1e6), "us"),
            "linear.classical_s": (busy("linear.classical"), "s"),
            "linear.residual_calls": (calls("linear.residual"), "count"),
            "linear.residual_s": (busy("linear.residual"), "s"),
            "nonlinear.picard_s": (busy("nonlinear.picard"), "s"),
            "nonlinear.picard_iterations": (counts.get("picard_iterations", 0), "count"),
            "nonlinear.picard_us_per_point_iter": (
                per(busy("nonlinear.picard"), counts.get("picard_point_iters", 0), 1e6), "us"),
            "nonlinear.residual_s": (busy("nonlinear.residual"), "s"),
            "stability.classify_calls": (calls("stability.classify"), "count"),
            "stability.classify_s": (busy("stability.classify"), "s"),
            "config.parse_s": (busy("config.parse"), "s"),
            "config.segments": (counts.get("segments", 0), "count"),
            "cli.write_csv_s": (busy("cli.write_csv"), "s"),
            "cli.csv_bytes": (counts.get("csv_bytes", 0), "bytes"),
            "cli.pool_jobs": (counts.get("pool_jobs", 0), "count"),
            "cli.pool_s": (sum(s.end - s.start for s in pool), "s"),
        }
        total = 0.0
        for layer in LAYERS:
            self_s = sum(a[2] for name, a in agg.items() if name.split(".")[0] == layer)
            m[f"{layer}.self_s"] = (self_s, "s")
            total += self_s
        m["trace.cpu_s"] = (total, "s")
        return m

    def span_tree(self) -> list[str]:
        """Indented lines of the coarse spans: name, thread, wall and CPU time."""
        children: dict[int | None, list[Span]] = {}
        for s in sorted(self.spans, key=lambda s: s.start):
            children.setdefault(s.parent, []).append(s)
        lines: list[str] = []

        def walk(parent, depth):
            for s in children.get(parent, []):
                lines.append(f"{'  ' * depth}{s.name} [{s.thread}] "
                             f"wall {s.end - s.start:.4f} s, cpu {s.cpu:.4f} s")
                walk(s.id, depth + 1)

        walk(None, 0)
        return lines


def _cfts_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cfts" or name.startswith("cfts."))]


def _post_atoms(st, frame, args, result):
    st.add("atoms_yielded", len(result))
    if frame.parent is not None and frame.parent.name == "fractional.cf_delta_left":
        st.add("cf_atoms", len(result))


def _post_mesh(st, frame, args, result):
    st.add("mesh_points", len(result))


def _post_parse(st, frame, args, result):
    st.add("segments", sum(len(scn.ts.segments) for scn in result))


def _post_trajectory(st, frame, args, result):
    st.add(f"{frame.name}.steps", len(result.mesh) - 1)


def _post_picard(st, frame, args, result):
    st.add("picard_iterations", result.iterations)
    st.add("picard_point_iters", result.iterations * len(result.solution.mesh))


def _post_write_csv(st, frame, args, result):
    st.add("csv_bytes", args[0].stat().st_size)


#: (module[:class], attribute, span name, post hook, kept as a coarse span)
_ENTRY_POINTS = [
    ("timescale:TimeScale", "_locate", "timescale.locate", None, False),
    ("timescale:TimeScale", "atoms", "timescale.atoms", _post_atoms, False),
    ("timescale:TimeScale", "mesh", "timescale.mesh", _post_mesh, False),
    ("config", "parse_config", "config.parse", _post_parse, True),
    ("signals", "value", "signals.value", None, False),
    ("calculus", "_quad", "calculus.quad", None, False),
    ("calculus", "exp_ts", "calculus.exp_ts", None, False),
    ("calculus", "delta_derivative", "calculus.delta_derivative", None, False),
    ("fractional", "cf_delta_left", "fractional.cf_delta_left", None, False),
    ("linear", "solve_linear_trajectory", "linear.trajectory", _post_trajectory, True),
    ("linear", "classical_trajectory", "linear.classical", _post_trajectory, True),
    ("linear", "residual_linear", "linear.residual", None, False),
    ("linear", "classical_residual", "linear.classical_residual", None, False),
    ("nonlinear", "picard_solve", "nonlinear.picard", _post_picard, True),
    ("nonlinear", "residual_nonlinear", "nonlinear.residual", None, False),
    ("stability", "classify_hz", "stability.classify", None, False),
    ("stability", "classify_r", "stability.classify", None, False),
    ("cli", "main", "cli.main", None, True),
    ("cli", "cmd_simulate", "cli.simulate", None, True),
    ("cli", "cmd_stability", "cli.stability", None, True),
    ("cli", "cmd_solve_nonlinear", "cli.solve_nonlinear", None, True),
    ("cli", "_linear_trajectory", "cli.job", None, True),
    ("cli", "_write_csv", "cli.write_csv", _post_write_csv, True),
]


def _traced_pool(tracer: Tracer, base):
    """Executor class that spans its lifetime as ``cli.pool`` and runs each
    job with the submitting span as parent."""

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_frame = tracer._open("cli.pool", record=True)
            self._bench_t0 = (time.thread_time(), time.perf_counter())

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer._state().stack[-1]
            tracer._state().add("pool_jobs", 1)

            def job():
                st = tracer._state()
                st.adopted = parent
                try:
                    return fn(*args, **kwargs)
                finally:
                    st.adopted = None

            return super().submit(job)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            frame, self._bench_frame = self._bench_frame, None
            if frame is not None:
                c0, w0 = self._bench_t0
                tracer._close(frame, time.thread_time() - c0, w0, time.perf_counter())

    return TracedPool
