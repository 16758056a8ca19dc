#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cfts CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one table

NAME is one of grid-kernel, hybrid-lookup, picard-nonlinear,
stability-sweep (see workloads.WHY).  The generator writes the workload's
config files from the seed; the CLI sees only those files.

--trace 0 (end to end): one untimed warm-up invocation, so that .pyc
compilation is not counted, then fresh ``python -m cfts.cli`` processes
(PYTHONPATH=src) in a closed loop, one at a time, for S seconds.  Each
invocation's wall time runs from spawn to exit and its peak RSS comes from
os.wait4 for that process alone; each is checked against the reference
(check.py) after it exits.  Before each invocation a probe process times
spawn until ``cfts.cli`` is imported, which is the set-up a CLI user pays
on every run.  Reported: medians of wall_s, setup_s and peak_rss_mb,
rows_per_s (CSV rows of one invocation over wall_s) and ok_ratio, the
complement of failed_ratio (failed / attempted invocations), which is
printed too.

--trace 1 (per layer): in this process, ``cfts.cli.main`` runs once plain
and once under layertrace's wrappers on the same inputs, both checked;
their wall ratio is trace.overhead_ratio.  The layer scaling sweep
(sweep.py) and the scipy import cost follow.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layertrace  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402

MIN_INVOCATIONS = 3
MIN_SETUP_PROBES = 5
SCIPY_IMPORT_PROBES = 3
INVOKE_TIMEOUT_S = 150
PROBE = "import time, cfts.cli; print(repr(time.monotonic()))"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CFTS_TOL", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Spawned:
    returncode: int
    start: float     # time.monotonic() just before spawn
    wall: float      # spawn to exit, seconds
    rss_mb: float    # peak resident set of this process
    log: Path        # its stdout and stderr


def spawn(cmd: list[str], log: Path) -> Spawned:
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(INVOKE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, start, wall, usage.ru_maxrss / 1024.0, log)


def setup_probe(work: Path) -> float:
    res = spawn([sys.executable, "-c", PROBE], work / "probe.log")
    text = res.log.read_text()
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{text}")
    return float(text.split()[-1]) - res.start


def scipy_import_seconds(work: Path) -> float:
    """Cumulative time of the scipy imports that ``import cfts.cli`` performs
    (python -X importtime); 0 when importing the CLI does not import scipy."""
    samples = []
    for _ in range(SCIPY_IMPORT_PROBES):
        res = spawn([sys.executable, "-X", "importtime", "-c", "import cfts.cli"],
                    work / "importtime.log")
        if res.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{res.log.read_text()}")
        samples.append(_top_level_scipy_us(res.log.read_text()) / 1e6)
    return statistics.median(samples)


def _top_level_scipy_us(text: str) -> int:
    # Entries are printed when an import finishes, children first and one
    # level deeper; read in reverse, each entry's parent precedes it.
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cum)))
    total, ancestors = 0, []
    for depth, name, cum in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        parent_scipy = bool(ancestors) and ancestors[-1][2]
        if is_scipy and not parent_scipy:
            total += cum
        ancestors.append((depth, name, is_scipy or parent_scipy))
    return total


# -- end to end ---------------------------------------------------------------


def run_untraced(w: workloads.Workload, work: Path, seconds: float):
    def invoke(i: int):
        out = work / f"out{i}"
        out.mkdir()
        res = spawn([sys.executable, "-m", "cfts.cli", *w.argv(out)], work / f"cli{i}.log")
        errors = check.check(w, out, res.returncode)
        if errors:
            sys.stderr.write(f"{w.name} invocation {i} failed: {'; '.join(errors[:3])}\n"
                             + res.log.read_text()[-2000:])
        shutil.rmtree(out, ignore_errors=True)
        return res, errors

    warm, warm_errors = invoke(0)
    if warm_errors:
        return {"correct": False, "attempted": 1, "failed": 1,
                "walls": [warm.wall], "rss": [warm.rss_mb], "setups": []}
    setups, walls, rss, failed = [], [], [], 0
    start = time.monotonic()
    while True:
        setups.append(setup_probe(work))
        res, errors = invoke(len(walls) + 1)
        walls.append(res.wall)
        rss.append(res.rss_mb)
        failed += bool(errors)
        elapsed = time.monotonic() - start
        if len(walls) >= MIN_INVOCATIONS and elapsed + statistics.median(walls) > seconds:
            break
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_probe(work))
    return {"correct": failed == 0, "attempted": len(walls), "failed": failed,
            "walls": walls, "rss": rss, "setups": setups}


def end_to_end_metrics(w: workloads.Workload, r) -> dict[str, tuple[float, str]]:
    wall = statistics.median(r["walls"])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(r["setups"]) if r["setups"] else wall, "s"),
        "rows_per_s": (w.rows / wall, "rows/s"),
        "peak_rss_mb": (statistics.median(r["rss"]), "MB"),
        "ok_ratio": (1.0 - r["failed"] / r["attempted"], "ratio"),
    }


# -- per layer ----------------------------------------------------------------


def _call_main(cli, w: workloads.Workload, out: Path) -> tuple[int, float, str]:
    out.mkdir()
    argv = w.argv(out)
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, time.perf_counter() - t0, sink.getvalue()


def run_traced(w: workloads.Workload, work: Path):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("CFTS_TOL", None)
    import cfts.cli

    failed = 0
    rc, plain_wall, log = _call_main(cfts.cli, w, work / "plain")
    errors = check.check(w, work / "plain", rc)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        rc, traced_wall, log_t = _call_main(cfts.cli, w, work / "traced")
    finally:
        tracer.uninstall()
    errors_t = check.check(w, work / "traced", rc)
    for label, errs, text in (("plain", errors, log), ("traced", errors_t, log_t)):
        if errs:
            failed += 1
            sys.stderr.write(f"{w.name} {label} run failed: {'; '.join(errs[:3])}\n{text[-2000:]}")
    metrics = tracer.metrics()
    metrics["trace.main_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    metrics.update(sweep.run())
    metrics["calculus.scipy_import_s"] = (scipy_import_seconds(work), "s")
    return {"correct": failed == 0, "attempted": 2, "failed": failed,
            "tree": tracer.span_tree()}, metrics


def profile_lines(metrics) -> list[str]:
    cpu = metrics["trace.cpu_s"][0] or 1.0

    def share(*names):
        return sum(metrics[n][0] for n in names) / cpu

    lines = [f"  share of traced CPU {cpu:.3f} s: "
             f"locate {share('timescale.locate_s'):.1%}, "
             f"cf_delta_left {share('fractional.cf_delta_left_s'):.1%}, "
             f"classify+write_csv {share('stability.classify_s', 'cli.write_csv_s'):.1%}"]
    self_times = sorted(((metrics[f'{layer}.self_s'][0], layer)
                         for layer in layertrace.LAYERS), reverse=True)
    lines.append("  self time by layer: " + ", ".join(f"{layer} {s:.3f} s"
                                                     for s, layer in self_times))
    return lines


# -- driver -----------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool, work: Path):
    wdir = work / name
    wdir.mkdir()
    w = workloads.generate(name, seed, wdir)
    if trace:
        result, metrics = run_traced(w, wdir)
        print(f"{name} (seed {seed}, traced in-process run + layer sweep)")
        for line in result["tree"]:
            print("  " + line)
        for line in profile_lines(metrics):
            print(line)
    else:
        result = run_untraced(w, wdir, seconds)
        metrics = end_to_end_metrics(w, result)
        print(f"{name} (seed {seed}, {result['attempted']} timed invocations, "
              f"{w.rows} CSV rows each)")
        print(f"  failed_ratio {result['failed'] / result['attempted']:.4g} ratio "
              f"({result['failed']}/{result['attempted']})")
        print("  wall samples (s): " + " ".join(f"{x:.3f}" for x in sorted(result["walls"])))
        print("  setup samples (s): " + " ".join(f"{x:.3f}" for x in sorted(result["setups"])))
    for key, (value, unit) in metrics.items():
        print(f"  {key} {value:.6g} {unit}")
    return result, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cfts" / "cli.py").is_file():
        print(f"error: {SRC / 'cfts' / 'cli.py'} not found; run from a cfts checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        runs = [run_one(n, args.seed, args.seconds, bool(args.trace), work) for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()

    if len(runs) == 1:
        metrics = runs[0][1]
    else:
        metrics = {f"{n}.{k}": v for n, (_, m) in zip(names, runs) for k, v in m.items()}
    summary = {
        "correct": all(r["correct"] for r, _ in runs),
        "attempted": sum(r["attempted"] for r, _ in runs),
        "failed": sum(r["failed"] for r, _ in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
