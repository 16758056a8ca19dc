"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py

They run tiny configs, not the benchmark's workloads, so they take seconds.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import layertrace
import reference as ref
import run
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def _tiny_simulate(work: Path) -> workloads.Workload:
    """Hybrid scale with a dense run, three orders including the classical one."""
    u = ref.Sine(1.0, 1.0, 0.4)
    x0 = -u(0.0) / workloads.LAM
    segs = [ref.Grid(0.0, 0.1, 6), ref.Point(0.7), ref.Interval(0.9, 1.1)]
    text = workloads._linear_scenario("tiny", segs, u, x0, (0.3, 0.7, 1.0), "horizon = time 1.1")
    (work / "tiny.config").write_text(text)
    w = workloads.Workload("tiny", ["simulate", str(work / "tiny.config"), "--out", "{out}"])
    w.outputs.update(workloads._linear_expected(segs, 1.1, u, x0, (0.3, 0.7, 1.0), "tiny"))
    return w


def _tiny_nonlinear(work: Path) -> workloads.Workload:
    (work / "nl.config").write_text(
        "[scenario nl]\nsegment = grid 0 0.01 51\nequation = nonlinear\n"
        "rhs = sin_x 0.8\nlipschitz = 0.8\nwindow = 0 0.5\nx0 = 1\nalpha = 0.5\n")
    pts = [k * 0.01 for k in range(51)]
    xs = ref.picard(pts, 0.8, 1.0, 0.5, workloads.CFTS_TOL)
    res = ref.fractional_residual(pts, [False] * 50, xs, 0.5, lambda t, x: 0.8 * math.sin(x))
    return workloads.Workload("nl", ["solve-nonlinear", str(work / "nl.config"), "--out", "{out}"],
                              outputs={"nl_alpha0.5.csv": workloads.Trajectory(pts, xs, res)},
                              reports={"nl_report.txt": 1})


def _bindings():
    import cfts
    import cfts.cli  # noqa: F401  (snapshot the CLI module too)
    from cfts.timescale import TimeScale
    mods = layertrace._cfts_modules()
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("TimeScale", k): v for k, v in vars(TimeScale).items()})
    return cfts, snap


def _traced_run(work: Path, w: workloads.Workload):
    import cfts.cli
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        rc, _, log = run._call_main(cfts.cli, w, work)
    finally:
        tracer.uninstall()
    assert check.check(w, work, rc) == [], log
    return tracer.metrics()


def test_uninstall_restores_every_binding(tmp_path):
    cfts, before = _bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        import cfts.cli
        import cfts.linear
        assert cfts.linear.cf_delta_left is not before[("cfts.linear", "cf_delta_left")]
        assert cfts.cli.residual_linear is not before[("cfts.cli", "residual_linear")]
        assert cfts.fractional._quad is not before[("cfts.fractional", "_quad")]
    finally:
        tracer.uninstall()
    _, after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert not any(hasattr(v, "bench_span") for v in after.values())


def test_traced_counts_repeat_exactly(tmp_path):
    counted = ("_calls", "_yielded", "atoms_per_call", "picard_iterations", "csv_bytes",
               "pool_jobs", "mesh_points", "segments")
    runs = []
    for i in range(2):
        m = {}
        for make in (_tiny_simulate, _tiny_nonlinear):
            d = tmp_path / f"{make.__name__}{i}"
            d.mkdir()
            w = make(d)
            m.update({f"{w.name}:{k}": v for k, (v, _) in _traced_run(d / "out", w).items()
                      if k.endswith(counted)})
        runs.append(m)
    assert runs[0] == runs[1]
    assert runs[0]["tiny:calculus.quad_calls"] > 0
    assert runs[0]["tiny:cli.pool_jobs"] == 3
    assert runs[0]["nl:nonlinear.picard_iterations"] > 1
    assert runs[0]["nl:fractional.atoms_per_call"] > 1


def test_self_times_sum_to_traced_cpu(tmp_path):
    w = _tiny_simulate(tmp_path)
    m = _traced_run(tmp_path / "out", w)
    total = sum(m[f"{layer}.self_s"][0] for layer in layertrace.LAYERS)
    assert total == pytest.approx(m["trace.cpu_s"][0])
    assert m["fractional.cf_delta_left_s"][0] <= m["linear.residual_s"][0]


def test_wrong_reference_fails_the_check_and_counts(tmp_path):
    w = _tiny_simulate(tmp_path)
    result = run.run_untraced(w, tmp_path, seconds=0.0)
    assert (result["attempted"], result["failed"]) == (run.MIN_INVOCATIONS, 0)
    assert run.end_to_end_metrics(w, result)["ok_ratio"][0] == 1.0

    name = "tiny_alpha0.7.csv"
    good = w.outputs[name]
    bad_x = list(good.x)
    bad_x[7] += 1e-6
    w.outputs[name] = dataclasses.replace(good, x=bad_x)
    result = run.run_untraced(w, tmp_path, seconds=0.0)
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]
    assert run.end_to_end_metrics(w, result)["ok_ratio"][0] == 0.0


def test_check_rejects_wrong_status_residual_and_rows(tmp_path):
    w = workloads.stability_sweep(3, tmp_path)
    table = w.outputs["table.csv"]
    out = tmp_path / "out"
    out.mkdir()
    with open(out / "table.csv", "w") as fh:
        fh.write("lambda,alpha,h,status,mechanism,p_alpha,threshold_low,threshold_high\n")
        for (lam, alpha, h), ok in zip(table.rows[:3], table.statuses):
            p = lam * alpha / (1.0 - lam * (1.0 - alpha))
            fh.write(f"{lam!r},{alpha!r},{h!r},{min(ok)},x,{p!r},0,0\n")
    table.rows, table.statuses = table.rows[:3], table.statuses[:3]
    assert check.check(w, out, 0) == []
    table.statuses[1] = frozenset({"boundary"})
    assert "status" in check.check(w, out, 0)[0]
    table.rows.append(table.rows[0])
    assert "rows" in check.check(w, out, 0)[0]

    nl = _tiny_nonlinear(tmp_path)
    traj = nl.outputs["nl_alpha0.5.csv"]
    traj.residual[10] *= 1.0 + 1e-6
    rc = subprocess.run([sys.executable, "-m", "cfts.cli", *nl.argv(out)],
                        cwd=run.ROOT, env=run.child_env(), capture_output=True).returncode
    errors = check.check(nl, out, rc)
    assert len(errors) == 1 and "residual" in errors[0]


def test_importtime_parser_counts_top_level_scipy_only():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:       100 |        110 |     scipy",
        "import time:        50 |         50 |       scipy.integrate._quadpack",
        "import time:        20 |         70 |     scipy.integrate",
        "import time:         5 |        185 |   cfts.calculus",
        "import time:         7 |          7 |   cfts.errors",
    ])
    assert run._top_level_scipy_us(text) == 180


def test_sweep_slope():
    assert run.sweep.slope([1, 2, 4], [3, 12, 48]) == pytest.approx(2.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "grid-kernel",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_entry_points_are_skipped(monkeypatch):
    import cfts.cli
    monkeypatch.delattr(cfts.cli, "ThreadPoolExecutor")
    monkeypatch.delattr(cfts.cli, "_linear_trajectory")
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.metrics()["cli.pool_jobs"][0] == 0


def test_benchmark_json_names_the_metrics_run_reports():
    import json
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    e2e = run.end_to_end_metrics(
        workloads.Workload("x", []), {"walls": [1.0], "setups": [0.5], "rss": [1.0],
                                      "failed": 0, "attempted": 1})
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = layertrace.Tracer().metrics()
    assert {k: u for k, (_, u) in traced.items()}.items() <= per_layer.items()
