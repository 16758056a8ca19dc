import csv
import hashlib
import math
import os
import random
import subprocess
import sys
from bisect import bisect

import pytest

import cfts
from cfts import cli, stability
from cfts.cli import VERDICT_HEADER, _fmt, main, verdict_row
from cfts.config import ConfigError, build_rhs, build_signal, parse_config
from cfts.signals import Sampled
from cfts.stability import classify_hz, classify_r

from .oracles import oracle_linear_discrete

LINEAR_CONFIG = """\
# two-alpha run on the unit grid
[scenario demo]
segment = grid 0 1 31
equation = linear
lambda = 0.2
u = constant 1
x0 = -5
alpha = 0.25 0.5
horizon = steps 30
outputs = trajectory residuals verdict
"""

NONLINEAR_CONFIG = """\
[scenario fp]
segment = grid 0 1 4
equation = nonlinear
rhs = affine 0.2 1
lipschitz = 0.2
x0 = -5
window = 0 3
alpha = 0.25
outputs = trajectory residuals
"""


FINE_NONLINEAR_CONFIG = """\
[scenario fine]
segment = grid 0 0.01 101
equation = nonlinear
rhs = sin_x 0.8
lipschitz = 0.8
x0 = 1
window = 0 1
alpha = 0.5
outputs = trajectory residuals
"""


def _read(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _one_line_error(rc, capsys, code=2):
    """Assert the exit code (default 2), a single stderr line and an empty
    stdout; return the prefix of the stderr line."""
    out, err = capsys.readouterr()
    assert rc == code
    assert out == ""
    assert "Traceback" not in err
    assert err.endswith("\n") and err.count("\n") == 1
    return err.split(":", 1)[0]


class TestConfigParsing:
    def test_parses_scenarios(self):
        (scn,) = parse_config(LINEAR_CONFIG)
        assert scn.name == "demo"
        assert scn.kind == "linear"
        assert scn.alphas == (0.25, 0.5)
        assert scn.steps == 30
        assert scn.ts.window == (0.0, 30.0)

    def test_missing_key_reports_field(self):
        bad = LINEAR_CONFIG.replace("lambda = 0.2\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "lambda" in str(err.value)

    def test_bad_value_reports_line(self):
        bad = LINEAR_CONFIG.replace("x0 = -5", "x0 = five")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "line 7" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(LINEAR_CONFIG + "mystery = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(LINEAR_CONFIG + "lambda = 0.3\n")

    def test_alpha_range_checked(self):
        with pytest.raises(ConfigError):
            parse_config(LINEAR_CONFIG.replace("0.25 0.5", "1.5"))

    def test_nonlinear_alpha_one_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(FINE_NONLINEAR_CONFIG.replace("alpha = 0.5", "alpha = 0.5 1"))
        assert (err.value.line, err.value.field) == (8, "alpha")

    def test_signal_forms(self):
        poly = build_signal(("poly", "1", "0", "2"))
        assert poly.func(3.0) == 1.0 + 2.0 * 9.0
        assert poly.derivative(3.0) == 12.0
        sinus = build_signal(("sin", "2", "0.5", "0"))
        assert sinus.func(math.pi) == pytest.approx(2.0 * math.sin(0.5 * math.pi))
        table = build_signal(("samples", "1", "2", "4"), mesh=(0.0, 1.0, 2.0))
        assert table.values == (1.0, 2.0, 4.0)
        with pytest.raises(ConfigError):
            build_signal(("samples", "1", "2"), mesh=(0.0, 1.0, 2.0))

    def test_duplicate_scenario_name_rejected(self, tmp_path, capsys):
        twice = LINEAR_CONFIG + LINEAR_CONFIG.replace("lambda = 0.2", "lambda = 4.2")
        with pytest.raises(ConfigError) as err:
            parse_config(twice)
        assert (err.value.line, err.value.field) == (12, "scenario")
        assert "duplicate scenario name 'demo'" in str(err.value)
        cfg = tmp_path / "twice.config"
        cfg.write_text(twice)
        out = tmp_path / "out"
        assert _one_line_error(main(["simulate", str(cfg), "--out", str(out)]),
                               capsys) == "config error"
        assert not out.exists()

    def test_nonlinear_verdict_output_rejected(self, tmp_path, capsys):
        # a nonlinear scenario has no verdict file to write
        bad = NONLINEAR_CONFIG.replace("outputs = trajectory residuals",
                                       "outputs = trajectory residuals verdict")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert (err.value.line, err.value.field) == (9, "outputs")
        cfg = tmp_path / "nl.config"
        cfg.write_text(bad)
        out = tmp_path / "out"
        assert _one_line_error(main(["solve-nonlinear", str(cfg), "--out", str(out)]),
                               capsys) == "config error"
        assert not out.exists()

    def test_rhs_forms(self):
        f = build_rhs(("affine", "0.5", "-1"))
        assert f(0.0, 2.0) == 0.0
        assert build_rhs(("zero",))(3.0, 9.0) == 0.0
        assert build_rhs(("sin_x", "2"))(0.0, math.pi / 2) == pytest.approx(2.0)
        with pytest.raises(ConfigError):
            build_rhs(("cubic", "1"))


class TestSimulate:
    def test_writes_csv_per_alpha(self, tmp_path):
        cfg = tmp_path / "demo.config"
        cfg.write_text(LINEAR_CONFIG)
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
        for tag in ("0.25", "0.5"):
            rows = _read(tmp_path / f"demo_alpha{tag}.csv")
            assert len(rows) == 31
            assert rows[0]["t"] == "0"
            assert float(rows[0]["x"]) == -5.0
        verdicts = _read(tmp_path / "demo_verdicts.csv")
        assert [v["status"] for v in verdicts] == ["unstable", "unstable"]

    def test_compatible_data_passes_the_residual_gate(self, tmp_path, capsys):
        # x0 = -5 with u = 1, lambda = 0.2 satisfies u(0) + lambda*x0 = 0
        cfg = tmp_path / "demo.config"
        cfg.write_text(LINEAR_CONFIG.replace("0.25 0.5", "0.25"))
        main(["simulate", str(cfg), "--out", str(tmp_path)])
        rows = _read(tmp_path / "demo_alpha0.25.csv")
        assert max(abs(float(r["residual"])) for r in rows) < 1e-8
        assert "warning" not in capsys.readouterr().err

    def test_grid_through_zero_off_lattice(self, tmp_path, capsys):
        # the grid's point nearest 0 is -0.3 + 3*0.1 = 5.55e-17, not 0.0
        cfg = tmp_path / "neg.config"
        cfg.write_text(LINEAR_CONFIG.replace("grid 0 1 31", "grid -0.3 0.1 10")
                       .replace("steps 30", "steps 5").replace("demo", "neg"))
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "neg_alpha0.5.csv")
        assert len(rows) == 6
        assert max(abs(float(r["residual"])) for r in rows) < 1e-8
        assert "warning" not in capsys.readouterr().err

    def test_incompatible_data_warns_but_writes(self, tmp_path, capsys):
        cfg = tmp_path / "inc.config"
        cfg.write_text(LINEAR_CONFIG.replace("x0 = -5", "x0 = 0")
                       .replace("demo", "inc"))
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
        assert "residual" in capsys.readouterr().err
        assert (tmp_path / "inc_alpha0.5.csv").exists()

    def test_output_is_deterministic(self, tmp_path):
        cfg = tmp_path / "demo.config"
        cfg.write_text(LINEAR_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(cfg), "--out", str(out1)])
        main(["simulate", str(cfg), "--out", str(out2)])
        b1 = (out1 / "demo_alpha0.5.csv").read_bytes()
        b2 = (out2 / "demo_alpha0.5.csv").read_bytes()
        assert b1 == b2
        assert b"\r" not in b1
        # 17 significant digits in the payload: with x0 = 0 the solution at
        # t = 1 is 50/81 (acceptance criterion 1)
        cfg.write_text(LINEAR_CONFIG.replace("x0 = -5", "x0 = 0"))
        out3 = tmp_path / "c"
        main(["simulate", str(cfg), "--out", str(out3)])
        rows = _read(out3 / "demo_alpha0.5.csv")
        assert rows[1]["t"] == "1"
        assert rows[1]["x"] == "0.61728395061728392"

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.config"
        cfg.write_text("[scenario x]\nequation = linear\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.config")]) == 2

    @pytest.mark.parametrize("case", ["figures-out-is-a-file", "out-below-a-file",
                                      "config-is-a-directory", "stability-out-is-a-directory",
                                      "config-not-utf8"])
    def test_path_and_encoding_errors_exit_code(self, tmp_path, capsys, case):
        cfg = tmp_path / "c.config"
        cfg.write_text(NONLINEAR_CONFIG)
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = {
            "figures-out-is-a-file": ["figures", "--which", "2", "--out", str(afile)],
            "out-below-a-file": ["solve-nonlinear", str(cfg), "--out", str(afile / "sub")],
            "config-is-a-directory": ["simulate", str(tmp_path)],
            "stability-out-is-a-directory": ["stability", "--lambda", "1", "--alpha", "0.5",
                                             "--h", "1", "--out", str(tmp_path)],
            "config-not-utf8": ["simulate", str(cfg)],
        }[case]
        if case == "config-not-utf8":
            cfg.write_bytes(b"\xff\xfe" + LINEAR_CONFIG.encode())
        assert _one_line_error(main(argv), capsys) == "config error"

    def test_regressivity_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "reg.config"
        cfg.write_text(LINEAR_CONFIG.replace("lambda = 0.2", "lambda = 2")
                       .replace("0.25 0.5", "0.5"))
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 3
        assert "K(alpha)" in capsys.readouterr().err

    def test_nonlinear_scenario_redirected(self, tmp_path):
        cfg = tmp_path / "fp.config"
        cfg.write_text(NONLINEAR_CONFIG)
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 2

    def test_horizon_beyond_the_window_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "long.config"
        for grid, horizon in (("grid 0 1 5", "steps 50"), ("grid -2 1 6", "time -1"),
                              ("grid 0 1 5", "steps -1")):
            cfg.write_text(LINEAR_CONFIG.replace("grid 0 1 31", grid)
                           .replace("steps 30", horizon))
            assert _one_line_error(main(["simulate", str(cfg), "--out", str(tmp_path)]),
                                   capsys) == "domain error"
        assert not list(tmp_path.glob("*.csv"))

    def test_scale_without_zero_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "shifted.config"
        for alpha in ("0.5", "1"):  # the problem check, the classical mesh
            cfg.write_text(LINEAR_CONFIG.replace("grid 0 1 31", "grid 1 1 5")
                           .replace("steps 30", "steps 3").replace("0.25 0.5", alpha))
            assert _one_line_error(main(["simulate", str(cfg), "--out", str(tmp_path)]),
                                   capsys) == "domain error"

    def test_non_finite_config_numbers_rejected(self, tmp_path, capsys):
        bad = LINEAR_CONFIG.replace("lambda = 0.2", "lambda = nan")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "line 5" in str(err.value) and "'lambda'" in str(err.value)
        with pytest.raises(ConfigError) as err:
            parse_config(LINEAR_CONFIG.replace("x0 = -5", "x0 = inf"))
        assert "line 7" in str(err.value) and "'x0'" in str(err.value)
        cfg = tmp_path / "nan.config"
        cfg.write_text(bad.replace("x0 = -5", "x0 = inf"))
        assert _one_line_error(main(["simulate", str(cfg), "--out", str(tmp_path)]),
                               capsys) == "config error"
        for seg in ("grid 40 nan 5", "point inf"):
            cfg.write_text(LINEAR_CONFIG + f"segment = {seg}\n")
            assert _one_line_error(main(["simulate", str(cfg), "--out", str(tmp_path)]),
                                   capsys) == "config error"
        assert not list(tmp_path.glob("*.csv"))

    def test_overflow_exit_code(self, tmp_path, capsys):
        # alpha 0.9: x reaches 4e307 at t = 308, where the residual is already nan;
        # at 308 steps that nan is in the last row, which only alpha = 1 may have
        texts = [LINEAR_CONFIG.replace("grid 0 1 31", "grid 0 1 501")
                 .replace("lambda = 0.2", "lambda = 5").replace("x0 = -5", "x0 = 0")
                 .replace("0.25 0.5", alphas).replace("steps 30", steps)
                 for alphas, steps in (("0.9 1", "steps 500"), ("0.9", "steps 308"))]
        # math.exp overflows in a dense cell's kernel growth, and float ** in
        # the forcing polynomial at t = 2e200
        texts += ["[scenario big]\nsegment = interval 0 10000\nequation = linear\n"
                  "lambda = 1.9\nu = constant 1\nx0 = 0\nalpha = 0.5\n"
                  "horizon = time 10000\n",
                  "[scenario huge]\nsegment = grid 0 1e200 3\nequation = linear\n"
                  "lambda = 0.2\nu = poly 0 0 1\nx0 = 0\nalpha = 0.5\n"
                  "horizon = steps 2\n"]
        cfg = tmp_path / "blow.config"
        for text in texts:
            cfg.write_text(text)
            out = tmp_path / "out"
            assert _one_line_error(main(["simulate", str(cfg), "--out", str(out)]),
                                   capsys) == "domain error"
            assert not out.exists()

    def test_late_verdict_error_leaves_no_output(self, tmp_path, capsys):
        # the stability verdict is undefined at alpha = 0; the error comes
        # after the alpha = 0.5 job has been solved
        cfg = tmp_path / "zero.config"
        cfg.write_text(LINEAR_CONFIG.replace("0.25 0.5", "0.5 0"))
        out = tmp_path / "out"
        assert _one_line_error(main(["simulate", str(cfg), "--out", str(out)]),
                               capsys) == "domain error"
        assert not out.exists()

    def test_quadrature_failure_exit_code(self, tmp_path, capsys):
        # 20000 rad/s over each 50/256-long dense cell: 200 subintervals
        # cannot resolve the forcing
        cfg = tmp_path / "osc.config"
        cfg.write_text("[scenario osc]\nsegment = interval 0 50\nequation = linear\n"
                       "lambda = -0.5\nu = sin 1 20000 0\nx0 = 0\nalpha = 0.5\n"
                       "horizon = time 50\n")
        out = tmp_path / "out"
        assert _one_line_error(main(["simulate", str(cfg), "--out", str(out)]),
                               capsys, 5) == "quadrature did not converge"
        assert not out.exists()

    def test_steep_classical_kernel_on_a_long_run(self, tmp_path):
        # lambda = -1e5 on dense cells 300/256 long: the weight
        # exp(lambda*(hi - tau)) is 1e-5 wide, which a 15-point panel misses
        # unless the run is split at the kernel breakpoints
        cfg = tmp_path / "steep.config"
        cfg.write_text("[scenario steep]\nsegment = interval 0 300\nequation = linear\n"
                       "lambda = -100000\nu = sin 1 0.05 0.3\nx0 = 0.000002955202\n"
                       "alpha = 1 0.5\nhorizon = time 300\n"
                       "outputs = trajectory residuals\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "steep_alpha1.csv")
        (row,) = [r for r in rows if r["t"] == "1.171875"]
        assert f"{float(row['x']):.4e}" == "3.5096e-06"
        assert max(abs(float(r["residual"])) for r in rows[:-1]) < 1e-5

    def test_sample_table_forcing(self, tmp_path):
        us = [1.0, 0.5, -0.25, 2.0, 1.5]
        cfg = tmp_path / "tab.config"
        cfg.write_text(LINEAR_CONFIG.replace("grid 0 1 31", "grid 0 1 5")
                       .replace("constant 1", "samples " + " ".join(map(str, us)))
                       .replace("steps 30", "steps 4").replace("0.25 0.5", "0.5"))
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "demo_alpha0.5.csv")
        for k, row in enumerate(rows):
            want = oracle_linear_discrete(0.2, 0.5, 1.0, us, -5.0, k)
            assert float(row["x"]) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestStabilityCommand:
    def test_single_point_to_stdout(self, capsys):
        assert main(["stability", "--lambda", "4.2", "--alpha", "0.5",
                     "--h", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("lambda,alpha,h,status")
        assert out[1].split(",")[3] == "stable"
        assert out[1].split(",")[6] == "4"

    def test_continuous_flag(self, capsys):
        assert main(["stability", "--lambda=-1", "--alpha", "0.7",
                     "--continuous"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[2] == "" and row[3] == "stable"

    def test_sweep_grid_to_file(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["stability", "--lambda=-5:6:12", "--alpha", "0.2,0.5",
                     "--h", "0.5,1", "--out", str(out)]) == 0
        rows = _read(out)
        assert len(rows) == 12 * 2 * 2
        assert {r["status"] for r in rows} <= {
            "stable", "unstable", "boundary", "regressivity-violation"}

    def test_bad_sweep_exit_code(self, capsys):
        assert main(["stability", "--lambda", "x", "--alpha", "0.5",
                     "--h", "1"]) == 2

    def test_non_finite_sweep_exit_code(self, capsys):
        assert _one_line_error(main(["stability", "--lambda", "nan", "--alpha", "0.5",
                                     "--h", "1"]), capsys) == "config error"

    def test_alpha_zero_exit_code(self, capsys):
        assert _one_line_error(main(["stability", "--lambda", "1", "--alpha", "0",
                                     "--h", "1"]), capsys) == "domain error"

    def test_zero_step_exit_code(self, capsys):
        assert _one_line_error(main(["stability", "--lambda", "1", "--alpha", "0.5",
                                     "--h", "0"]), capsys) == "domain error"

    def test_empty_sweep_or_bad_count_exit_code(self, capsys):
        for flags in (["--lambda=1:2:0", "--alpha", "0.5", "--h", "1"],
                      ["--lambda=1:2:-3", "--alpha", "0.5", "--h", "1"],
                      ["--lambda", "1", "--alpha", "0.5", "--h=,"],
                      ["--lambda", "1", "--alpha", "0.5", "--h="],
                      ["--lambda", "1", "--alpha=,", "--continuous"]):
            assert _one_line_error(main(["stability", *flags]), capsys) == "config error"

    def test_single_count_sweep_is_its_start(self, capsys):
        # hi - lo overflows, which a count of 1 never needs
        assert main(["stability", "--lambda=-1e308:1e308:1", "--alpha", "0.5",
                     "--h", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["-1e+308"]

    def test_streamed_rows_equal_the_row_formatter(self, tmp_path, capsys):
        # lambda = 0 is a boundary, lambda = 2 at alpha = 0.5 (4 at 0.75)
        # makes K = 0 and lambda = -2 at alpha = 0.75, h = 1 puts p on the
        # S_R point.  The third sweep reuses each alpha's p column in three
        # h blocks, and its -0 and 0 rows differ only in their signs.
        alphas = [0.5, 0.75]
        grid = lambda lam, a, h: classify_hz(lam, a, h)
        reals = lambda lam, a, h: classify_r(lam, a)
        for lam_flag, lams, flags, points, classify in (
                ("--lambda=-6:6:13", [float(k) for k in range(-6, 7)], ["--h", "0.5,1"],
                 [(a, h) for h in (0.5, 1.0) for a in alphas], grid),
                ("--lambda=-6:6:13", [float(k) for k in range(-6, 7)], ["--continuous"],
                 [(a, None) for a in alphas], reals),
                ("--lambda=-0,0,2,4,-2,0.5", [-0.0, 0.0, 2.0, 4.0, -2.0, 0.5],
                 ["--h", "0.5,1,3"], [(a, h) for h in (0.5, 1.0, 3.0) for a in alphas],
                 grid)):
            want = ",".join(VERDICT_HEADER) + "\n" + "".join(
                ",".join(map(_fmt, verdict_row(lam, a, h, classify(lam, a, h)))) + "\n"
                for a, h in points for lam in lams)
            out = tmp_path / "table.csv"
            argv = ["stability", lam_flag, "--alpha", "0.5,0.75", *flags]
            assert main([*argv, "--out", str(out)]) == 0
            assert out.read_text() == want
            assert main(argv) == 0
            assert capsys.readouterr().out == want
            assert {"boundary", "regressivity-violation", "stable", "unstable"} <= {
                line.split(",")[3] for line in want.splitlines()[1:]}
        assert {"-0", "0"} <= {line.split(",")[5] for line in want.splitlines()[1:]}

    def test_classifier_called_only_at_bands_and_new_cells(self, monkeypatch, capsys):
        # a row outside every band takes the verdict of its cell's first
        # row; rows inside a band (or with p NaN) are classified one by one
        calls = []

        def counted(name):
            real = getattr(stability, name)

            def classify(*args):
                calls.append(name)
                return real(*args)
            return classify

        lams = [float(k) for k in range(-6, 7)]
        for flags, steps, name in ((["--h", "0.5,1,3"], (0.5, 1.0, 3.0), "classify_hz"),
                                   (["--continuous"], (None,), "classify_r")):
            want, cells, band_rows = [], set(), 0
            for h in steps:
                for a in (0.5, 0.75):
                    block = stability._r(a) if h is None else stability._hz(a, h)
                    for lam, p in zip(lams, stability._p_column(lams, a)):
                        v = classify_r(lam, a) if h is None else classify_hz(lam, a, h)
                        want.append(",".join(map(_fmt, verdict_row(lam, a, h, v))))
                        i, j = bisect(block.lam_bands, lam), bisect(block.p_bands, p)
                        if i % 2 or j % 2 or math.isnan(p):
                            band_rows += 1
                        else:
                            cells.add((a, h, i, j))
            with monkeypatch.context() as m:
                for mod in (cli, stability):
                    for fn in ("classify_hz", "classify_r"):
                        m.setattr(mod, fn, counted(fn))
                calls.clear()
                assert main(["stability", "--lambda=-6:6:13", "--alpha", "0.5,0.75",
                             *flags]) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            assert rows == want
            assert len(calls) <= len(cells) + band_rows and len(calls) < len(rows)
            assert set(calls) == {name}

    def test_table_bytes_are_pinned(self, capsys):
        # sha256 of the tables written by one classifier call per row
        for argv, digest in (
                (["--lambda=-5:6:4000", "--alpha", "0.1:0.9:9", "--h", "0.25,0.5,1,2"],
                 "b6b890fe08c9f9a469fb19785745c52b67b6205c2af7f6a797a6f529d25a3f22"),
                (["--lambda=-10:10:2001", "--alpha", "0.1:0.9:9", "--continuous"],
                 "37fdad1b03029737144be00c4076d42e9c9e0abb7ebcf5fabbe78a815b59a191")):
            assert main(["stability", *argv]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_table_bytes_do_not_depend_on_the_row_order(self, capsys):
        # sha256 of a descending sweep and of the same lambdas shuffled into
        # a comma list, taken when every row was keyed on its own
        lams = cli._parse_sweep("6:-5:4000", "--lambda")
        random.Random(14).shuffle(lams)
        for spec, digest in (
                ("6:-5:4000",
                 "3e2e644a8cd14a2b033bd2f3e7c99eb51a4f6df4f14a449ae1c155dec2a0740e"),
                (",".join(map(repr, lams)),
                 "e2d3081d29c657a21659e1f808aea979e1640e3ecdea22812d2caf054af66965")):
            assert main(["stability", f"--lambda={spec}", "--alpha", "0.1:0.9:9",
                         "--h", "0.25,0.5,1,2"]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_closed_stdout_pipe_exits_1_silently(self):
        # Python's recipe for EPIPE: stdout goes to the null device, exit 1
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cfts.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cfts.cli", "stability", "--lambda=-5:6:4000",
             "--alpha", "0.1:0.9:9", "--h", "0.25,0.5,1,2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"lambda,alpha,h,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""

    def test_error_in_a_later_block_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        for flags in (["--alpha", "0.5,0", "--h", "1"], ["--alpha", "0.5", "--h", "1,0"],
                      ["--alpha", "0.5,1", "--continuous"]):
            argv = ["stability", "--lambda=-1:1:3", *flags]
            assert _one_line_error(main([*argv, "--out", str(out)]), capsys) == "domain error"
            assert not out.exists()
            assert _one_line_error(main(argv), capsys) == "domain error"


class TestSolveNonlinear:
    def test_solves_and_reports(self, tmp_path, capsys):
        cfg = tmp_path / "fp.config"
        cfg.write_text(NONLINEAR_CONFIG)
        assert main(["solve-nonlinear", str(cfg), "--out", str(tmp_path)]) == 0
        rows = _read(tmp_path / "fp_alpha0.25.csv")
        assert len(rows) == 4
        report = (tmp_path / "fp_report.txt").read_text()
        assert "q=0.3" in report.replace("0.30000000000000004", "0.3")
        assert "iterations=" in report
        out = capsys.readouterr().out
        assert "final_defect=" in out

    def test_incompatible_start_names_the_nonlinear_condition(self, tmp_path, capsys):
        # f(a, x0) = 0.2*0 + 1 != 0, so the residual at t = a is -1
        cfg = tmp_path / "fp.config"
        cfg.write_text(NONLINEAR_CONFIG.replace("x0 = -5", "x0 = 0"))
        assert main(["solve-nonlinear", str(cfg), "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "warning: fp alpha=0.25" in err
        assert "f(a, x0) = 0" in err
        assert "lambda" not in err
        rows = _read(tmp_path / "fp_alpha0.25.csv")
        assert float(rows[0]["residual"]) == -1.0

    def test_zero_rhs_single_iteration(self, tmp_path):
        cfg = tmp_path / "z.config"
        cfg.write_text(NONLINEAR_CONFIG.replace("rhs = affine 0.2 1", "rhs = zero")
                       .replace("lipschitz = 0.2", "lipschitz = 0.01"))
        assert main(["solve-nonlinear", str(cfg), "--out", str(tmp_path)]) == 0
        assert "iterations=1" in (tmp_path / "fp_report.txt").read_text()
        rows = _read(tmp_path / "fp_alpha0.25.csv")
        assert all(float(r["x"]) == -5.0 for r in rows)

    def test_not_contractive_exit_code_and_window(self, tmp_path, capsys):
        cfg = tmp_path / "wide.config"
        cfg.write_text(NONLINEAR_CONFIG
                       .replace("lipschitz = 0.2", "lipschitz = 0.6")
                       .replace("rhs = affine 0.2 1", "rhs = affine 0.6 1"))
        # q = (0.75 + 0.25*3) * 0.6 = 0.9 -> contractive; widen via alpha
        cfg.write_text(cfg.read_text().replace("alpha = 0.25", "alpha = 0.5"))
        # q = (0.5 + 0.5*3) * 0.6 = 1.2
        assert main(["solve-nonlinear", str(cfg), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "not contractive" in err
        assert "window" in err

    def test_linear_scenario_redirected(self, tmp_path):
        cfg = tmp_path / "demo.config"
        cfg.write_text(LINEAR_CONFIG)
        assert main(["solve-nonlinear", str(cfg), "--out", str(tmp_path)]) == 2

    def test_overflow_exit_code(self, tmp_path, capsys):
        # the solution passes 1.8e308 within the window; the march hands the
        # non-finite values on to the finiteness check instead of iterating
        cfg = tmp_path / "blow.config"
        cfg.write_text(NONLINEAR_CONFIG.replace("grid 0 1 4", "grid 0 0.1 11")
                       .replace("affine 0.2 1", "affine 0.5 1e308")
                       .replace("lipschitz = 0.2", "lipschitz = 0.5")
                       .replace("x0 = -5", "x0 = 1e308").replace("window = 0 3", "window = 0 1")
                       .replace("alpha = 0.25", "alpha = 0.5"))
        out = tmp_path / "out"
        assert _one_line_error(main(["solve-nonlinear", str(cfg), "--out", str(out)]),
                               capsys) == "domain error"
        assert not out.exists()

    def test_late_errors_leave_no_output(self, tmp_path, capsys):
        # each input fails after a first job that alone would succeed and warn
        wide = (FINE_NONLINEAR_CONFIG.replace("fine", "wide")
                .replace("grid 0 0.01 101", "grid 0 0.01 501")
                .replace("window = 0 1", "window = 0 5"))  # q = (0.5 + 0.5*5)*0.8
        cfg = tmp_path / "nl.config"
        out = tmp_path / "out"
        for text, code, prefix in (
                (FINE_NONLINEAR_CONFIG.replace("alpha = 0.5", "alpha = 0.5 1"), 2,
                 "config error"),
                (FINE_NONLINEAR_CONFIG + "\n" + wide, 4, "not contractive")):
            cfg.write_text(text)
            rc = main(["solve-nonlinear", str(cfg), "--out", str(out)])
            assert _one_line_error(rc, capsys, code) == prefix
            assert not out.exists()


DENSE_CONFIG = """\
[scenario d]
segment = interval 0 1
segment = point 1.5
equation = linear
lambda = -0.5
u = sin 1 1 0
x0 = 0
alpha = 0.7 1
horizon = time 1.5
outputs = trajectory residuals
"""


class TestResidualWarning:
    """The warning prints the start-up value and names the likeliest cause."""

    def _warnings(self, tmp_path, capsys, text):
        cfg = tmp_path / "w.config"
        cfg.write_text(text)
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
        return capsys.readouterr().err.splitlines()

    def test_incompatible_data_cite_the_start_up_condition(self, tmp_path, capsys):
        err = self._warnings(tmp_path, capsys, LINEAR_CONFIG.replace("x0 = -5", "x0 = 0"))
        assert len(err) == 2
        for line in err:
            assert ("(u(0) + lambda*x0 = 1; the closed form solves the equation "
                    "exactly only when u(0) + lambda*x0 = 0)") in line

    def test_compatible_dense_data_cite_the_discretization(self, tmp_path, capsys):
        # u(0) + lambda*x0 = sin(0) + 0 = 0: the start-up condition holds
        err = self._warnings(tmp_path, capsys, DENSE_CONFIG)
        assert [line.split(":")[1] for line in err] == [" d alpha=0.7", " d alpha=1"]
        for line in err:
            assert "(u(0) + lambda*x0 = 0; dense-run discretization" in line
            assert "closed form" not in line

    def test_alpha_one_never_cites_the_start_up_condition(self, tmp_path, capsys):
        err = self._warnings(tmp_path, capsys, DENSE_CONFIG.replace("x0 = 0", "x0 = 1"))
        assert "u(0) + lambda*x0 = -0.5; the closed form" in err[0]
        assert "d alpha=1:" in err[1]
        assert "(u(0) + lambda*x0 = -0.5; dense-run discretization" in err[1]

    def test_compatible_grid_data_cite_a_divergent_kernel(self, tmp_path, capsys):
        # |1 + alpha_bar| = 8 on the unit grid at alpha = 0.9 amplifies rounding
        err = self._warnings(tmp_path, capsys, LINEAR_CONFIG.replace("0.25 0.5", "0.9 1"))
        assert len(err) == 1
        assert "demo alpha=0.9:" in err[0]
        assert "(u(0) + lambda*x0 = 0; rounding amplified by a kernel base" in err[0]

    def test_unexplained_residual(self, capsys):
        scn = parse_config(LINEAR_CONFIG.replace("demo", "s"))[0]
        traj = Sampled((0.0, 1.0), (0.0, 0.0))
        cli._self_check(scn, 0.25, traj, [1.0, math.nan], cli._LINEAR_STARTUP, 0.0)
        assert capsys.readouterr().err == (
            "warning: s alpha=0.25: max |residual| = 1 exceeds 1e-08 "
            "(u(0) + lambda*x0 = 0; no start-up defect, dense run or divergent "
            "kernel explains it)\n")


FIGURE_SHA256 = {
    "fig1_alpha0.2.csv":
        "4ae0184dc0c3b2c8f2d85cb98eefb52856f8ceb65a103e0d094057fb86113b57",
    "fig1_alpha0.5.csv":
        "8b3fd9d62a03ac631103e13d253d3545daeece300dcee281a58ad56cf8e802e0",
    "fig1_alpha0.9.csv":
        "9d61cf0808d6f935a03c0691a0536da129c1370400dd297a0201c010c49fe082",
    "fig1_alpha1.csv":
        "e4ac5bd69d8c1c639f16c9f5204d90d68bfc59adad38cb9efb89bde1955c7310",
    "fig1_verdicts.csv":
        "f142520b572e2bdef6a4e4a731a3c432162a0fc56840f9b410a990b1d2b1ee42",
    "fig2_alpha0.2.csv":
        "13064f3eb25e02be5e0464a7bd4bd453910bec04a038592f49f719a0e61b1357",
    "fig2_alpha0.5.csv":
        "0bae7bf163130c3b11f065de033066a99dd7d78c3b2c3887cf92ad7d562ff5bb",
    "fig2_verdicts.csv":
        "81f5d1e1c517a7956843fc14eacef2b7feea9f0c77d9a3f777fa27760fb3032d",
    "fig3_h0.1_alpha0.5.csv":
        "f3ea14da37d4a5b3dd7439fbad8dd2692eb059d45e10430525bd8ecf2a6094a7",
    "fig3_h0.5_alpha0.5.csv":
        "4aa4ce9bd3c7815435eeee07d3a55c9d0be8583c8e497c145a367d6c448782e2",
    "fig3_h1_alpha0.5.csv":
        "ecc0d15a6667bcc256c12ea85992a947cdc56839506bef1ed654175b67fe6126",
}


class TestFigures:
    def test_figure_bundle(self, tmp_path):
        assert main(["figures", "--which", "2", "--out", str(tmp_path)]) == 0
        for tag in ("0.2", "0.5"):
            rows = _read(tmp_path / f"fig2_alpha{tag}.csv")
            assert len(rows) == 31
        assert (tmp_path / "fig2.config").exists()
        script = (tmp_path / "plot_fig2.py").read_text()
        assert "fig2_alpha0.5.csv" in script

    def test_fig3_three_step_sizes(self, tmp_path):
        assert main(["figures", "--which", "3", "--out", str(tmp_path),
                     "--no-plot-script"]) == 0
        assert len(_read(tmp_path / "fig3_h0.1_alpha0.5.csv")) == 31
        assert len(_read(tmp_path / "fig3_h1_alpha0.5.csv")) == 4
        assert not (tmp_path / "plot_fig3.py").exists()

    def test_figure_bytes_are_pinned(self, tmp_path):
        # grids and constant forcing only: the same bytes on Python 3.10-3.13
        for which in (1, 2, 3):
            assert main(["figures", "--which", str(which), "--out", str(tmp_path),
                         "--no-plot-script"]) == 0
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.glob("*.csv")}
        assert got == FIGURE_SHA256


class TestEnvironmentOverride:
    def test_cfts_tol_is_honored(self, tmp_path, monkeypatch):
        cfg = tmp_path / "fp.config"
        cfg.write_text(NONLINEAR_CONFIG.replace("x0 = -5", "x0 = 0"))
        monkeypatch.setenv("CFTS_TOL", "1e-2")
        main(["solve-nonlinear", str(cfg), "--out", str(tmp_path)])
        loose = int((tmp_path / "fp_report.txt").read_text()
                    .split("iterations=")[1].split()[0])
        monkeypatch.setenv("CFTS_TOL", "1e-12")
        main(["solve-nonlinear", str(cfg), "--out", str(tmp_path)])
        tight = int((tmp_path / "fp_report.txt").read_text()
                    .split("iterations=")[1].split()[0])
        assert loose < tight

    def test_bad_cfts_tol(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CFTS_TOL", "tiny")
        assert main(["stability", "--lambda", "1", "--alpha", "0.5",
                     "--h", "1"]) == 2

    def test_non_finite_cfts_tol(self, monkeypatch, capsys):
        monkeypatch.setenv("CFTS_TOL", "inf")
        assert _one_line_error(main(["stability", "--lambda", "1", "--alpha", "0.5",
                                     "--h", "1"]), capsys) == "config error"

    def test_negative_cfts_tol(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "sin.config"
        cfg.write_text(FINE_NONLINEAR_CONFIG)
        monkeypatch.setenv("CFTS_TOL", "-1")
        assert _one_line_error(main(["solve-nonlinear", str(cfg), "--out", str(tmp_path)]),
                               capsys) == "config error"
        assert not list(tmp_path.glob("*.csv"))

    def test_zero_cfts_tol_spends_the_iteration_budget(self, tmp_path, monkeypatch, capsys):
        # the update stalls at round-off, so a zero tolerance is never met
        cfg = tmp_path / "affine.config"
        cfg.write_text(FINE_NONLINEAR_CONFIG.replace("sin_x 0.8", "affine -0.7 0.2")
                       .replace("lipschitz = 0.8", "lipschitz = 0.9")
                       .replace("x0 = 1", "x0 = 0"))
        monkeypatch.setenv("CFTS_TOL", "0")
        rc = main(["solve-nonlinear", str(cfg), "--out", str(tmp_path)])
        assert _one_line_error(rc, capsys, code=4) == "iteration budget spent"


def test_console_entry_point_runs():
    # the child imports the same source tree as this suite
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cfts.__file__)))
    proc = subprocess.run([sys.executable, "-m", "cfts.cli", "stability",
                           "--lambda", "4.2", "--alpha", "0.5", "--h", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "stable" in proc.stdout


def test_cli_imports_only_the_standard_library():
    # modules that site hooks load before cfts is imported are not counted
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cfts.__file__)))
    code = ("import sys; before = set(sys.modules); import cfts.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert set(proc.stdout.split()) - set(sys.stdlib_module_names) == {"cfts"}
