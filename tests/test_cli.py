"""Command-line interface: exit codes, outputs, config handling and
determinism."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest

CLI = [sys.executable, "-m", "cyclicwave.cli"]
# the subprocess runs in tmp_path, where a relative PYTHONPATH=src would
# no longer find the package
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(args, cwd, env_extra=None, command=CLI, timeout=None):
    """The CLI in a subprocess; subprocess.TimeoutExpired past timeout s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(command + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def chart_args(out, extra=()):
    return ["stability-chart", "--epsilon", "0.5", "--n", "3",
            "--lambda-min", "5", "--lambda-max", "17",
            "--grid", "200", "--out", out, *extra]


def test_stability_chart_outputs(tmp_path):
    r = run(chart_args("chart.csv"), tmp_path)
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader((tmp_path / "chart.csv").read_text().splitlines()))
    assert rows[0] == ["lambda", "trace", "abs_trace", "class"]
    assert len(rows) == 201
    side = json.loads((tmp_path / "chart.json").read_text())
    assert len(side["intervals"]) == 1
    iv = side["intervals"][0]
    assert iv["lambda_lo"] == pytest.approx(5.917536903266331, rel=1e-8)
    assert iv["lambda_hi"] == pytest.approx(16.14912452889447, rel=1e-8)
    assert iv["max_abs_trace"] > 2.001


def test_chart_csv_and_sidecar_share_one_sweep(tmp_path):
    r = run(["stability-chart", "--epsilon", "0.5", "--n", "3",
             "--lambda-min", "5", "--lambda-max", "17", "--grid", "600",
             "--out", "chart.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = {float(lam): float(atr) for lam, _, atr, _ in
            list(csv.reader((tmp_path / "chart.csv").read_text().splitlines()))[1:]}
    side = json.loads((tmp_path / "chart.json").read_text())
    assert side["intervals"]
    for iv in side["intervals"]:
        assert rows[iv["witness_lambda"]] == iv["max_abs_trace"]


def test_chart_bytes_repeat_across_processes(tmp_path):
    """Three separate processes write byte-identical charts and sidecars."""
    run(chart_args("a.csv"), tmp_path)
    run(chart_args("b.csv"), tmp_path)
    run(chart_args("c.csv"), tmp_path)
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a == (tmp_path / "c.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_certificate_bytes_repeat_across_processes(tmp_path):
    """Three separate processes write byte-identical certificates."""
    for name in ("a", "b", "c"):
        r = run(["blowup-demo", "--metric", "conformal:alpha=-1", "--delta", "1e-5",
                 "--out", f"{name}.json"], tmp_path)
        assert r.returncode == 0, r.stderr
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    assert a == (tmp_path / "c.json").read_bytes()


def test_validation_exit_code(tmp_path):
    r = run(["stability-chart", "--epsilon", "1.5", "--out", "x.csv"],
            tmp_path)
    assert r.returncode == 2
    err = json.loads(r.stderr.strip())
    assert err["error"] == "ParameterError"
    assert not (tmp_path / "x.csv").exists()


def _single_parameter_error(r):
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1, r.stderr
    assert json.loads(lines[0])["error"] == "ParameterError"


@pytest.mark.parametrize("tol", ["-1", "0"])
def test_chart_invalid_tol_exit_2(tmp_path, tol):
    r = run(chart_args("x.csv", ("--tol", tol)), tmp_path)
    assert r.returncode == 2, r.stderr
    _single_parameter_error(r)
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x.json").exists()


def test_blowup_demo_invalid_tol_exit_2(tmp_path):
    r = run(["blowup-demo", "--metric", "conformal:alpha=-1,m=2",
             "--direction", "1,1", "--tol", "0", "--out", "c.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    _single_parameter_error(r)
    assert not (tmp_path / "c.json").exists()


def test_config_overlay_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 0.5, "lambda-min": 5.0,
                               "lambda-max": 6.0, "grid": 150}))
    # explicit flag must beat the config value for lambda-max
    r = run(["stability-chart", "--config", str(cfg), "--lambda-max", "17",
             "--out", "c.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    side = json.loads((tmp_path / "c.json").read_text())
    # edge refinement width scales with the coarser config grid of 150
    assert side["intervals"][0]["lambda_hi"] == pytest.approx(
        16.14912452889447, abs=2e-4)


def test_config_alone_supplies_every_option(tmp_path):
    """Config values are option defaults, so a config file with no flags
    can supply a required option such as --out."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 0.5, "constant-b": False, "n": 3,
                               "lambda-min": 5, "lambda-max": 17, "grid": 200,
                               "tol": 1e-11, "out": "cfg.csv"}))
    r = run(chart_args("flag.csv"), tmp_path)
    assert r.returncode == 0, r.stderr
    r = run(["stability-chart", "--config", str(cfg)], tmp_path)
    assert r.returncode == 0, r.stderr
    for ext in (".csv", ".json"):
        assert ((tmp_path / f"cfg{ext}").read_bytes()
                == (tmp_path / f"flag{ext}").read_bytes())


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilonn": 0.5}))
    r = run(["stability-chart", "--config", str(cfg), "--out", "c.csv"],
            tmp_path)
    assert r.returncode == 2
    assert "epsilonn" in json.loads(r.stderr.strip())["message"]


def test_config_values_are_converted_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": "1e-11"}))
    r = run(chart_args("flag.csv", ("--tol", "1e-11")), tmp_path)
    assert r.returncode == 0, r.stderr
    r = run(chart_args("cfg.csv", ("--config", str(cfg))), tmp_path)
    assert r.returncode == 0, r.stderr
    for ext in (".csv", ".json"):
        assert ((tmp_path / f"cfg{ext}").read_bytes()
                == (tmp_path / f"flag{ext}").read_bytes())


def test_config_string_false_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"constant-b": "false", "epsilon": 0.5}))
    r = run(["stability-chart", "--lambda-min", "5", "--lambda-max", "17",
             "--grid", "200", "--config", str(cfg), "--out", "c.csv"],
            tmp_path)
    assert r.returncode == 0, r.stderr
    side = json.loads((tmp_path / "c.json").read_text())
    assert side["coefficient"] == "sqrt-sin"
    assert len(side["intervals"]) == 1


@pytest.mark.parametrize("command, key", [("stability-chart", "tol"),
                                          ("blowup-demo", "delta")])
def test_config_bad_value_exit_2(tmp_path, command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "abc"}))
    args = (chart_args("x.csv") if command == "stability-chart" else
            ["blowup-demo", "--metric", "conformal:alpha=-1,m=2",
             "--out", "x.json"])
    r = run(args + ["--config", str(cfg)], tmp_path)
    assert r.returncode == 2, r.stderr
    _single_parameter_error(r)
    assert key in json.loads(r.stderr)["message"]
    assert not any(tmp_path.glob("x.*"))


def test_config_non_integral_int_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 200.7}))
    r = run(["stability-chart", "--epsilon", "0.5", "--lambda-min", "5",
             "--lambda-max", "17", "--config", str(cfg), "--out", "x.csv"],
            tmp_path)
    assert r.returncode == 2, r.stderr
    _single_parameter_error(r)
    assert "grid" in json.loads(r.stderr)["message"]
    assert not any(tmp_path.glob("x.*"))


@pytest.mark.parametrize("args", [
    ["stability-chart", "--epsilon", "0.5", "--grid", "200.7", "--out", "x.csv"],
    ["simulate", "--mode", "bogus", "--out", "x.csv"],
    ["stability-chart", "--epsilon", "0.5", "--bogus", "--out", "x.csv"],
    ["stability-chart", "--epsilon", "0.5"],
    ["no-such-command"],
    [],
], ids=["int-flag", "choice", "unknown-option", "missing-option",
        "unknown-command", "no-command"])
def test_usage_error_is_one_json_line(tmp_path, args):
    r = run(args, tmp_path)
    assert r.returncode == 2, r.stderr
    _single_parameter_error(r)
    assert not any(tmp_path.glob("x.*"))


@pytest.mark.parametrize("args", [
    chart_args("x.csv", ("--config", "cfgdir")),
    chart_args("missing/x.csv"),
], ids=["config-is-directory", "out-in-missing-directory"])
def test_io_error_is_one_json_line(tmp_path, args):
    (tmp_path / "cfgdir").mkdir()
    r = run(args, tmp_path)
    assert r.returncode == 2, r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1, r.stderr
    assert "error" in json.loads(lines[0])
    assert [p.name for p in tmp_path.iterdir()] == ["cfgdir"]


@pytest.mark.parametrize("args, config, work", [
    (chart_args("nodir/x.csv"), None, "cyclicwave.floquet.trace_curve"),
    (chart_args("x.csv")[:-2], {"out": "nodir/x.csv"},
     "cyclicwave.floquet.trace_curve"),
    (["noc", "--f", "example1:alpha=-1", "--out", "nodir/x.json"], None,
     "cyclicwave.transform.noc_check"),
], ids=["stability-chart", "stability-chart-config", "noc"])
def test_out_in_missing_directory_fails_before_work(tmp_path, capsys,
                                                    monkeypatch, args,
                                                    config, work):
    """An --out in a missing directory, given as a flag or by --config,
    exits 2 before any work with one JSON line that names the target."""
    from cyclicwave import cli

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(work, no_work)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = args + ["--config", "cfg.json"]
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=args, prog_name="cyclicwave", standalone_mode=True)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "nodir/x." in json.loads(err)["message"]


def test_click_main_in_process(tmp_path, capsys, monkeypatch):
    """The group's own main, as an embedding caller runs it: help still
    prints usage and exits 0, a usage error exits 2 with one JSON line."""
    from cyclicwave import cli

    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=["simulate", "--help"], prog_name="cyclicwave",
                      standalone_mode=True)
    assert exc.value.code == 0
    assert "Usage:" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=["simulate", "--mode", "bogus", "--out", "x.csv"],
                      prog_name="cyclicwave", standalone_mode=True)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ParameterError"


@pytest.mark.parametrize("target, interrupt", [
    ("cyclicwave.floquet.trace_curve", KeyboardInterrupt),
    ("cyclicwave.floquet.trace_curve", click.Abort),
    ("click.types.FloatParamType.convert", KeyboardInterrupt),
], ids=["KeyboardInterrupt", "click.Abort", "KeyboardInterrupt-parsing"])
def test_interrupt_is_one_json_line(tmp_path, capsys, monkeypatch, target,
                                    interrupt):
    """Ctrl-C during a command or while click parses its options, and
    click's own Abort, exit 130 with one JSON line on stderr and write no
    output."""
    from cyclicwave import cli

    def interrupted(*args, **kwargs):
        raise interrupt

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(target, interrupted)
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=chart_args("x.csv"), prog_name="cyclicwave",
                      standalone_mode=True)
    assert exc.value.code == 130
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert json.loads(err)["error"] == "Aborted"
    assert not any(tmp_path.glob("x.*"))


_SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m.split(".")[:2] == ["numpy", "ma"])
seen = {}
import cyclicwave
seen["import cyclicwave"] = scipy_modules()
import cyclicwave.cli
seen["import cyclicwave.cli"] = scipy_modules()
try:
    cyclicwave.cli.main.main(args=sys.argv[1:], prog_name="cyclicwave")
except SystemExit as exc:
    seen["exit"] = exc.code
seen["command"] = scipy_modules()
print(json.dumps(seen))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    """The package, the CLI and a whole stability chart need only numpy and
    click; scipy is imported by the functions that call it.  numpy.ma is
    not loaded either (np.setdiff1d, for one, would import it)."""
    r = run(chart_args("chart.csv"), tmp_path,
            command=[sys.executable, "-c", _SCIPY_PROBE])
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout.splitlines()[-1])
    assert seen == {"import cyclicwave": [], "import cyclicwave.cli": [],
                    "exit": 0, "command": []}
    assert (tmp_path / "chart.csv").is_file()


@pytest.mark.parametrize("args", [
    ["noc", "--f", "example1:alpha=-1", "--out", "noc.json"],
    ["simulate", "--mode", "nonlinear", "--f", "example1:alpha=-1",
     "--epsilon", "0.5", "--points", "64", "--t-end", "0.5", "--out", "sim.csv"],
    ["blowup-demo", "--metric", "conformal:alpha=-1", "--out", "cert.json"],
], ids=["noc", "simulate-nonlinear", "blowup-demo"])
def test_transform_commands_load_no_scipy(tmp_path, args):
    """G, H, the endpoint test and the radial smallness run on numpy alone,
    so a noc verdict, a nonlinear torus run and a certificate load neither
    scipy nor numpy.ma."""
    r = run(args, tmp_path, command=[sys.executable, "-c", _SCIPY_PROBE])
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout.splitlines()[-1])
    assert seen == {"import cyclicwave": [], "import cyclicwave.cli": [],
                    "exit": 0, "command": []}
    assert (tmp_path / args[-1]).is_file()


def test_geodesic_matches_closed_form(tmp_path):
    r = run(["geodesic", "--metric", "conformal:alpha=-1,m=2",
             "--u0", "0,0", "--direction", "1,1", "--s-max", "3",
             "--out", "geo.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader((tmp_path / "geo.csv").read_text().splitlines()))
    header, body = rows[0], rows[1:]
    assert header[0] == "s"
    for row in body[:: len(body) // 10]:
        s = float(row[0])
        assert float(row[1]) == pytest.approx(math.sinh(s) / math.sqrt(2),
                                              abs=1e-6)


def test_geodesic_leaving_the_chart_exit_3(tmp_path):
    """The vertical half-plane geodesic reaches infinity at s = 1: a run to
    the default s_max = 3 exits 3 naming where the path left the chart and
    writes nothing, while a run that stops before s = 1 exits 0 with every
    requested sample."""
    args = ["geodesic", "--metric", "halfplane:ell=4", "--direction", "0,1"]
    r = run(args + ["--out", "full.csv"], tmp_path)
    assert r.returncode == 3, r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1, r.stderr
    err = json.loads(lines[0])
    assert err["error"] == "IntegrationFailure"
    s_exit = float(err["message"].split(" s=")[1].split(",")[0])
    assert 0.99 < s_exit < 1.0
    assert not (tmp_path / "full.csv").exists()
    r = run(args + ["--s-max", "0.9", "--out", "short.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader((tmp_path / "short.csv").read_text().splitlines()))
    assert len(rows) == 201 and float(rows[-1][0]) == 0.9


_WORK = {
    "stability-chart": "cyclicwave.floquet.trace_curve",
    "geodesic": "cyclicwave.geometry.geodesic_full",
    "noc": "cyclicwave.transform.noc_check",
    "blowup-demo": "cyclicwave.geometry.check_self_coherence",
    "simulate": "cyclicwave.pdesim.evolve_uniform",
}
_ARGS = {
    "stability-chart": chart_args("x.csv"),
    "geodesic": ["geodesic", "--metric", "conformal:alpha=-1", "--out", "x.csv"],
    "noc": ["noc", "--f", "example1:alpha=-1"],
    "blowup-demo": ["blowup-demo", "--metric", "conformal:alpha=-1",
                    "--out", "x.json"],
    "simulate": ["simulate", "--mode", "uniform", "--epsilon", "0.5",
                 "--out", "x.csv"],
}


def _exit_before_work(args, command, monkeypatch, capsys, work=None):
    """Run args in-process with the command's work (or the named `work`)
    patched to fail if called; return the one JSON error line."""
    from cyclicwave import cli

    work = work or _WORK[command]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before the options were checked")

    monkeypatch.setattr(work, no_work)
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=args, prog_name="cyclicwave", standalone_mode=True)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    return json.loads(err)


@pytest.mark.parametrize("tol", ["0", "1e-15", "1e-5"])
@pytest.mark.parametrize("command", list(_WORK))
def test_tol_out_of_range_exit_2_before_work(tmp_path, capsys, monkeypatch,
                                             command, tol):
    """Every command checks --tol against [1e-13, 1e-6] before any work."""
    monkeypatch.chdir(tmp_path)
    err = _exit_before_work(_ARGS[command] + ["--tol", tol], command,
                            monkeypatch, capsys)
    assert err["error"] == "ParameterError"
    assert "tol must lie in [1e-13, 1e-6]" in err["message"]
    assert not any(tmp_path.glob("x.*"))


def test_tol_from_config_is_checked(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"tol": 0}))
    err = _exit_before_work(_ARGS["noc"] + ["--config", "cfg.json"], "noc",
                            monkeypatch, capsys)
    assert "tol must lie in [1e-13, 1e-6]" in err["message"]


@pytest.mark.parametrize("samples", ["1", "0", "-3"])
def test_geodesic_needs_two_samples(tmp_path, capsys, monkeypatch, samples):
    monkeypatch.chdir(tmp_path)
    err = _exit_before_work(_ARGS["geodesic"] + ["--samples", samples],
                            "geodesic", monkeypatch, capsys)
    assert err["error"] == "ParameterError" and "--samples" in err["message"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("s_max", ["0", "-1", "nan", "inf"])
def test_geodesic_s_max_must_be_positive(tmp_path, capsys, monkeypatch, s_max):
    """click's range refuses 0 and -1 before geodesic_full runs; it lets nan
    and inf through, and geodesic_full refuses them before the solver runs."""
    monkeypatch.chdir(tmp_path)
    past_click = s_max in ("nan", "inf")
    work = "scipy.integrate.solve_ivp" if past_click else "cyclicwave.geometry.geodesic_full"
    err = _exit_before_work(_ARGS["geodesic"] + ["--s-max", s_max],
                            "geodesic", monkeypatch, capsys, work=work)
    message = f"s_max must lie in (0, inf), got {s_max}" if past_click else "--s-max"
    assert err["error"] == "ParameterError" and message in err["message"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("t_end", ["0", "-1"])
@pytest.mark.parametrize("mode", ["linear", "uniform"])
def test_simulate_t_end_must_be_positive(tmp_path, capsys, monkeypatch, mode, t_end):
    """A grid run would report a 'completed' run that never reached t_end,
    and a uniform one would integrate backwards: both exit 2 first."""
    monkeypatch.chdir(tmp_path)

    def no_work(*args, **kwargs):
        raise AssertionError("evolve_linear ran before --t-end was checked")

    monkeypatch.setattr("cyclicwave.pdesim.evolve_linear", no_work)
    args = ["simulate", "--mode", mode, "--epsilon", "0.5", "--points", "64",
            "--t-end", t_end, "--out", "x.csv"]
    err = _exit_before_work(args, "simulate", monkeypatch, capsys)
    assert err["error"] == "ParameterError" and "--t-end" in err["message"]
    assert not any(tmp_path.glob("x.*"))


_SIM = ["simulate", "--epsilon", "0.5", "--points", "64", "--t-end", "0.5",
        "--out", "x.csv"]
_MARCH = "cyclicwave.pdesim._march"
_SWEEP = "cyclicwave.floquet.trace_curve"


@pytest.mark.parametrize("args, work", [
    (_SIM + ["--mode", "linear", "--torus-length", "inf"], _MARCH),
    (_SIM + ["--mode", "linear", "--torus-length", "nan"], _MARCH),
    (_SIM + ["--mode", "linear", "--dt", "nan"], _MARCH),
    (_SIM + ["--mode", "linear", "--t-end", "inf"], _MARCH),
    (_SIM + ["--mode", "linear", "--offset", "inf"], _MARCH),
    (_SIM + ["--mode", "nonlinear", "--f", "example1:alpha=-1", "--amplitude", "nan"],
     _MARCH),
    (["simulate", "--mode", "uniform", "--epsilon", "0.5", "--t-end", "inf",
      "--out", "x.csv"], "scipy.integrate.solve_ivp"),
    (chart_args("x.csv") + ["--lambda-max", "inf"], _SWEEP),
    (_ARGS["blowup-demo"] + ["--lambda-max", "inf"], _SWEEP),
    (["noc", "--f", "example1:alpha=nan", "--out", "x.json"],
     "cyclicwave.transform.noc_check"),
    (["geodesic", "--metric", "conformal:alpha=nan", "--out", "x.csv"],
     "cyclicwave.geometry.geodesic_full"),
    (_ARGS["geodesic"] + ["--direction", "inf,1"], "cyclicwave.geometry.geodesic_full"),
    (_ARGS["blowup-demo"] + ["--direction", "nan,1"],
     "cyclicwave.geometry.check_self_coherence"),
], ids=["L-inf", "L-nan", "dt-nan", "t-end-inf", "offset-inf", "amplitude-nan",
        "uniform-t-end-inf", "chart-lambda-max-inf", "blowup-lambda-max-inf",
        "noc-family-nan", "metric-family-nan", "direction-inf", "blowup-direction-nan"])
def test_non_finite_inputs_exit_2_before_work(tmp_path, capsys, monkeypatch,
                                              args, work):
    """Non-finite numbers used to run: an infinite torus wrote a manifest of
    Infinity and NaN, a nan amplitude reported a false blow-up, and an
    infinite lambda range ran the Magnus cap at lambda nan, a uniform run to
    t = inf and a nan noc family parameter never returned, and a nan metric
    parameter or direction exited 3.  Each exits 2 before the stepper, the
    sweep, the ODE solver or the transform starts, and writes no file."""
    monkeypatch.chdir(tmp_path)
    err = _exit_before_work(args, args[0], monkeypatch, capsys, work=work)
    assert err["error"] == "ParameterError"
    assert "finite" in err["message"] or "< inf" in err["message"], err
    assert not any(tmp_path.iterdir())


_EX2 = ["--f", "example2:ell=4", "--epsilon", "0.5", "--t-end", "0.5", "--out", "x.csv"]
_UNI1 = ["simulate", "--mode", "uniform", "--epsilon", "0.5", "--f", "example1:alpha=-1",
         "--u1-val", "1", "--out", "x.csv"]


@pytest.mark.parametrize("args, work, named", [
    (["simulate", "--mode", "linear", "--epsilon", "0.5", "--points", "0",
      "--t-end", "0.5", "--out", "x.csv"], _MARCH, "power of two"),
    (_SIM + ["--mode", "linear", "--n", "0"], _MARCH, "n >= 1"),
    (_SIM + ["--mode", "linear", "--n", "-2"], _MARCH, "n >= 1"),
    (["simulate", "--mode", "uniform", "--epsilon", "0.5", "--n", "0", "--out", "x.csv"],
     "scipy.integrate.solve_ivp", "n >= 1"),
    (["simulate", "--mode", "nonlinear", "--points", "64", "--offset", "-2"] + _EX2,
     _MARCH, "domain"),
    (["simulate", "--mode", "nonlinear", "--points", "64", "--amplitude", "5"] + _EX2,
     _MARCH, "domain"),
    (["simulate", "--mode", "uniform", "--u0-val", "-2"] + _EX2,
     "scipy.integrate.solve_ivp", "domain"),
    (["simulate", "--mode", "uniform", "--u0-val", "-0.9999999985"] + _EX2,
     "scipy.integrate.solve_ivp", "domain"),
    (["simulate", "--mode", "uniform", "--epsilon", "0.5", "--u1-val", "nan",
      "--out", "x.csv"], "scipy.integrate.solve_ivp", "--u1-val"),
    (["simulate", "--mode", "uniform", "--epsilon", "0.5", "--u1-val", "inf",
      "--out", "x.csv"], "scipy.integrate.solve_ivp", "--u1-val"),
    (_UNI1 + ["--u0-val", "2e8"], "scipy.integrate.solve_ivp", "|u0| < 1e+08"),
    (_UNI1 + ["--u0-val", "-1e8"], "scipy.integrate.solve_ivp", "|u0| < 1e+08"),
], ids=["points-0", "n-0", "n-negative", "uniform-n-0", "offset-outside-domain",
        "amplitude-outside-domain", "uniform-outside-domain", "uniform-within-edge-floor",
        "uniform-u1-nan", "uniform-u1-inf", "uniform-u0-past-cap", "uniform-u0-at-cap"])
def test_simulate_invalid_setup_exit_2_before_work(tmp_path, capsys, monkeypatch,
                                                   args, work, named):
    """--points 0 ended in a ZeroDivisionError traceback, n < 1 ran the wave
    operator of no spatial dimension, data outside (-1, inf), the domain
    of example2, were evolved, and a non-finite --u1-val reached scipy's
    solver: each exits 2 before the stepper or the ODE solver starts, and
    writes no file.  So does a uniform start within the floor 2e-9 (1 + 1)
    of example2's edge, where a run would end at once, and one at or past
    the escape cap |u| = 1e8, which a run at 2e8 never noticed (exit 0 with
    all 400 samples) and one at -1e8 ended after 2."""
    monkeypatch.chdir(tmp_path)
    err = _exit_before_work(args, "simulate", monkeypatch, capsys, work=work)
    assert err["error"] == "ParameterError"
    assert named in err["message"], err
    assert not any(tmp_path.iterdir())


def test_noc_verdicts(tmp_path):
    r = run(["noc", "--f", "example1:alpha=-1", "--out", "v.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    v = json.loads((tmp_path / "v.json").read_text())
    assert v["holds"] == "no"
    r = run(["noc", "--f", "example1:alpha=-0.25"], tmp_path)
    assert r.returncode == 0
    assert json.loads(r.stdout.strip())["holds"] == "yes"
    r = run(["noc", "--f", "example2:ell=4"], tmp_path)
    assert json.loads(r.stdout.strip())["holds"] == "no"
    r = run(["noc", "--f", "nosuch:alpha=1"], tmp_path)
    assert r.returncode == 2


@pytest.mark.parametrize("flag, value", [("--s-max", "nan"), ("--s-max", "inf"),
                                         ("--margin", "-1"), ("--margin", "nan")])
def test_noc_out_of_range_exit_2_before_work(tmp_path, capsys, monkeypatch,
                                             flag, value):
    """--s-max nan ended in a traceback and inf never returned; --margin -1
    called both sides convergent and nan every side inconclusive, with
    exit 0.  Each exits 2 before a transform panel is built."""
    monkeypatch.chdir(tmp_path)
    err = _exit_before_work(_ARGS["noc"] + [flag, value, "--out", "x.json"], "noc",
                            monkeypatch, capsys,
                            work="cyclicwave.transform._Side.reach")
    assert err["error"] == "ParameterError"
    assert flag[2:].replace("-", "_") in err["message"]
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("flag, value", [("--delta", "nan"), ("--delta", "-0.5"),
                                         ("--s-exponent", "nan"),
                                         ("--s-exponent", "inf"), ("--s-exponent", "5"),
                                         ("--n", "4")])
def test_blowup_demo_delta_and_s_exit_2_before_scan(tmp_path, capsys, monkeypatch,
                                                    flag, value):
    """A bad --delta or --s-exponent used to exit 3 (or 2) only after the
    Floquet scan, and after every M up to 256 for --delta; --n 4 exited 2
    after the scan and the M loop, on the torus grid's dimension."""
    monkeypatch.chdir(tmp_path)
    err = _exit_before_work(_ARGS["blowup-demo"] + [flag, value], "blowup-demo",
                            monkeypatch, capsys,
                            work="cyclicwave.floquet._fundamental")
    assert err["error"] == "ParameterError"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("metric, direction", [
    ("conformal:alpha=-1", "0,1e-200"),
    ("halfplane:ell=4", "0,1e-200"),
    ("halfplane:ell=4", "1e-170,0"),
    ("conformal:alpha=-1", "1e200,1e200"),
], ids=["conformal", "halfplane-vertical", "halfplane-horizontal", "conformal-overflow"])
def test_blowup_demo_underflowing_direction_exit_2(tmp_path, capsys, monkeypatch,
                                                   metric, direction):
    """A direction whose squared norm underflows to 0 passed the nonzero
    check and ended in a ZeroDivisionError traceback, and one whose squared
    norm overflows exited 3 after three numpy overflow warnings: each exits
    2 before the metric's ray or a Christoffel symbol is evaluated, with no
    warning, and writes no file."""
    monkeypatch.chdir(tmp_path)
    args = ["blowup-demo", "--metric", metric, "--direction", direction,
            "--out", "x.json"]
    err = _exit_before_work(args, "blowup-demo", monkeypatch, capsys,
                            work="cyclicwave.geometry.christoffel")
    assert err["error"] == "ParameterError"
    assert "squared norm" in err["message"], err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("spec", ["example1", "example2", "example3",
                                  "example4", "example1:alpha=-1,bogus=3",
                                  "zero:alpha=1", "example3:alpha=-1,axis=1.5"])
def test_noc_missing_f_parameter_exit_2(tmp_path, spec):
    r = run(["noc", "--f", spec], tmp_path)
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ParameterError"


@pytest.mark.parametrize("spec, named", [
    ("conformal:alpha=-1,m=2.7", "'m'"),
    ("conformal:alpha=-1,m=0", "m >= 1"),
], ids=["non-integral-m", "m-zero"])
def test_geodesic_bad_metric_parameter_exit_2(tmp_path, spec, named):
    """An integer family key must be integral and a metric needs m >= 1;
    the one JSON line names the key at fault."""
    r = run(["geodesic", "--metric", spec, "--out", "g.csv"], tmp_path)
    assert r.returncode == 2, r.stderr
    _single_parameter_error(r)
    assert named in json.loads(r.stderr)["message"]
    assert not (tmp_path / "g.csv").exists()


def test_blowup_demo_full_run(tmp_path):
    r = run(["blowup-demo", "--metric", "conformal:alpha=-1,m=2",
             "--direction", "1,1", "--lambda-min", "5", "--lambda-max", "17",
             "--out", "cert.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["M"] == 35
    assert cert["b_G"] == pytest.approx(math.pi / (2 * math.sqrt(2)),
                                        abs=1e-8)
    assert cert["t_star"] == pytest.approx(32.1072635173914, rel=1e-6)
    assert cert["smallness"] <= cert["delta"]


def test_blowup_demo_integrates_one_transform(tmp_path, monkeypatch):
    """blowup-demo integrates G once: the certificate's own endpoint check
    decides whether a finite endpoint exists, with no second TransformPair
    for a separate verdict."""
    from cyclicwave import cli, transform

    built = []
    init = transform.TransformPair.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(transform.TransformPair, "__init__", counted)
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=["blowup-demo", "--metric", "conformal:alpha=-1,m=2",
                            "--lambda-min", "5", "--lambda-max", "17",
                            "--out", "cert.json"], prog_name="cyclicwave")
    assert exc.value.code == 0
    assert len(built) == 1
    assert (tmp_path / "cert.json").is_file()


def test_blowup_demo_simulate_runs_torus_scenario(tmp_path, monkeypatch):
    """--simulate yes evolves exactly blowup.torus_scenario(cert), with the
    certificate's potential and transform, and writes its manifest.  The
    torus run itself is replaced by a one-snapshot result."""
    import numpy as np

    from cyclicwave import blowup, cli, pdesim

    certs, calls = [], []
    certify = blowup.certify_blowup

    def recorded_certify(*args, **kwargs):
        certs.append(certify(*args, **kwargs))
        return certs[-1]

    def recorded_evolve(pot, grid, u0, u1, v_guard, n_snapshots=64):
        calls.append((pot, grid, u0, u1, v_guard))
        return pdesim.SimResult(snapshots=[(0.0, u0)], diagnostics={},
                                termination="completed")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(blowup, "certify_blowup", recorded_certify)
    monkeypatch.setattr(pdesim, "evolve_nonlinear", recorded_evolve)
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=["blowup-demo", "--metric", "conformal:alpha=-1",
                            "--simulate", "yes", "--out", "cert.json"],
                      prog_name="cyclicwave")
    assert exc.value.code == 0
    (cert,), ((pot, grid, u0, u1, tp),) = certs, calls
    assert pot is cert.m.pot and tp is cert.tp
    ref_grid, ref_u0, ref_u1 = blowup.torus_scenario(cert)
    assert grid == ref_grid
    assert np.array_equal(u0, ref_u0) and np.array_equal(u1, ref_u1)
    assert (tmp_path / "cert.json").read_text() == cert.to_json()
    manifest = json.loads((tmp_path / "cert.sim.json").read_text())
    assert manifest["grid"]["points"] == 1024 and manifest["t_final"] == 0.0


def test_blowup_demo_noc_holds_exit_4(tmp_path):
    r = run(["blowup-demo", "--metric", "conformal:alpha=-0.4,m=2",
             "--direction", "1,1", "--out", "c.json"], tmp_path)
    assert r.returncode == 4
    assert json.loads(r.stderr.strip())["error"] == "NotApplicableError"


def test_blowup_demo_not_distinguished_exit_5(tmp_path):
    r = run(["blowup-demo", "--metric", "halfplane:ell=4",
             "--direction", "1,0", "--out", "c.json"], tmp_path)
    assert r.returncode == 5
    assert json.loads(r.stderr.strip())["error"] == "NotDistinguishedError"


def test_blowup_demo_no_instability_exit_3(tmp_path):
    # a purely stable lambda window: the certificate search must fail with
    # a numerical (search) error, not crash
    r = run(["blowup-demo", "--metric", "conformal:alpha=-1,m=2",
             "--direction", "1,1", "--lambda-min", "1", "--lambda-max", "4",
             "--out", "c.json"], tmp_path)
    assert r.returncode == 3, (r.returncode, r.stderr)


def test_blowup_demo_n1_says_why_exit_3(tmp_path):
    """n = 1 has no instability interval for any b: the exit-3 message says
    so instead of suggesting another lambda range."""
    r = run(["blowup-demo", "--metric", "conformal:alpha=-1", "--n", "1",
             "--out", "c.json"], tmp_path)
    assert r.returncode == 3, (r.returncode, r.stderr)
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1, r.stderr
    err = json.loads(lines[0])
    assert err["error"] == "ExhaustedSearchError"
    assert "n = 1 has no instability interval for any b" in err["message"]
    assert "requested range" not in err["message"]
    assert not any(tmp_path.glob("c.*"))


def test_blowup_demo_n2_certifies(tmp_path):
    """n = 2 has growth from M = 56 on, and its radial smallness first drops
    below delta = 1e-3 at M = 87."""
    r = run(["blowup-demo", "--metric", "conformal:alpha=-1", "--n", "2",
             "--out", "c.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    cert = json.loads((tmp_path / "c.json").read_text())
    assert (cert["M"], cert["S"], cert["lambda"]) == (87, 4.5, 10.308521303258145)
    assert cert["t_star"] == pytest.approx(54.332152357, rel=1e-9)
    assert 0.0 < cert["smallness"] <= cert["delta"] == 1e-3
    assert len(cert["y"]) == 2


def test_blowup_demo_n2_small_delta_exit_3(tmp_path):
    """At delta = 1e-5 no n = 2 plan with M <= 256 is small enough (the
    smallness falls like M^{n-S} = M^-2.5): exit 3 with one JSON line that
    reports the best M, and no file."""
    r = run(["blowup-demo", "--metric", "conformal:alpha=-1", "--n", "2",
             "--delta", "1e-5", "--out", "c.json"], tmp_path)
    assert r.returncode == 3, (r.returncode, r.stderr)
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1, r.stderr
    err = json.loads(lines[0])
    assert err["error"] == "ExhaustedSearchError"
    assert "at M=256 still exceeds" in err["message"]
    assert not any(tmp_path.glob("c.*"))


def test_simulate_uniform(tmp_path):
    r = run(["simulate", "--mode", "uniform", "--epsilon", "0.5", "--n", "3",
             "--f", "example1:alpha=-1", "--t-end", "2", "--u0-val", "0",
             "--u1-val", "1", "--out", "u.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader((tmp_path / "u.csv").read_text().splitlines()))
    assert rows[0] == ["t", "u"]
    # this run crosses the finite endpoint: last value is huge
    assert abs(float(rows[-1][1])) > 1e6


@pytest.mark.parametrize("u1", ["-5", "-50"])
@pytest.mark.parametrize("ell", ["0.5", "1", "1.75"])
def test_simulate_uniform_stops_at_domain_edge(tmp_path, ell, u1):
    """example2's domain is u > -1, and G's endpoint lies at that edge.  A
    uniform run heading there hung (ell = 0.5), or warned and stepped
    across it (ell = 1.75) or stalled at it (ell = 1).  It ends, exit 0,
    once u comes within the floor 2e-9 (1 + 1) of the edge, with every u
    inside the domain."""
    r = run(["simulate", "--mode", "uniform", "--epsilon", "0.5", "--u1-val", u1,
             "--f", f"example2:ell={ell}", "--out", "u.csv"], tmp_path, timeout=20)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    rows = list(csv.reader((tmp_path / "u.csv").read_text().splitlines()))
    u = [float(row[1]) for row in rows[1:]]
    assert len(u) < 400
    assert all(x > -1.0 for x in u)
    assert u[-1] <= -1.0 + 4e-9


@pytest.mark.parametrize("args", [
    ["simulate", "--mode", "uniform", "--epsilon", "0.5", "--u1-val", "1e300",
     "--out", "x.csv"],
    ["geodesic", "--metric", "conformal:alpha=1e300", "--out", "x.csv"],
    ["blowup-demo", "--metric", "conformal:alpha=1e300", "--out", "x.json"],
], ids=["uniform-u1-1e300", "geodesic-alpha-1e300", "blowup-alpha-1e300"])
def test_overflowing_inputs_exit_3_with_one_line(tmp_path, args):
    """u1 = 1e300 overflows u1^2, so the slope is 0 inf = nan and scipy's
    first step size nan: the run never returned.  alpha = 1e300 makes the
    metric singular, and numpy's warnings came before the JSON line.  Each
    exits 3 with exactly one stderr line, and writes nothing."""
    r = run(args, tmp_path, timeout=20)
    assert r.returncode == 3, r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1, r.stderr
    json.loads(lines[0])
    assert not any(tmp_path.iterdir())


def test_simulate_level_beyond_g_reach_exit_3(tmp_path):
    """For example4:alpha=-1.01 the blow-up guard's level lies beyond
    G(1e9): a numerical limit, so the run exits 3 with one JSON line and
    writes nothing."""
    r = run(["simulate", "--mode", "nonlinear", "--f", "example4:alpha=-1.01",
             "--epsilon", "0.5", "--t-end", "1", "--points", "64",
             "--out", "x.csv"], tmp_path)
    assert r.returncode == 3, r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1, r.stderr
    err = json.loads(lines[0])
    assert err["error"] == "QuadratureError"
    assert "level" in err["message"]
    assert not any(tmp_path.glob("x.*"))


def test_simulate_linear_grid(tmp_path):
    r = run(["simulate", "--mode", "linear", "--epsilon", "0.5",
             "--t-end", "1", "--points", "64", "--amplitude", "0.01",
             "--k", "1", "--out", "lin.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "lin.csv").exists()
    man = json.loads((tmp_path / "lin.json").read_text())
    assert man["termination"] == "completed"


# Each --f family as the formula it computes in place, evaluated as written.
_F_FORMULAS = {
    ("zero", ()): lambda t: 0.0 * t,
    ("example1", (-1.0,)): lambda t: 4.0 * -1.0 * t / (1.0 + 2.0 * t**2),
    ("example1", (0.37,)): lambda t: 4.0 * 0.37 * t / (1.0 + 2.0 * t**2),
    ("example2", (1.75,)): lambda t: -1.75 / (2.0 * (1.0 + t)),
    ("example3", (-0.7,)): lambda t: -0.7 * t / (1.0 + t**2),
    ("example3", (-0.7, 2)): lambda t: 2.0 * -0.7 * t**3 / (1.0 + t**4),
    ("example4", (-1.01,)): lambda t: 3.0 * -1.01 * t / (1.0 + 3.0 * t**2),
    ("example4", (0.3, 5.0)): lambda t: 5.0 * 0.3 * t / (1.0 + 5.0 * t**2),
}


@pytest.mark.parametrize("name, args", list(_F_FORMULAS), ids=str)
def test_f_families_keep_the_formulas_bits(name, args):
    """The in-place --f nonlinearities give their formulas' bits on arrays
    (zeros, infinities and nan included), on floats and on 0-d arrays, which
    stay 0-d, and leave their argument alone."""
    from cyclicwave.cli import F_FAMILIES

    f, domain = F_FAMILIES[name](*args)
    formula = _F_FORMULAS[name, args]
    rng = np.random.default_rng(5)
    t = rng.normal(size=4000) * 10.0 ** rng.uniform(-8, 8, 4000)
    t = np.concatenate([t, [0.0, -0.0, 1e300, -1e-300, np.inf, -np.inf, np.nan]])
    if domain[0] == -1.0:
        t = np.abs(t) - 0.999
    before = t.copy()
    with np.errstate(all="ignore"):
        assert f(t).tobytes() == formula(t).tobytes()
        for s in (0.3, -2.5, np.float64(1.7), np.array(-0.25)):
            got = f(s)
            assert np.ndim(got) == 0
            assert np.float64(got).tobytes() == np.float64(formula(np.asarray(s))).tobytes()
    assert t.tobytes() == before.tobytes()


def test_perturbed_metric_calls_h_once_per_stack():
    """The perturbed family's H takes a stack of points: check_self_coherence
    calls it once for h and four times per coordinate for the difference
    quotients of dh, each on all 64 points, and every H matrix has the bits
    of the one-point formula c (u_i - u_j)^2 / (1 + u @ u)."""
    from cyclicwave import geometry
    from cyclicwave.cli import METRICS, parse_family

    metric = parse_family("perturbed:alpha=-1", METRICS, "metric")
    H, shapes = metric.H, []

    def counted(u):
        shapes.append(np.shape(u))
        return H(u)

    metric.H = counted
    geometry.check_self_coherence(metric, np.ones(2), (0.0, 2.0))
    assert shapes == [(64, 2)] * (1 + 4 * metric.m)

    rng = np.random.default_rng(3)
    u = rng.normal(size=(50, 2)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
    one = [0.1 * (p[:, None] - p[None, :]) ** 2 / (1.0 + float(p @ p)) for p in u]
    assert H(u).tobytes() == np.array(one).tobytes()
    assert H(u[7]).tobytes() == one[7].tobytes()
