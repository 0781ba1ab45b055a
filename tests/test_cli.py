"""Command-line interface: exit codes, outputs, config handling and
determinism."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "cyclicwave.cli"]
# the subprocess runs in tmp_path, where a relative PYTHONPATH=src would
# no longer find the package
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(args, cwd, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + args, cwd=cwd, env=env,
                          capture_output=True, text=True)


def chart_args(out, extra=()):
    return ["stability-chart", "--epsilon", "0.5", "--n", "3",
            "--lambda-min", "5", "--lambda-max", "17",
            "--grid", "200", "--out", out, *extra]


def test_stability_chart_outputs(tmp_path):
    r = run(chart_args("chart.csv"), tmp_path)
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader((tmp_path / "chart.csv").open()))
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
            list(csv.reader((tmp_path / "chart.csv").open()))[1:]}
    side = json.loads((tmp_path / "chart.json").read_text())
    assert side["intervals"]
    for iv in side["intervals"]:
        assert rows[iv["witness_lambda"]] == iv["max_abs_trace"]


def test_determinism_across_threads(tmp_path):
    run(chart_args("a.csv"), tmp_path, {"CYCLICWAVE_THREADS": "1"})
    run(chart_args("b.csv"), tmp_path, {"CYCLICWAVE_THREADS": "4"})
    run(chart_args("c.csv"), tmp_path, {"CYCLICWAVE_THREADS": "1"})
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a == (tmp_path / "c.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


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


def test_geodesic_matches_closed_form(tmp_path):
    r = run(["geodesic", "--metric", "conformal:alpha=-1,m=2",
             "--u0", "0,0", "--direction", "1,1", "--s-max", "3",
             "--out", "geo.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader((tmp_path / "geo.csv").open()))
    header, body = rows[0], rows[1:]
    assert header[0] == "s"
    for row in body[:: len(body) // 10]:
        s = float(row[0])
        assert float(row[1]) == pytest.approx(math.sinh(s) / math.sqrt(2),
                                              abs=1e-6)


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


@pytest.mark.parametrize("spec", ["example1", "example2", "example3",
                                  "example4"])
def test_noc_missing_f_parameter_exit_2(tmp_path, spec):
    r = run(["noc", "--f", spec], tmp_path)
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ParameterError"


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


def test_simulate_uniform(tmp_path):
    r = run(["simulate", "--mode", "uniform", "--epsilon", "0.5", "--n", "3",
             "--f", "example1:alpha=-1", "--t-end", "2", "--u0-val", "0",
             "--u1-val", "1", "--out", "u.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader((tmp_path / "u.csv").open()))
    assert rows[0] == ["t", "u"]
    # this run crosses the finite endpoint: last value is huge
    assert abs(float(rows[-1][1])) > 1e6


def test_simulate_linear_grid(tmp_path):
    r = run(["simulate", "--mode", "linear", "--epsilon", "0.5",
             "--t-end", "1", "--points", "64", "--amplitude", "0.01",
             "--k", "1", "--out", "lin.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "lin.csv").exists()
    man = json.loads((tmp_path / "lin.json").read_text())
    assert man["termination"] == "completed"
