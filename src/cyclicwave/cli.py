"""Command-line surface: stability charts, geodesics, NOC verdicts,
blow-up certificates and direct simulations.

Exit codes: 0 success, 2 validation or I/O error, 3 numerical failure, 4 both
endpoints of the transform G are infinite (the global-existence condition
holds), so no blow-up is certified, 5 the requested direction is not a
distinguished geodesic, 130 interrupted (Ctrl-C).  Every nonzero exit
writes a single-line JSON error to stderr.  Outputs are written
atomically; identical configuration yields byte-identical files.
"""

import dataclasses
import inspect
import json
import math
import os
import sys

import click
import numpy as np

from . import blowup, coeffs, floquet, geometry, pdesim, transform
from .errors import (
    CyclicWaveError,
    ExhaustedSearchError,
    IntegrationFailure,
    NotApplicableError,
    ParameterError,
    QuadratureError,
    ResolutionError,
    SingularMetricError,
)
from .output import csv_text, write_atomic

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NOC_HOLDS = 4
EXIT_NOT_DISTINGUISHED = 5
EXIT_ABORTED = 130  # 128 + SIGINT, as a shell reports an interrupted command

_COHERENCE_TOL = 1e-6


class NotDistinguishedError(CyclicWaveError):
    pass


class Aborted(CyclicWaveError):
    pass


def _fail(code, exc):
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    click.echo(line, err=True)
    sys.exit(code)


def _load_config(ctx, _param, path):
    """Make a JSON config file's values the command's option defaults.

    click then converts each value as it converts the same flag, lets
    explicit flags win, and counts the values toward required options.
    """
    if path is None:
        return
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParameterError("config file must hold a JSON object")
    known = {param.name: param for param in ctx.command.params
             if param.name != "config"}
    defaults = {}
    for key, value in data.items():
        name = key.replace("-", "_")
        if name not in known:
            raise ParameterError(f"unknown config key {key!r}")
        # click's INT casts a JSON float with int(), which truncates
        if (isinstance(known[name].type, click.types.IntParamType)
                and isinstance(value, float) and not value.is_integer()):
            raise ParameterError(f"config key {key!r}: {value!r} is not a valid integer")
        defaults[name] = value
    ctx.default_map = defaults


config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_load_config)


def _check_out(_ctx, _param, path):
    """Reject an output path in a missing directory before any work."""
    if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ParameterError(f"cannot write {path!r}: its directory does not exist")
    return path


def out_option(**kwargs):
    return click.option("--out", type=click.Path(), callback=_check_out, **kwargs)


def tol_option(default, **kwargs):
    """--tol, rejected before any work unless it lies in [1e-13, 1e-6]."""
    return click.option("--tol", type=float, default=default, show_default=True,
                        callback=lambda _ctx, _param, tol: floquet.check_tol(tol), **kwargs)


def parse_family(spec, families, kind):
    """Build what a `name:key=value,...` spec names in a family table.

    A family is its builder, and the builder's signature states the keys:
    a parameter without a default is a required key, one with a default an
    optional key, and one whose default is an int an integer key.  Values
    are finite real numbers.  An unknown family or key, a missing key, a
    non-finite value and a non-integral value for an integer key are each a
    ParameterError.
    """
    name, _, params = spec.partition(":")
    if name not in families:
        raise ParameterError(f"unknown {kind} family {name!r}")
    keys = inspect.signature(families[name]).parameters
    given = {}
    for part in params.split(",") if params else ():
        key, eq, text = part.partition("=")
        key = key.strip()
        if not eq:
            raise ParameterError(f"expected key=value, got {part!r}")
        if key not in keys:
            raise ParameterError(f"{name} has no key {key!r}: {spec!r}")
        value = float(text)
        if not math.isfinite(value):
            raise ParameterError(f"{name} key {key!r} must be finite, got {text!r}")
        if isinstance(keys[key].default, int):
            if not value.is_integer():
                raise ParameterError(f"{name} key {key!r} must be an integer, got {text!r}")
            value = int(value)
        given[key] = value
    missing = [key for key, param in keys.items()
               if param.default is param.empty and key not in given]
    if missing:
        raise ParameterError(f"{name} needs {', '.join(missing)}: {spec!r}")
    return families[name](**given)


def _perturbed(alpha, m=2, c=0.1):
    # H and its gradient vanish on the diagonal, so the diagonal keeps the
    # conformal part's nonlinearity
    def H(u):
        u = np.asarray(u, dtype=float)
        diff = u[:, None] - u[None, :]
        return c * diff**2 / (1.0 + float(u @ u))

    return geometry.conformal_power(alpha, powers=(2,) * m).perturbed(H)


METRICS = {
    "conformal": lambda alpha, m=2: geometry.conformal_power(alpha, powers=(2,) * m),
    "quartic": lambda alpha: geometry.conformal_power(alpha, powers=(2, 4)),
    "halfplane": geometry.half_plane_power,
    "perturbed": _perturbed,
}


def parse_vector(text, m):
    vals = [float(x) for x in text.split(",")]
    if len(vals) != m or not all(map(math.isfinite, vals)):
        raise ParameterError(f"expected {m} finite components, got {text!r}")
    return np.array(vals)


def _on_array(g, domain=(-math.inf, math.inf)):
    """(f, domain) of a nonlinearity: f converts its argument to a float
    array once and applies g to it."""
    return (lambda t: g(np.asarray(t, dtype=float))), domain


def _example3(alpha, axis=1):
    if axis == 1:
        return _on_array(lambda t: alpha * t / (1.0 + t**2))
    if axis == 2:
        return _on_array(lambda t: 2.0 * alpha * t**3 / (1.0 + t**4))
    raise ParameterError(f"example3 axis must be 1 or 2, got {axis}")


F_FAMILIES = {
    "zero": lambda: _on_array(lambda t: 0.0 * t),
    "example1": lambda alpha: _on_array(lambda t: 4.0 * alpha * t / (1.0 + 2.0 * t**2)),
    "example2": lambda ell: _on_array(lambda t: -ell / (2.0 * (1.0 + t)), (-1.0, math.inf)),
    "example3": _example3,
    "example4": lambda alpha, m=3.0: _on_array(lambda t: m * alpha * t / (1.0 + m * t**2)),
}


def coefficient_from_flags(constant_b, epsilon):
    if constant_b:
        return coeffs.constant()
    if epsilon is None:
        raise ParameterError("provide --epsilon or --constant-b")
    return coeffs.sqrt_sin(epsilon)


def line_domain(metric, a):
    """The t-interval on which t*a stays inside the metric chart."""
    if metric.domain is None:
        return (-math.inf, math.inf)
    a = np.asarray(a, dtype=float)

    def edge(sign):
        t = sign * 1e-6
        if not metric.in_domain(a * t):
            return 0.0
        while metric.in_domain(a * t) and abs(t) < 1e12:
            t *= 2.0
        if abs(t) >= 1e12:
            return sign * math.inf
        inside, outside = t / 2.0, t
        for _ in range(80):
            mid = 0.5 * (inside + outside)
            if metric.in_domain(a * mid):
                inside = mid
            else:
                outside = mid
        return inside

    return (edge(-1.0), edge(+1.0))


def _check_inside(domain, lo, hi, what):
    """ParameterError unless [lo, hi] lies strictly inside f's domain."""
    if not domain[0] < lo <= hi < domain[1]:
        raise ParameterError(f"{what} must lie strictly inside f's domain "
                             f"{domain}, got [{lo!r}, {hi!r}]")


class _JsonErrorGroup(click.Group):
    """A click group that maps every failure, usage errors (bad flag
    values, unknown or missing options) included, to its exit code and one
    JSON line on stderr.  Help and exit codes behave as in click's
    standalone mode."""

    def invoke(self, ctx):
        # click parses the subcommand's options inside Group.invoke, so an
        # interrupt there is caught here too, before click echoes a blank
        # line and aborts
        try:
            return super().invoke(ctx)
        except NotApplicableError as exc:
            _fail(EXIT_NOC_HOLDS, exc)
        except NotDistinguishedError as exc:
            _fail(EXIT_NOT_DISTINGUISHED, exc)
        except (ParameterError, ValueError, OSError) as exc:
            _fail(EXIT_VALIDATION, exc)
        except (IntegrationFailure, QuadratureError, ResolutionError,
                SingularMetricError, ExhaustedSearchError, OverflowError,
                FloatingPointError) as exc:
            _fail(EXIT_NUMERICAL, exc)
        except KeyboardInterrupt:
            _fail(EXIT_ABORTED, Aborted("interrupted"))

    def main(self, *args, standalone_mode=True, **kwargs):
        # always standalone: click's own handling is off so its errors map too
        try:
            code = super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as exc:
            _fail(EXIT_VALIDATION, ParameterError(exc.format_message()))
        except click.Abort:
            _fail(EXIT_ABORTED, Aborted("interrupted"))
        sys.exit(code or EXIT_OK)


@click.group(cls=_JsonErrorGroup, no_args_is_help=False)
def main():
    """Numerical toolkit for wave-map blow-up on time-periodic spacetimes."""


@main.command("stability-chart")
@click.option("--epsilon", type=float, default=None,
              help="sqrt-sin coefficient amplitude, in (0,1)")
@click.option("--constant-b", is_flag=True, help="use b == 1 instead of sqrt-sin")
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--lambda-min", type=float, default=0.1, show_default=True)
@click.option("--lambda-max", type=float, default=60.0, show_default=True)
@click.option("--grid", type=int, default=1000, show_default=True)
@tol_option(1e-11)
@config_option
@out_option(required=True)
def stability_chart(**p):
    """Monodromy-trace chart plus an instability-interval JSON sidecar."""
    b = coefficient_from_flags(p["constant_b"], p["epsilon"])
    pot = coeffs.HillPotential(b, p["n"])
    lams = floquet.scan_grid((p["lambda_min"], p["lambda_max"]), p["grid"])
    traces = floquet.trace_curve(pot, lams, p["tol"])
    intervals = floquet.instability_intervals(pot, lams, traces, p["tol"])
    floquet.export_stability_chart(p["out"], lams, traces)
    sidecar = os.path.splitext(p["out"])[0] + ".json"
    write_atomic(sidecar, json.dumps({
        "coefficient": "constant" if p["constant_b"] else "sqrt-sin",
        "epsilon": p["epsilon"],
        "n": p["n"],
        "lambda_range": [p["lambda_min"], p["lambda_max"]],
        "grid": p["grid"],
        "intervals": [dataclasses.asdict(iv) for iv in intervals],
    }, indent=2) + "\n")


@main.command("geodesic")
@click.option("--metric", required=True,
              help="family:params, e.g. conformal:alpha=-1")
@click.option("--u0", default=None, help="start point, comma-separated")
@click.option("--direction", default=None, help="initial direction, comma-separated")
@click.option("--s-max", type=click.FloatRange(min=0, min_open=True), default=3.0,
              show_default=True)
@tol_option(1e-10)
@click.option("--samples", type=click.IntRange(min=2), default=200, show_default=True)
@config_option
@out_option(required=True)
def geodesic(**p):
    """Integrate a unit-speed geodesic and export the path CSV."""
    metric = parse_family(p["metric"], METRICS, "metric")
    u0 = (parse_vector(p["u0"], metric.m) if p["u0"]
          else np.zeros(metric.m))
    d = (parse_vector(p["direction"], metric.m) if p["direction"]
         else np.ones(metric.m))
    speed2 = float(d @ metric.h(u0) @ d)
    if speed2 <= 0:
        raise ParameterError("direction has nonpositive metric speed")
    v0 = d / math.sqrt(speed2)
    samples = geometry.geodesic_full(metric, u0, v0, p["s_max"], tol=p["tol"],
                                     n_samples=p["samples"])
    geometry.export_path_csv(p["out"], samples, metric.m)


@main.command("noc")
@click.option("--f", "f_spec", required=True,
              help="nonlinearity family, e.g. example1:alpha=-1 or example2:ell=4")
@click.option("--s-max", type=float, default=1e5, show_default=True)
@click.option("--margin", type=float, default=0.1, show_default=True)
@tol_option(1e-12)
@config_option
@out_option(default=None, help="verdict JSON path (stdout when omitted)")
def noc(**p):
    """Classify the global-existence integral condition for a named f."""
    f, domain = parse_family(p["f_spec"], F_FAMILIES, "f")
    verdict = transform.noc_check(f, s_max=p["s_max"], margin=p["margin"],
                                  domain=domain, tol=p["tol"])
    text = verdict.to_json()
    if p["out"]:
        write_atomic(p["out"], text + "\n")
    else:
        click.echo(text)


@main.command("blowup-demo")
@click.option("--metric", required=True, help="family:params")
@click.option("--direction", default=None, help="line direction a1,...,am")
@click.option("--epsilon", type=float, default=0.5, show_default=True)
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--delta", type=float, default=1e-3, show_default=True)
@click.option("--s-exponent", type=float, default=None,
              help="decay exponent S (default 2n + 1/2)")
@click.option("--lambda-min", type=float, default=0.1, show_default=True)
@click.option("--lambda-max", type=float, default=60.0, show_default=True)
@click.option("--simulate", type=click.Choice(["yes", "no"]), default="no",
              show_default=True)
@tol_option(1e-11)
@config_option
@out_option(required=True, help="certificate JSON path")
def blowup_demo(**p):
    """Full pipeline: coherence check, then the blow-up certificate, which
    exits 4 when the transform has no finite endpoint."""
    metric = parse_family(p["metric"], METRICS, "metric")
    a = (parse_vector(p["direction"], metric.m) if p["direction"]
         else np.ones(metric.m))

    domain = line_domain(metric, a)
    t_hi = min(5.0, 0.9 * domain[1]) if math.isfinite(domain[1]) else 5.0
    line = geometry.check_self_coherence(metric, a, (0.0, t_hi))
    if line.max_residual > _COHERENCE_TOL:
        raise NotDistinguishedError(
            f"direction is not a distinguished geodesic "
            f"(coherence residual {line.max_residual:.3g} > {_COHERENCE_TOL})"
        )
    f = metric.ray_log_derivative(a)

    pot = coeffs.HillPotential(coeffs.sqrt_sin(p["epsilon"]), p["n"])
    tp = transform.build_transform(f, domain=domain)
    cert = blowup.certify_blowup(
        tp, pot, (p["lambda_min"], p["lambda_max"]), p["delta"],
        S=p["s_exponent"], tol=p["tol"])
    write_atomic(p["out"], cert.to_json())

    if p["simulate"] == "yes":
        grid, u0, u1 = blowup.torus_scenario(cert)
        result = pdesim.evolve_nonlinear(cert.m.pot, grid, u0, u1, cert.tp)
        pdesim.export_manifest(os.path.splitext(p["out"])[0] + ".sim.json", result, grid)


@main.command("simulate")
@click.option("--mode", type=click.Choice(["linear", "nonlinear", "uniform"]),
              required=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--constant-b", is_flag=True)
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--f", "f_spec", default="zero", show_default=True,
              help="nonlinearity family (nonlinear/uniform modes)")
@click.option("--t-end", type=click.FloatRange(min=0, min_open=True), default=2.0,
              show_default=True)
@click.option("--u0-val", type=float, default=0.0, show_default=True,
              help="uniform mode: initial value")
@click.option("--u1-val", type=float, default=1.0, show_default=True,
              help="uniform mode: initial velocity")
@click.option("--torus-length", type=float, default=2.0 * math.pi,
              show_default=True)
@click.option("--points", type=int, default=256, show_default=True)
@click.option("--dt", type=float, default=None, help="default: 0.45*dx/max b")
@click.option("--offset", type=float, default=0.0, show_default=True,
              help="grid modes: constant part of the data")
@click.option("--amplitude", type=float, default=1e-3, show_default=True)
@click.option("--k", type=int, default=1, show_default=True,
              help="grid modes: integer mode number of the cosine data")
@tol_option(1e-11, help="uniform mode only; the grid modes step at a fixed dt")
@config_option
@out_option(required=True)
def simulate(**p):
    """Direct evolution: full torus solver or the spatially-uniform ODE.

    The HillPotential checks n >= 1 in every mode; nonlinear and uniform
    runs must start strictly inside f's domain, and a uniform run's
    --u1-val must be finite.
    """
    pot = coeffs.HillPotential(coefficient_from_flags(p["constant_b"], p["epsilon"]),
                               p["n"])
    f, domain = parse_family(p["f_spec"], F_FAMILIES, "f")

    if p["mode"] == "uniform":
        _check_inside(domain, p["u0_val"], p["u0_val"], "--u0-val")
        if not math.isfinite(p["u1_val"]):
            raise ParameterError(f"--u1-val must be finite, got {p['u1_val']}")
        samples = pdesim.evolve_uniform(
            pot, f, p["u0_val"], p["u1_val"], p["t_end"], tol=p["tol"])
        rows = [[f"{t:.17g}", f"{u:.17g}"] for t, u in samples]
        write_atomic(p["out"], csv_text([["t", "u"]] + rows))
        return

    if not (math.isfinite(p["offset"]) and math.isfinite(p["amplitude"])):
        raise ParameterError(f"--offset and --amplitude must be finite, "
                             f"got {p['offset']} and {p['amplitude']}")
    grid = pdesim.GridSpec(L=p["torus_length"], points=p["points"],
                           t_end=p["t_end"])
    dt = 0.45 * grid.dx / pdesim.max_b(pot.b) if p["dt"] is None else p["dt"]
    grid = dataclasses.replace(grid, dt=dt)
    x = grid.axis()
    v0 = p["offset"] + p["amplitude"] * np.cos(2.0 * np.pi * p["k"] * x / grid.L)
    v1 = np.zeros_like(v0)
    if p["mode"] == "linear":
        result = pdesim.evolve_linear(pot, grid, v0, v1)
    else:
        _check_inside(domain, float(v0.min()), float(v0.max()), "the data")
        tp = transform.build_transform(f, domain=domain)
        result = pdesim.evolve_nonlinear(pot, grid, v0, v1, tp)
    pdesim.export_snapshot_csv(p["out"], grid, result.snapshots[-1])
    pdesim.export_manifest(os.path.splitext(p["out"])[0] + ".json", result, grid)


if __name__ == "__main__":
    main()

