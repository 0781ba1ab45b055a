"""Command-line surface: stability charts, geodesics, NOC verdicts,
blow-up certificates and direct simulations.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 the
global-existence (NOC) condition holds so no blow-up is certified, 5 the
requested direction is not a distinguished geodesic.  Every nonzero exit
writes a single-line JSON error to stderr.  Outputs are written atomically;
identical configuration yields byte-identical files.
"""

import json
import math
import os
import sys
from functools import wraps

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

_COHERENCE_TOL = 1e-6


class NotDistinguishedError(CyclicWaveError):
    pass


def _fail(code, exc):
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    click.echo(line, err=True)
    sys.exit(code)


def handle_errors(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NotApplicableError as exc:
            _fail(EXIT_NOC_HOLDS, exc)
        except NotDistinguishedError as exc:
            _fail(EXIT_NOT_DISTINGUISHED, exc)
        except (ParameterError, ValueError) as exc:
            _fail(EXIT_VALIDATION, exc)
        except (IntegrationFailure, QuadratureError, ResolutionError,
                SingularMetricError, ExhaustedSearchError, OverflowError,
                FloatingPointError) as exc:
            _fail(EXIT_NUMERICAL, exc)

    return wrapper


def apply_config(ctx, config_path):
    """Overlay a JSON config file under explicitly-passed flags.

    Each value is converted by its option's click type, as the same value
    given as a flag would be.
    """
    if config_path is None:
        return
    with open(config_path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParameterError("config file must hold a JSON object")
    known = {param.name: param for param in ctx.command.params
             if param.name != "config"}
    for key, value in data.items():
        name = key.replace("-", "_")
        if name not in known:
            raise ParameterError(f"unknown config key {key!r}")
        src = ctx.get_parameter_source(name)
        if src is not None and src.name == "COMMANDLINE":
            continue  # explicit flags win
        # click's INT casts a JSON float with int(), which truncates
        if (isinstance(known[name].type, click.types.IntParamType)
                and isinstance(value, float) and not value.is_integer()):
            raise ParameterError(f"config key {key!r}: {value!r} is not a valid integer")
        try:
            ctx.params[name] = known[name].type_cast_value(ctx, value)
        except click.BadParameter as exc:
            raise ParameterError(f"config key {key!r}: {exc.format_message()}")


def _parse_kv(text):
    out = {}
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise ParameterError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = float(v)
    return out


def parse_metric(spec):
    """Metric families: conformal, quartic, halfplane, perturbed."""
    family, _, params = spec.partition(":")
    kv = _parse_kv(params)
    if family == "conformal":
        alpha = kv.pop("alpha", None)
        m = int(kv.pop("m", 2))
        if kv or alpha is None:
            raise ParameterError(f"conformal needs alpha (and optional m): {spec!r}")
        return geometry.conformal_power(alpha, powers=(2,) * m)
    if family == "quartic":
        alpha = kv.pop("alpha", None)
        if kv or alpha is None:
            raise ParameterError(f"quartic needs alpha: {spec!r}")
        return geometry.conformal_power(alpha, powers=(2, 4))
    if family == "halfplane":
        ell = kv.pop("ell", None)
        if kv or ell is None:
            raise ParameterError(f"halfplane needs ell: {spec!r}")
        return geometry.half_plane_power(ell)
    if family == "perturbed":
        alpha = kv.pop("alpha", None)
        m = int(kv.pop("m", 2))
        c = kv.pop("c", 0.1)
        if kv or alpha is None:
            raise ParameterError(f"perturbed needs alpha (optional m, c): {spec!r}")
        base = geometry.conformal_power(alpha, powers=(2,) * m)

        def H(u):
            u = np.asarray(u, dtype=float)
            diff = u[:, None] - u[None, :]
            return c * diff**2 / (1.0 + float(u @ u))

        metric = geometry.DiagonalPerturbedMetric(m, base.hscalar, H)
        # H and its gradient vanish on the diagonal, so the line
        # nonlinearity is that of the conformal part
        metric.ray_log_derivative = base.ray_log_derivative
        return metric
    raise ParameterError(f"unknown metric family {family!r}")


def parse_vector(text, m=None):
    vals = [float(x) for x in text.split(",")]
    if m is not None and len(vals) != m:
        raise ParameterError(f"expected {m} components, got {len(vals)}: {text!r}")
    return np.array(vals)


def parse_f_family(spec):
    """Named nonlinearity families; returns (f, domain)."""
    family, _, params = spec.partition(":")
    kv = _parse_kv(params)
    inf = math.inf

    def need(key):
        if key not in kv:
            raise ParameterError(f"{family} needs {key}: {spec!r}")
        return kv[key]

    if family == "zero":
        return (lambda t: 0.0 * np.asarray(t, dtype=float)), (-inf, inf)
    if family == "example1":
        alpha = need("alpha")
        return (lambda t: 4.0 * alpha * np.asarray(t) / (1.0 + 2.0 * np.asarray(t) ** 2),
                (-inf, inf))
    if family == "example2":
        ell = need("ell")
        return (lambda t: -ell / (2.0 * (1.0 + np.asarray(t)))), (-1.0, inf)
    if family == "example3":
        alpha = need("alpha")
        axis = int(kv.get("axis", 1))
        if axis == 1:
            return (lambda t: alpha * np.asarray(t) / (1.0 + np.asarray(t) ** 2),
                    (-inf, inf))
        if axis == 2:
            return (lambda t: 2.0 * alpha * np.asarray(t) ** 3
                    / (1.0 + np.asarray(t) ** 4), (-inf, inf))
        raise ParameterError(f"example3 axis must be 1 or 2, got {axis}")
    if family == "example4":
        alpha, m = need("alpha"), kv.get("m", 3.0)
        return (lambda t: m * alpha * np.asarray(t) / (1.0 + m * np.asarray(t) ** 2),
                (-inf, inf))
    raise ParameterError(f"unknown f family {spec!r}")


def coefficient_from_flags(constant_b, epsilon):
    if constant_b:
        return coeffs.make_builtin("constant", c=1.0)
    if epsilon is None:
        raise ParameterError("provide --epsilon or --constant-b")
    return coeffs.make_builtin("sqrt-sin", eps=epsilon)


def line_nonlinearity(metric, a):
    """f along the ray t*a, in the log-derivative normalization.

    f(t) is the derivative of ln h along the ray (twice the least-squares
    coherence factor for conformal charts); metrics with closed-form
    hscalar supply a vectorized evaluator.
    """
    a = np.asarray(a, dtype=float)
    if hasattr(metric, "ray_log_derivative"):
        return metric.ray_log_derivative(a)
    norm2 = float(a @ a)

    def f(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t_arr)
        for i, tv in enumerate(t_arr):
            gamma = geometry.christoffel(metric, a * tv).gamma
            c = np.einsum("ijk,j,k->i", gamma, a, a)
            out[i] = 2.0 * float(a @ c) / norm2
        return out if np.ndim(t) else float(out[0])

    return f


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


class _JsonErrorGroup(click.Group):
    """A click group whose usage errors (bad flag values, unknown or missing
    options) exit 2 with one JSON line on stderr, like every other failure.
    Help, exit codes and aborts behave as in click's standalone mode."""

    def main(self, *args, standalone_mode=True, **kwargs):
        if not standalone_mode:
            return super().main(*args, standalone_mode=False, **kwargs)
        try:
            code = super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as exc:
            _fail(EXIT_VALIDATION, ParameterError(exc.format_message()))
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)
        sys.exit(code)


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
@click.option("--tol", type=float, default=1e-11, show_default=True)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
@click.pass_context
@handle_errors
def stability_chart(ctx, **kwargs):
    """Monodromy-trace chart plus an instability-interval JSON sidecar."""
    apply_config(ctx, kwargs.pop("config"))
    p = ctx.params
    b = coefficient_from_flags(p["constant_b"], p["epsilon"])
    pot = coeffs.hill_potential(b, p["n"])
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
        "intervals": [
            {"lambda_lo": iv.lambda_lo, "lambda_hi": iv.lambda_hi,
             "max_abs_trace": iv.max_abs_trace,
             "witness_lambda": iv.witness_lambda}
            for iv in intervals
        ],
    }, indent=2) + "\n")
    sys.exit(EXIT_OK)


@main.command("geodesic")
@click.option("--metric", required=True,
              help="family:params, e.g. conformal:alpha=-1")
@click.option("--u0", default=None, help="start point, comma-separated")
@click.option("--direction", default=None, help="initial direction, comma-separated")
@click.option("--s-max", type=float, default=3.0, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--samples", type=int, default=200, show_default=True)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
@click.pass_context
@handle_errors
def geodesic(ctx, **kwargs):
    """Integrate a unit-speed geodesic and export the path CSV."""
    apply_config(ctx, kwargs.pop("config"))
    p = ctx.params
    metric = parse_metric(p["metric"])
    u0 = (parse_vector(p["u0"], metric.m) if p["u0"]
          else np.zeros(metric.m))
    d = (parse_vector(p["direction"], metric.m) if p["direction"]
         else np.ones(metric.m))
    speed2 = float(d @ metric.h(u0) @ d)
    if speed2 <= 0:
        raise ParameterError("direction has nonpositive metric speed")
    v0 = d / math.sqrt(speed2)
    path = geometry.geodesic_full(metric, u0, v0, p["s_max"], tol=p["tol"],
                                  n_samples=p["samples"])
    geometry.export_path_csv(p["out"], path, metric.m)
    sys.exit(EXIT_OK)


@main.command("noc")
@click.option("--f", "f_spec", required=True,
              help="nonlinearity family, e.g. example1:alpha=-1 or example2:ell=4")
@click.option("--s-max", type=float, default=1e5, show_default=True)
@click.option("--margin", type=float, default=0.1, show_default=True)
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None,
              help="verdict JSON path (stdout when omitted)")
@click.pass_context
@handle_errors
def noc(ctx, **kwargs):
    """Classify the global-existence integral condition for a named f."""
    apply_config(ctx, kwargs.pop("config"))
    p = ctx.params
    f, domain = parse_f_family(p["f_spec"])
    verdict = transform.noc_check(f, s_max=p["s_max"], margin=p["margin"],
                                  domain=domain, tol=p["tol"])
    text = verdict.to_json()
    if p["out"]:
        write_atomic(p["out"], text + "\n")
    else:
        click.echo(text)
    sys.exit(EXIT_OK)


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
@click.option("--tol", type=float, default=1e-11, show_default=True)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True,
              help="certificate JSON path")
@click.pass_context
@handle_errors
def blowup_demo(ctx, **kwargs):
    """Full pipeline: coherence check, NOC verdict, blow-up certificate."""
    apply_config(ctx, kwargs.pop("config"))
    p = ctx.params
    metric = parse_metric(p["metric"])
    a = (parse_vector(p["direction"], metric.m) if p["direction"]
         else np.ones(metric.m))

    domain = line_domain(metric, a)
    t_hi = min(5.0, 0.9 * domain[1]) if math.isfinite(domain[1]) else 5.0
    line = geometry.check_self_coherence(metric, a, (0.0, t_hi), samples=64)
    if line.max_residual > _COHERENCE_TOL:
        raise NotDistinguishedError(
            f"direction is not a distinguished geodesic "
            f"(coherence residual {line.max_residual:.3g} > {_COHERENCE_TOL})"
        )
    f = line_nonlinearity(metric, a)

    verdict = transform.noc_check(f, domain=domain)
    if verdict.holds == "yes":
        raise NotApplicableError(
            "non-collapse integral condition holds; no blow-up certified "
            f"(verdict: {verdict.to_json()})"
        )

    b = coefficient_from_flags(False, p["epsilon"])
    pot = coeffs.hill_potential(b, p["n"])
    tp = transform.build_transform(f, domain=domain)
    cert = blowup.certify_blowup(
        tp, pot, (p["lambda_min"], p["lambda_max"]), p["delta"],
        S=p["s_exponent"], tol=p["tol"])
    blowup.export_certificate(p["out"], cert)

    if p["simulate"] == "yes":
        result, grid = _simulate_certificate(b, pot, tp, cert)
        manifest_path = os.path.splitext(p["out"])[0] + ".sim.json"
        pdesim.export_manifest(manifest_path, result, grid)
    sys.exit(EXIT_OK)


def _simulate_certificate(b, pot, tp, cert, points=1024):
    """1-D torus run of the certified scenario (plane wave, no cutoff)."""
    lam = cert.plan.lam
    L = 2.0 * math.pi / math.sqrt(lam)
    bmax = float(np.max(b.eval(np.linspace(0.0, 1.0, 2048))))
    dx = L / points
    dt_cap = 0.45 * dx / bmax
    steps_per_unit = int(math.ceil(1.0 / dt_cap))
    dt = 1.0 / steps_per_unit
    t_end = min(cert.plan.M, math.ceil(cert.t_star * 1.2))
    grid = pdesim.GridSpec(n=1, L=L, points=points, dt=dt, t_end=t_end)
    amp = cert.plan.amplitude
    x = grid.coords()[..., 0]
    u0 = np.full_like(x, amp)
    u1 = cert.plan.A * amp * math.exp(-float(tp.Phi(np.array([amp]))[0])) \
        * np.cos(math.sqrt(lam) * x)
    result = pdesim.evolve_nonlinear(b, pot.n, tp.f, grid, u0, u1, tp)
    return result, grid


@main.command("simulate")
@click.option("--mode", type=click.Choice(["linear", "nonlinear", "uniform"]),
              required=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--constant-b", is_flag=True)
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--f", "f_spec", default="zero", show_default=True,
              help="nonlinearity family (nonlinear/uniform modes)")
@click.option("--t-end", type=float, default=2.0, show_default=True)
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
@click.option("--tol", type=float, default=1e-11, show_default=True)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
@click.pass_context
@handle_errors
def simulate(ctx, **kwargs):
    """Direct evolution: full torus solver or the spatially-uniform ODE."""
    apply_config(ctx, kwargs.pop("config"))
    p = ctx.params
    b = coefficient_from_flags(p["constant_b"], p["epsilon"])
    f, domain = parse_f_family(p["f_spec"])

    if p["mode"] == "uniform":
        samples = pdesim.evolve_uniform(
            b, p["n"], f, p["u0_val"], p["u1_val"], p["t_end"], tol=p["tol"])
        rows = [[f"{t:.17g}", f"{u:.17g}"] for t, u in samples]
        write_atomic(p["out"], csv_text([["t", "u"]] + rows))
        sys.exit(EXIT_OK)

    L, points = p["torus_length"], p["points"]
    dx = L / points
    if p["dt"] is None:
        bmax = float(np.max(b.eval(np.linspace(0.0, 1.0, 2048))))
        dt = 0.45 * dx / bmax
    else:
        dt = p["dt"]
    grid = pdesim.GridSpec(n=1, L=L, points=points, dt=dt, t_end=p["t_end"])
    x = grid.axis()
    v0 = p["offset"] + p["amplitude"] * np.cos(2.0 * np.pi * p["k"] * x / L)
    v1 = np.zeros_like(v0)
    if p["mode"] == "linear":
        result = pdesim.evolve_linear(b, p["n"], grid, v0, v1)
    else:
        tp = transform.build_transform(f, domain=domain)
        result = pdesim.evolve_nonlinear(b, p["n"], f, grid, v0, v1, tp)
    pdesim.export_snapshot_csv(p["out"], grid, result.snapshots[-1])
    pdesim.export_manifest(os.path.splitext(p["out"])[0] + ".json", result, grid)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()

