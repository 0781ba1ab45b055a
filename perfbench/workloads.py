"""The benchmark's three workloads: inputs drawn from a seed, the CLI call,
and the checks an operation's outputs must pass.

Each workload is built so that one layer does most of its work and other
layers do almost none (see README.md next to this file):

* chart   -- a 4000-lambda stability chart: the batched Floquet sweep.
* certify -- the full blow-up certificate at delta=1e-5: single-lambda
             monodromies, propagation and the radial Sobolev smallness.
* torus   -- a nonlinear torus run that blows up by parametric resonance:
             the spectral RK4 stepper.

Seed 0 is the reference input, with frozen expected values.  Other seeds
draw parameters from narrow ranges around it (see `draw`), so that the
bytes of every output change with the seed while the work per operation
stays close to the reference's.
"""

import csv
import io
import json
import math
import random

import numpy as np

B_G_REF = math.pi / (2.0 * math.sqrt(2.0))

# Frozen full-range instability intervals at eps=0.5, n=3, 4000 grid points,
# as asserted by test_criterion_2 in tests/test_acceptance.py.
CHART_INTERVALS_REF = [(5.917530871975806, 16.149139824018505),
                       (37.47098793741404, 47.93879004419074)]
# Blow-up detection time of the seed-0 torus run at the parent of the
# benchmark.  Detection happens on an RK4 step and u grows by under 0.2% per
# step there, so a change in rounding may move it by one step, not more.
TORUS_T_DETECT_REF = 11.317500814482038
TORUS_T_DETECT_STEPS = 1

_BOUNDARY_TOL = 1e-9  # class rule of floquet.export_stability_chart
_ENDPOINT_FRACTION = 1e-3  # pdesim's blow-up guard level


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _close(a, b, rel=0.0, abs_=0.0):
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


class Workload:
    name = ""
    command = ""
    outputs = ()

    def __init__(self, seed):
        self.seed = seed
        self.params = self.draw(random.Random(seed)) if seed else dict(self.reference)

    def describe(self):
        return " ".join(f"{k}={v}" for k, v in self.params.items())


class Chart(Workload):
    """stability-chart over 4000 lambda in (0.1, 60)."""

    name = "chart"
    command = "stability-chart"
    outputs = ("chart.csv", "chart.json")
    reference = {"epsilon": 0.5}
    grid, lam_lo, lam_hi = 4000, 0.1, 60.0

    @staticmethod
    def draw(rng):
        return {"epsilon": round(rng.uniform(0.45, 0.55), 4)}

    def argv(self, out_dir):
        return ["stability-chart", "--epsilon", repr(self.params["epsilon"]),
                "--n", "3", "--grid", str(self.grid),
                "--lambda-min", repr(self.lam_lo), "--lambda-max", repr(self.lam_hi),
                "--out", str(out_dir / "chart.csv")]

    def check(self, files):
        rows = list(csv.reader(io.StringIO(files["chart.csv"].decode())))
        _require(rows[0] == ["lambda", "trace", "abs_trace", "class"], "chart header")
        rows = rows[1:]
        _require(len(rows) == self.grid, f"chart has {len(rows)} rows")
        lams = np.linspace(self.lam_lo, self.lam_hi, self.grid)
        traces = np.empty(self.grid)
        for i, (lam, tr, atr, cls) in enumerate(rows):
            tr = float(tr)
            _require(float(lam) == lams[i], f"row {i}: lambda {lam}")
            _require(float(atr) == abs(tr), f"row {i}: abs_trace {atr}")
            if abs(abs(tr) - 2.0) <= _BOUNDARY_TOL:
                want = "boundary"
            else:
                want = "unstable" if abs(tr) > 2.0 else "stable"
            _require(cls == want, f"row {i}: class {cls} for trace {tr!r}")
            traces[i] = tr

        side = json.loads(files["chart.json"])
        _require(side["epsilon"] == self.params["epsilon"] and side["n"] == 3
                 and side["grid"] == self.grid, "sidecar echoes the wrong inputs")
        ivs = side["intervals"]
        _require(ivs, "no instability interval")
        spacing = lams[1] - lams[0]
        for iv in ivs:
            lo, hi, wit = iv["lambda_lo"], iv["lambda_hi"], iv["witness_lambda"]
            _require(lo < wit < hi, f"witness {wit} outside [{lo}, {hi}]")
            k = int(round((wit - self.lam_lo) / spacing))
            _require(lams[k] == wit, f"witness {wit} is not a grid point")
            # the sidecar's sweep is batched differently from the CSV's
            _require(_close(abs(traces[k]), iv["max_abs_trace"], rel=1e-8),
                     f"witness trace {traces[k]!r} vs {iv['max_abs_trace']!r}")
        for lam, tr in zip(lams, traces):
            if abs(tr) > 2.0 + 1e-6:
                _require(any(iv["lambda_lo"] - spacing <= lam <= iv["lambda_hi"] + spacing
                             for iv in ivs), f"unstable lambda {lam} in no interval")
        if self.seed == 0:
            got = [(iv["lambda_lo"], iv["lambda_hi"]) for iv in ivs]
            _require(len(got) == len(CHART_INTERVALS_REF), f"intervals {got}")
            for (lo, hi), (rlo, rhi) in zip(got, CHART_INTERVALS_REF):
                _require(_close(lo, rlo, rel=1e-8) and _close(hi, rhi, rel=1e-8),
                         f"interval ({lo}, {hi}) vs frozen ({rlo}, {rhi})")

    @staticmethod
    def corrupt(files):
        rows = list(csv.reader(io.StringIO(files["chart.csv"].decode())))
        rows[1][3] = "unstable" if rows[1][3] == "stable" else "stable"
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return {**files, "chart.csv": out.getvalue().encode()}


class Certify(Workload):
    """blowup-demo for the conformal metric at delta = 1e-5."""

    name = "certify"
    command = "blowup-demo"
    outputs = ("cert.json",)
    reference = {"epsilon": 0.5, "alpha": -1.0}
    delta = 1e-5

    @staticmethod
    def draw(rng):
        return {"epsilon": round(rng.uniform(0.45, 0.55), 4),
                "alpha": round(rng.uniform(-1.25, -0.75), 4)}

    def argv(self, out_dir):
        return ["blowup-demo", "--metric", f"conformal:alpha={self.params['alpha']!r}",
                "--epsilon", repr(self.params["epsilon"]), "--delta", repr(self.delta),
                "--out", str(out_dir / "cert.json")]

    def b_g(self):
        """sup G = int_0^inf (1 + 2 s^2)^alpha ds along the diagonal ray."""
        a = self.params["alpha"]
        return math.sqrt(math.pi / 8.0) * math.gamma(-a - 0.5) / math.gamma(-a)

    def check(self, files):
        c = json.loads(files["cert.json"])
        M = c["M"]
        _require(isinstance(M, int) and M >= 1, f"M = {M!r}")
        if self.seed == 0:
            _require(M == 100, f"M = {M}, frozen 100")
            _require(abs(c["b_G"] - B_G_REF) <= 1e-9, f"b_G = {c['b_G']!r}")
        _require(_close(c["b_G"], self.b_g(), rel=1e-8), f"b_G = {c['b_G']!r} "
                 f"vs closed form {self.b_g()!r}")
        _require(c["delta"] == self.delta and c["S"] == 6.5, "certificate inputs")
        _require(0.0 < c["smallness"] <= self.delta, f"smallness {c['smallness']!r}")
        _require(0.0 < c["t_star"] < M, f"t_star {c['t_star']!r} outside (0, {M})")
        _require(c["mu0"] > 1.0 and c["b21"] != 0.0, "multiplier data")
        y2 = sum(v * v for v in c["y"])
        _require(_close(y2, c["lambda"], rel=1e-9), "|y|^2 != lambda")
        traj = c["trajectory"]
        _require(len(traj) == 2 * M + 1
                 and all(t == k / 2.0 for k, (t, _) in enumerate(traj)),
                 "trajectory is not sampled at the half-integers of [0, M]")
        margin = abs(c["b_G"]) * 1e-9
        hit = next((t for t, v in traj if v >= c["b_G"] - margin), None)
        _require(hit is not None and hit - 0.5 <= c["t_star"] <= hit,
                 f"t_star {c['t_star']!r} does not match the first crossing {hit!r}")

    @staticmethod
    def corrupt(files):
        c = json.loads(files["cert.json"])
        c["t_star"] = c["M"] + 1.0
        return {**files, "cert.json": json.dumps(c).encode()}


class Torus(Workload):
    """simulate --mode nonlinear: mode k=3 (lambda=9) grows until the guard."""

    name = "torus"
    command = "simulate"
    outputs = ("sim.csv", "sim.json")
    reference = {"epsilon": 0.5, "amplitude": 1e-2}
    points, k, t_end = 1024, 3, 30.0

    @staticmethod
    def draw(rng):
        # The detection time, so the run's length, moves by about 5% per
        # 0.01 of epsilon: keep the draws close to the reference.
        return {"epsilon": round(rng.uniform(0.495, 0.505), 4),
                "amplitude": round(rng.uniform(9e-3, 1.1e-2), 6)}

    def argv(self, out_dir):
        return ["simulate", "--mode", "nonlinear", "--f", "example1:alpha=-1",
                "--epsilon", repr(self.params["epsilon"]), "--points", str(self.points),
                "--k", str(self.k), "--amplitude", repr(self.params["amplitude"]),
                "--t-end", repr(self.t_end), "--out", str(out_dir / "sim.csv")]

    def check(self, files):
        man = json.loads(files["sim.json"])
        L = 2.0 * math.pi
        ts = np.linspace(0.0, 1.0, 2048)
        bmax = float(np.max(np.sqrt(1.0 + self.params["epsilon"] * np.sin(2 * np.pi * ts))))
        dt = 0.45 * (L / self.points) / bmax
        grid = man["grid"]
        _require(grid["points"] == self.points and grid["L"] == L
                 and _close(grid["dt"], dt, rel=1e-12), f"grid {grid}")
        _require(man["termination"] == "blowup_detected",
                 f"termination {man['termination']!r}")
        t_final = man["t_final"]
        _require(0.0 < t_final < self.t_end, f"t_final {t_final!r}")
        if self.seed == 0:
            _require(abs(t_final - TORUS_T_DETECT_REF) <= (TORUS_T_DETECT_STEPS + 0.5) * dt,
                     f"detection at t={t_final!r}, frozen {TORUS_T_DETECT_REF!r}")
        rows = list(csv.reader(io.StringIO(files["sim.csv"].decode())))
        _require(rows[0] == ["x", "u"] and len(rows) == self.points + 1, "snapshot shape")
        x = np.array([float(r[0]) for r in rows[1:]])
        u = np.array([float(r[1]) for r in rows[1:]])
        _require(np.array_equal(x, -L / 2 + (L / self.points) * np.arange(self.points)),
                 "snapshot x grid")
        _require(np.all(np.isfinite(u)), "non-finite snapshot")
        _require(float(np.max(np.abs(u))) == man["diagnostics"]["max_abs"],
                 "snapshot max differs from the manifest")
        # G(u) = atan(sqrt2 u)/sqrt2 for example1:alpha=-1; the guard stops
        # the run once G(max u) is within a relative 1e-3 of sup G
        g_max = math.atan(math.sqrt(2.0) * float(np.max(u))) / math.sqrt(2.0)
        _require(g_max >= (1.0 - _ENDPOINT_FRACTION) * B_G_REF - 1e-8,
                 f"G(max u) = {g_max!r} is short of the guard level")

    @staticmethod
    def corrupt(files):
        man = json.loads(files["sim.json"])
        man["termination"] = "completed"
        return {**files, "sim.json": json.dumps(man).encode()}


WORKLOADS = {w.name: w for w in (Chart, Certify, Torus)}
