"""Spectral torus evolution: linear, nonlinear and spatially uniform."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cyclicwave import coeffs, pdesim, transform
from cyclicwave.errors import IntegrationFailure, ParameterError

import rk4_reference
import spectral_reference
from conftest import WHOLE_LINE, f_ray, periodic_integral

# Crossing time of int_0^t b^3 = pi/(2 sqrt 2) for b = sqrt(1+0.5 sin 2 pi t),
# computed by quadrature + root bracketing (regression constant).
T_CROSS = 1.0557944882184789


def _grid(points, L=2 * math.pi, dt_frac=0.25, t_end=2.0, bmax=1.25):
    dx = L / points
    dt = dt_frac * dx / bmax
    steps = int(math.ceil(t_end / dt))
    return pdesim.GridSpec(L=L, points=points, dt=t_end / steps,
                           t_end=t_end)


def test_standing_wave_constant_coefficient():
    """b == 1 has b' = 0, so n b'/b = 0 for every n >= 1: v = cos x cos t."""
    pot = coeffs.HillPotential(coeffs.constant(), 1)
    grid = _grid(128, t_end=2.0, bmax=1.0)
    x = grid.axis()
    res = pdesim.evolve_linear(pot, grid, np.cos(x), np.zeros_like(x))
    t_fin, v_fin = res.snapshots[-1]
    assert res.termination == "completed"
    assert np.max(np.abs(v_fin - np.cos(x) * math.cos(t_fin))) < 1e-6


def test_plane_wave_matches_mode_ode(b05, pot3):
    """v(t,x) = z(t) cos(kx) with z solving the single-mode equation."""
    lam = (2.0 * math.pi * 2 / (2 * math.pi)) ** 2  # k = 2 on L = 2 pi
    n = 3
    grid = _grid(256, t_end=3.0)
    x = grid.axis()
    res = pdesim.evolve_linear(pot3, grid, np.cos(2 * x),
                               np.zeros_like(x))

    def rhs(t, y):
        bt = float(b05.eval(t))
        return [y[1], n * float(b05.d1(t)) / bt * y[1] - lam * bt * bt * y[0]]

    for t, v in res.snapshots[1::8]:
        z = solve_ivp(rhs, (0.0, t), [1.0, 0.0], method="DOP853",
                      rtol=1e-12, atol=1e-14).y[0, -1]
        assert np.max(np.abs(v - z * np.cos(2 * x))) < 1e-7 * max(1.0, abs(z))


def test_uniform_linear_quadrature(b05, pot3):
    res = pdesim.evolve_uniform(pot3, (lambda u: np.zeros_like(u), WHOLE_LINE),
                                0.0, 1.0, 20.0, tol=1e-13)
    for t, u in res[::40]:
        ref = periodic_integral(lambda s: float(b05.eval(s)) ** 3, t)
        assert u == pytest.approx(ref, abs=5e-9)


def test_uniform_nonlinear_blowup_time(pot3):
    res = pdesim.evolve_uniform(pot3, (f_ray, WHOLE_LINE), 0.0, 1.0, 2.0, tol=1e-12)
    t_last, u_last = res[-1]
    assert abs(u_last) > 1e7
    assert t_last == pytest.approx(T_CROSS, abs=1e-6)


def test_uniform_failed_integration_raises(pot3):
    """A solver failure before t_end is an error, not a short sample list;
    only the blow-up escape event ends a run early."""
    def f_nan(u):
        return math.nan if u > 0.3 else 0.0

    with pytest.raises(IntegrationFailure):
        pdesim.evolve_uniform(pot3, (f_nan, WHOLE_LINE), 0.0, 1.0, 2.0)


def test_uniform_tol_checked_before_work(no_ode_solve, pot3):
    """evolve_uniform checks tol as the CLI does, before the solver runs."""
    with pytest.raises(ParameterError, match=r"tol must lie in \[1e-13, 1e-6\]"):
        pdesim.evolve_uniform(pot3, (f_ray, WHOLE_LINE), 0.0, 1.0, 2.0, tol=0.0)


def test_uniform_matches_grid_run(b05, pot3, tp1):
    """Constant data on the torus stays uniform; the grid solver must track
    the uniform ODE."""
    grid = _grid(64, t_end=1.0, dt_frac=0.1)
    x = grid.axis()
    u0v, u1v = 0.05, 0.03
    res = pdesim.evolve_nonlinear(pot3, grid, np.full_like(x, u0v),
                                  np.full_like(x, u1v), tp1)
    def rhs(t, y):
        bt = float(b05.eval(t))
        return [y[1], 3 * float(b05.d1(t)) / bt * y[1]
                - float(f_ray(y[0])) * y[1] ** 2]

    times = [t for t, _ in res.snapshots[1::8]]
    sol = solve_ivp(rhs, (0.0, times[-1]), [u0v, u1v], method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=times)
    for (t, u), ref in zip(res.snapshots[1::8], sol.y[0]):
        assert np.max(np.abs(u - ref)) < 1e-8


@pytest.mark.parametrize("fname,f", [
    ("ray", f_ray),
    ("tanh", lambda t: -0.4 * np.tanh(np.asarray(t, dtype=float))),
    ("rational", lambda t: np.asarray(t, dtype=float)
     / (1.0 + np.asarray(t, dtype=float) ** 4)),
])
def test_transform_commutes_with_evolution(pot3, fname, f):
    """G maps the nonlinear flow onto the linear flow: running u through the
    nonlinear solver and v = G(u0), v_t = e^Phi u1 through the linear solver
    must agree via G at matching times."""
    tp = transform.build_transform(f)
    grid = _grid(64, t_end=1.5, dt_frac=0.1)
    x = grid.axis()
    u0 = 0.05 + 0.02 * np.cos(x)
    u1 = 0.03 * np.sin(x)
    G = np.vectorize(tp.G)
    Phi = tp.Phi
    v0 = G(u0)
    v1 = np.exp(np.asarray(Phi(u0))) * u1
    ru = pdesim.evolve_nonlinear(pot3, grid, u0, u1, tp)
    rv = pdesim.evolve_linear(pot3, grid, v0, v1)
    v_by_t = {round(t, 10): v for t, v in rv.snapshots}
    matched = 0
    for t, u in ru.snapshots:
        key = round(t, 10)
        if key in v_by_t:
            assert np.max(np.abs(G(u) - v_by_t[key])) < 1e-8, (fname, t)
            matched += 1
    assert matched >= 30


def test_time_convergence_fourth_order(b05, pot3):
    """Halving dt shrinks the error by ~16x (classical RK4); require >= 8x."""
    errs = []
    for frac in (0.2, 0.1):
        grid = _grid(64, t_end=1.0, dt_frac=frac)
        x = grid.axis()
        res = pdesim.evolve_linear(pot3, grid, np.cos(x), np.zeros_like(x))
        t_fin, v_fin = res.snapshots[-1]

        def rhs(t, y):
            bt = float(b05.eval(t))
            return [y[1],
                    3 * float(b05.d1(t)) / bt * y[1] - bt * bt * y[0]]

        z = solve_ivp(rhs, (0.0, t_fin), [1.0, 0.0], method="DOP853",
                      rtol=1e-13, atol=1e-15).y[0, -1]
        errs.append(float(np.max(np.abs(v_fin - z * np.cos(x)))))
    assert errs[0] / errs[1] > 8.0


def test_nonlinear_blowup_detection(pot3, tp1):
    """Large data crosses the finite endpoint of G in finite time; the run
    must stop with the blow-up flag rather than overflow."""
    grid = _grid(64, t_end=6.0, dt_frac=0.1)
    x = grid.axis()
    res = pdesim.evolve_nonlinear(pot3, grid, np.full_like(x, 0.2),
                                  np.full_like(x, 1.0), tp1)
    assert res.termination == "blowup_detected"
    assert res.diagnostics["t_final"] < 6.0
    assert math.isfinite(res.diagnostics["max_abs"])


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_completed_run_ends_at_t_end(pot3, tp1, mode):
    """A dt that does not divide t_end: 13 full steps, then one step of the
    remainder lands on t_end, and the state there matches a run whose dt
    divides t_end."""
    def run(dt):
        grid = pdesim.GridSpec(L=2 * math.pi, points=32, dt=dt, t_end=0.5)
        x = grid.axis()
        u0, u1 = 0.05 * np.cos(x), np.zeros_like(x)
        if mode == "linear":
            return pdesim.evolve_linear(pot3, grid, u0, u1, n_snapshots=4)
        return pdesim.evolve_nonlinear(pot3, grid, u0, u1, tp1, n_snapshots=4)

    res = run(0.0361)
    assert res.termination == "completed"
    # 14 steps with the remainder, so a snapshot every 14 // 4 = 3 steps
    assert [t for t, _ in res.snapshots] == [0.0361 * k for k in range(0, 13, 3)] + [0.5]
    if mode == "nonlinear":
        assert res.diagnostics["t_final"] == 0.5
    # both are RK4 solutions at t = 0.5 (about 2e-9 apart); ending 0.005
    # late would move u by about 1e-4
    ref = run(0.5 / 14)
    assert ref.snapshots[-1][0] == pytest.approx(0.5, rel=1e-15)
    assert np.max(np.abs(res.snapshots[-1][1] - ref.snapshots[-1][1])) < 1e-8


def test_real_transforms_match_complex_reference(b05, pot3, tp1):
    """Both torus solvers on the half spectrum against the full complex-FFT
    right-hand sides marched by the same RK4 loop.  Random data put energy
    in every mode, the Nyquist mode included."""
    points = 16
    dt = 0.2 * (2 * math.pi / points) / 1.25
    grid = pdesim.GridSpec(L=2 * math.pi, points=points, dt=dt, t_end=20 * dt)
    rng = np.random.default_rng(1)
    u0 = 0.05 + 0.02 * rng.standard_normal(points)
    u1 = 0.02 * rng.standard_normal(points)
    nonlin = pdesim.evolve_nonlinear(pot3, grid, u0, u1, tp1, n_snapshots=5)
    lin = pdesim.evolve_linear(pot3, grid, u0, u1, n_snapshots=5)
    for res, rhs in [
        (nonlin, spectral_reference.nonlinear_rhs(tp1.f, grid)),
        (lin, spectral_reference.linear_rhs(grid)),
    ]:
        t, v, vt, snaps, _ = pdesim._march(rhs, pot3, grid, u0, u1, 5)
        assert res.termination == "completed"
        assert [s for s, _ in res.snapshots] == [s for s, _ in snaps]
        for (_, a), (_, c) in zip(res.snapshots, snaps):
            assert np.max(np.abs(a - c)) < 1e-13
    # t, v, vt are now the end state of the linear reference run
    energy = float(np.mean(vt**2)
                   + b05.eval(t) ** 2 * spectral_reference.grad_energy(grid, v))
    assert lin.diagnostics["energy_like"] == pytest.approx(energy, rel=1e-13)


@pytest.mark.parametrize("case", ["linear", "nonlinear-remainder",
                                  "nonlinear-stopped"])
def test_in_place_stepper_is_bit_identical(pot3, tp1, case):
    """The in-place RK4 loop and right-hand sides against the allocating
    ones they replaced (rk4_reference): every snapshot, the end time, the
    termination and the diagnostics are equal to the last bit, on a linear
    run, a nonlinear run ending with a remainder step and a nonlinear run
    stopped by the G-endpoint guard."""
    t_end, dt = (6.0, 0.0075) if case == "nonlinear-stopped" else (0.5, 0.0361)
    grid = pdesim.GridSpec(L=2 * math.pi, points=64, dt=dt, t_end=t_end)
    x = grid.axis()
    rng = np.random.default_rng(7)
    if case == "nonlinear-stopped":
        u0, u1 = 0.2 + 0.02 * np.cos(x), 1.0 + 0.05 * np.sin(2 * x)
    else:
        u0 = 0.05 + 0.02 * rng.standard_normal(x.shape)
        u1 = 0.02 * rng.standard_normal(x.shape)
    if case == "linear":
        res = pdesim.evolve_linear(pot3, grid, u0, u1)
        ref = rk4_reference.evolve_linear(pot3.b, pot3.n, grid, u0, u1)
    else:
        res = pdesim.evolve_nonlinear(pot3, grid, u0, u1, tp1)
        ref = rk4_reference.evolve_nonlinear(pot3.b, pot3.n, tp1.f, grid, u0, u1, tp1)
    if case == "nonlinear-stopped":
        assert res.termination == "blowup_detected"
        assert res.diagnostics["max_abs"] < pdesim._U_CAP  # not the |u| cap
    else:
        assert res.termination == "completed"
        assert res.snapshots[-1][0] == 0.5  # 13 steps of dt, then the rest
    assert res.termination == ref.termination
    assert res.diagnostics == ref.diagnostics
    assert [t for t, _ in res.snapshots] == [t for t, _ in ref.snapshots]
    for (_, a), (_, c) in zip(res.snapshots, ref.snapshots):
        assert np.array_equal(a, c)


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_stage_coefficients_span_blocks(pot3, tp1, mode):
    """A run of more than one block of stage coefficients (pdesim._BLOCK
    steps) that ends with a remainder step, against rk4_reference, which
    evaluates b and b' at every stage: equal to the last bit.  On 8 points
    the 2/3 rule keeps modes |k| <= 2, whose lambda = k^2 lie below the
    first instability interval, so the nonlinear run does not blow up."""
    dt = 0.0361
    # steps - 1 steps of dt, then one of dt / 2
    steps = pdesim._BLOCK + 37
    grid = pdesim.GridSpec(L=2 * math.pi, points=8, dt=dt,
                           t_end=(steps - 0.5) * dt)
    x = grid.axis()
    u0, u1 = 0.05 * np.cos(x), 0.05 * np.sin(2 * x)
    if mode == "linear":
        res = pdesim.evolve_linear(pot3, grid, u0, u1)
        ref = rk4_reference.evolve_linear(pot3.b, pot3.n, grid, u0, u1)
    else:
        res = pdesim.evolve_nonlinear(pot3, grid, u0, u1, tp1)
        ref = rk4_reference.evolve_nonlinear(pot3.b, pot3.n, tp1.f, grid, u0, u1, tp1)
        assert res.diagnostics["t_final"] == grid.t_end
    assert res.termination == ref.termination == "completed"
    assert res.snapshots[-1][0] == grid.t_end
    assert res.diagnostics == ref.diagnostics
    assert [t for t, _ in res.snapshots] == [t for t, _ in ref.snapshots]
    for (_, a), (_, c) in zip(res.snapshots, ref.snapshots):
        assert np.array_equal(a, c)


_FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


@pytest.mark.parametrize("mode,per_step", [("linear", 0), ("nonlinear", 8)])
def test_transform_calls_per_step(monkeypatch, pot3, tp1, mode, per_step):
    """The state lives on the half spectrum: a linear step makes no
    transform call, a nonlinear step at most 8 (2 per RK4 stage; the stop
    check reads the inverse that the next first stage uses).  Two runs that differ only in t_end, with the same
    number of snapshots, leave the per-step calls as their difference."""
    calls = [0]

    def counted(orig):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return orig(*args, **kwargs)
        return wrapper

    for name in _FFT_FUNCS:
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    runs = []
    for t_end in (0.5, 1.0):
        grid = _grid(64, t_end=t_end, dt_frac=0.1)
        x = grid.axis()
        u0, u1 = 0.05 + 0.02 * np.cos(x), 0.03 * np.sin(x)
        calls[0] = 0
        if mode == "linear":
            res = pdesim.evolve_linear(pot3, grid, u0, u1, n_snapshots=4)
        else:
            res = pdesim.evolve_nonlinear(pot3, grid, u0, u1, tp1, n_snapshots=4)
        assert res.termination == "completed"
        runs.append((round(t_end / grid.dt), len(res.snapshots), calls[0]))
    (steps0, snaps0, calls0), (steps1, snaps1, calls1) = runs
    assert steps1 > steps0 and snaps1 == snaps0
    assert calls1 - calls0 <= per_step * (steps1 - steps0)


def test_cfl_guard(b05):
    grid = pdesim.GridSpec(L=2 * math.pi, points=64,
                           dt=1.0, t_end=2.0)
    with pytest.raises(ParameterError):
        grid.check_cfl(b05)


def test_gridspec_validation():
    with pytest.raises(ParameterError):
        pdesim.GridSpec(L=1.0, points=100)  # not a power of two
    with pytest.raises(ParameterError):
        pdesim.GridSpec(L=-1.0, points=64)


def test_exports(tmp_path, monkeypatch):
    """`cyclicwave simulate` writes the last snapshot as x,u and the run's
    manifest beside it."""
    import csv as csvmod
    import json

    from cyclicwave import cli

    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=["simulate", "--mode", "linear", "--epsilon", "0.5",
                            "--points", "64", "--t-end", "0.5", "--amplitude", "1",
                            "--out", "snap.csv"], prog_name="cyclicwave")
    assert exc.value.code == 0
    rows = list(csvmod.reader((tmp_path / "snap.csv").open()))
    assert rows[0] == ["x", "u"]
    assert len(rows) == 1 + 64
    man = json.loads((tmp_path / "snap.json").read_text())
    assert man["termination"] == "completed"
    assert man["grid"]["points"] == 64
