"""Spectral torus evolution: linear, nonlinear and spatially uniform."""
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from cyclicwave import coeffs, pdesim, transform
from cyclicwave.errors import ParameterError

import spectral_reference
from conftest import f_ray

# Crossing time of int_0^t b^3 = pi/(2 sqrt 2) for b = sqrt(1+0.5 sin 2 pi t),
# computed by quadrature + root bracketing (regression constant).
T_CROSS = 1.0557944882184789


def _grid(points, L=2 * math.pi, dt_frac=0.25, t_end=2.0, bmax=1.25):
    dx = L / points
    dt = dt_frac * dx / bmax
    steps = int(math.ceil(t_end / dt))
    return pdesim.GridSpec(n=1, L=L, points=points, dt=t_end / steps,
                           t_end=t_end)


def test_standing_wave_constant_coefficient():
    b = coeffs.make_builtin("constant", c=1.0)
    grid = _grid(128, t_end=2.0, bmax=1.0)
    x = grid.coords()[..., 0]
    res = pdesim.evolve_linear(b, 0, grid, np.cos(x), np.zeros_like(x))
    t_fin, v_fin = res.snapshots[-1]
    assert res.termination == "completed"
    assert np.max(np.abs(v_fin - np.cos(x) * math.cos(t_fin))) < 1e-6


def test_plane_wave_matches_mode_ode(b05):
    """v(t,x) = z(t) cos(kx) with z solving the single-mode equation."""
    lam = (2.0 * math.pi * 2 / (2 * math.pi)) ** 2  # k = 2 on L = 2 pi
    n = 3
    grid = _grid(256, t_end=3.0)
    x = grid.coords()[..., 0]
    res = pdesim.evolve_linear(b05, n, grid, np.cos(2 * x),
                               np.zeros_like(x))

    def rhs(t, y):
        bt = float(b05.eval(t))
        return [y[1], n * float(b05.d1(t)) / bt * y[1] - lam * bt * bt * y[0]]

    for t, v in res.snapshots[1::8]:
        z = solve_ivp(rhs, (0.0, t), [1.0, 0.0], method="DOP853",
                      rtol=1e-12, atol=1e-14).y[0, -1]
        assert np.max(np.abs(v - z * np.cos(2 * x))) < 1e-7 * max(1.0, abs(z))


def test_uniform_linear_quadrature(b05):
    res = pdesim.evolve_uniform(b05, 3, lambda u: np.zeros_like(u),
                                0.0, 1.0, 20.0, tol=1e-13)
    for t, u in res[::40]:
        ref = quad(lambda s: float(b05.eval(s)) ** 3, 0.0, t,
                   limit=800, epsabs=1e-14, epsrel=1e-14)[0]
        assert u == pytest.approx(ref, abs=5e-9)


def test_uniform_nonlinear_blowup_time(b05):
    res = pdesim.evolve_uniform(b05, 3, f_ray, 0.0, 1.0, 2.0, tol=1e-12)
    t_last, u_last = res[-1]
    assert abs(u_last) > 1e7
    assert t_last == pytest.approx(T_CROSS, abs=1e-6)


def test_uniform_matches_grid_run(b05, tp1):
    """Constant data on the torus stays uniform; the grid solver must track
    the uniform ODE."""
    grid = _grid(64, t_end=1.0, dt_frac=0.1)
    x = grid.coords()[..., 0]
    u0v, u1v = 0.05, 0.03
    res = pdesim.evolve_nonlinear(b05, 3, lambda u: tp1.f(u), grid,
                                  np.full_like(x, u0v), np.full_like(x, u1v),
                                  tp1)
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
def test_transform_commutes_with_evolution(b05, fname, f):
    """G maps the nonlinear flow onto the linear flow: running u through the
    nonlinear solver and v = G(u0), v_t = e^Phi u1 through the linear solver
    must agree via G at matching times."""
    tp = transform.build_transform(f)
    grid = _grid(64, t_end=1.5, dt_frac=0.1)
    x = grid.coords()[..., 0]
    u0 = 0.05 + 0.02 * np.cos(x)
    u1 = 0.03 * np.sin(x)
    G = np.vectorize(tp.G)
    Phi = tp.Phi
    v0 = G(u0)
    v1 = np.exp(np.asarray(Phi(u0))) * u1
    ru = pdesim.evolve_nonlinear(b05, 3, lambda u: tp.f(u), grid, u0, u1, tp)
    rv = pdesim.evolve_linear(b05, 3, grid, v0, v1)
    v_by_t = {round(t, 10): v for t, v in rv.snapshots}
    matched = 0
    for t, u in ru.snapshots:
        key = round(t, 10)
        if key in v_by_t:
            assert np.max(np.abs(G(u) - v_by_t[key])) < 1e-8, (fname, t)
            matched += 1
    assert matched >= 30


def test_time_convergence_fourth_order(b05):
    """Halving dt shrinks the error by ~16x (classical RK4); require >= 8x."""
    errs = []
    for frac in (0.2, 0.1):
        grid = _grid(64, t_end=1.0, dt_frac=frac)
        x = grid.coords()[..., 0]
        res = pdesim.evolve_linear(b05, 3, grid, np.cos(x), np.zeros_like(x))
        t_fin, v_fin = res.snapshots[-1]

        def rhs(t, y):
            bt = float(b05.eval(t))
            return [y[1],
                    3 * float(b05.d1(t)) / bt * y[1] - bt * bt * y[0]]

        z = solve_ivp(rhs, (0.0, t_fin), [1.0, 0.0], method="DOP853",
                      rtol=1e-13, atol=1e-15).y[0, -1]
        errs.append(float(np.max(np.abs(v_fin - z * np.cos(x)))))
    assert errs[0] / errs[1] > 8.0


def test_nonlinear_blowup_detection(b05, tp1):
    """Large data crosses the finite endpoint of G in finite time; the run
    must stop with the blow-up flag rather than overflow."""
    grid = _grid(64, t_end=6.0, dt_frac=0.1)
    x = grid.coords()[..., 0]
    res = pdesim.evolve_nonlinear(b05, 3, lambda u: tp1.f(u), grid,
                                  np.full_like(x, 0.2),
                                  np.full_like(x, 1.0), tp1)
    assert res.termination == "blowup_detected"
    assert res.diagnostics["t_final"] < 6.0
    assert math.isfinite(res.diagnostics["max_abs"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_transforms_match_complex_reference(b05, tp1, n):
    """Both torus solvers on the half spectrum against the full complex-FFT
    right-hand sides marched by the same RK4 loop.  Random data put energy
    in every mode, the Nyquist modes of each axis included."""
    points = 16
    dt = 0.2 * (2 * math.pi / points) / 1.25
    grid = pdesim.GridSpec(n=n, L=2 * math.pi, points=points, dt=dt,
                           t_end=20 * dt)
    rng = np.random.default_rng(n)
    u0 = 0.05 + 0.02 * rng.standard_normal((points,) * n)
    u1 = 0.02 * rng.standard_normal((points,) * n)
    nonlin = pdesim.evolve_nonlinear(b05, 3, tp1.f, grid, u0, u1, tp1,
                                     n_snapshots=5)
    lin = pdesim.evolve_linear(b05, 3, grid, u0, u1, n_snapshots=5)
    for res, rhs in [
        (nonlin, spectral_reference.nonlinear_rhs(b05, 3, tp1.f, grid)),
        (lin, spectral_reference.linear_rhs(b05, 3, grid)),
    ]:
        t, v, vt, snaps, _, _ = pdesim._march(rhs, grid, u0, u1, 5)
        assert res.termination == "completed"
        assert [s for s, _ in res.snapshots] == [s for s, _ in snaps]
        for (_, a), (_, c) in zip(res.snapshots, snaps):
            assert np.max(np.abs(a - c)) < 1e-13
    # t, v, vt are now the end state of the linear reference run
    energy = float(np.mean(vt**2)
                   + b05.eval(t) ** 2 * spectral_reference.grad_energy(grid, v))
    assert lin.diagnostics["energy_like"] == pytest.approx(energy, rel=1e-13)


def test_cfl_guard(b05):
    grid = pdesim.GridSpec(n=1, L=2 * math.pi, points=64,
                           dt=1.0, t_end=2.0)
    with pytest.raises(ParameterError):
        grid.check_cfl(b05)


def test_gridspec_validation():
    with pytest.raises(ParameterError):
        pdesim.GridSpec(n=4, L=1.0, points=64)
    with pytest.raises(ParameterError):
        pdesim.GridSpec(n=1, L=1.0, points=100)  # not a power of two
    with pytest.raises(ParameterError):
        pdesim.GridSpec(n=1, L=-1.0, points=64)


def test_exports(tmp_path, b05):
    import csv as csvmod
    import json

    grid = _grid(64, t_end=0.5, dt_frac=0.2)
    x = grid.coords()[..., 0]
    res = pdesim.evolve_linear(b05, 3, grid, np.cos(x), np.zeros_like(x))
    snap_path = tmp_path / "snap.csv"
    pdesim.export_snapshot_csv(str(snap_path), grid, res.snapshots[-1])
    rows = list(csvmod.reader(snap_path.open()))
    assert rows[0] == ["x", "u"]
    assert len(rows) == 1 + grid.points
    man_path = tmp_path / "run.json"
    pdesim.export_manifest(str(man_path), res, grid)
    man = json.loads(man_path.read_text())
    assert man["termination"] == "completed"
    assert man["grid"]["points"] == 64
