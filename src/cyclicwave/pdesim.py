"""Direct spectral evolution on a periodic torus, for oracle cross-checks.

Method of lines: Fourier Laplacian/gradient in space, classical RK4 in time
on the first-order system.  The nonlinear solver watches the transformed
field G(u) and stops when it approaches a finite endpoint (the proof-side
blow-up mechanism), not when u itself looks large.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ParameterError
from .output import csv_text, write_atomic

_U_CAP = 1e8
_ENDPOINT_FRACTION = 1e-3


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L/2, L/2)^n with fixed time step."""

    n: int
    L: float
    points: int
    dt: float = 0.0
    t_end: float = 0.0

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ParameterError(f"grid dimension must be 1, 2 or 3, got {self.n}")
        if self.points < 2 or self.points & (self.points - 1):
            raise ParameterError(f"points per axis must be a power of two, got {self.points}")
        if self.L <= 0:
            raise ParameterError(f"torus side must be positive, got {self.L}")

    @property
    def dx(self):
        return self.L / self.points

    def axis(self):
        return -self.L / 2 + self.dx * np.arange(self.points)

    def coords(self):
        """Array of shape grid_shape + (n,) with point coordinates."""
        axes = [self.axis()] * self.n
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def wavenumbers(self):
        """List of n arrays of angular wavenumbers 2*pi*k/L per axis."""
        k = np.fft.fftfreq(self.points, d=self.dx) * 2.0 * np.pi
        return [k] * self.n

    def k_squared(self):
        ks = self.wavenumbers()
        shape = [1] * self.n
        total = np.zeros((self.points,) * self.n)
        for ax, k in enumerate(ks):
            s = shape.copy()
            s[ax] = self.points
            total = total + k.reshape(s) ** 2
        return total

    def check_cfl(self, b):
        bmax = float(np.max(b.eval(np.linspace(0.0, 1.0, 2048))))
        limit = 0.5 * self.dx / bmax
        if self.dt <= 0 or self.dt > limit:
            raise ParameterError(
                f"CFL violation: dt={self.dt} exceeds 0.5*dx/max b = {limit:.6g}"
            )


@dataclass
class SimResult:
    snapshots: list  # [(t, field values), ...] strictly increasing t
    diagnostics: dict
    termination: str  # completed | blowup_detected | cfl_violation

    def manifest(self, grid):
        return {
            "grid": {"n": grid.n, "L": grid.L, "points": grid.points,
                     "dt": grid.dt, "t_end": grid.t_end},
            "termination": self.termination,
            "t_final": self.snapshots[-1][0] if self.snapshots else None,
            "diagnostics": {
                k: v for k, v in self.diagnostics.items() if np.isscalar(v)
            },
        }


def _origin_index(grid):
    return (grid.points // 2,) * grid.n


def _laplacian(k2, a):
    return np.fft.ifftn(-k2 * np.fft.fftn(a)).real


def _gradient(ks, a):
    """Spectral gradient components of a; ks is grid.wavenumbers()."""
    ah = np.fft.fftn(a)
    out = []
    for ax, k in enumerate(ks):
        s = [1] * len(ks)
        s[ax] = k.size
        out.append(np.fft.ifftn(1j * k.reshape(s) * ah).real)
    return out


def _march(rhs, grid, u, ut, n_snapshots, stop=None):
    """Classical RK4 on (u, u_t) from t = 0 to grid.t_end in steps of grid.dt.

    rhs(t, u, u_t) returns (u_t, u_tt).  About n_snapshots evenly spaced
    snapshots of u are kept, plus the final state while it is finite.  When
    given, stop(u) is checked after every step and ends the run when true.
    Returns (t, u, u_t, snapshots, u at the origin per snapshot, stopped).
    """
    nsteps = int(round(grid.t_end / grid.dt))
    snap_every = max(1, nsteps // n_snapshots)
    origin = _origin_index(grid)
    snapshots = [(0.0, u.copy())]
    at_origin = [(0.0, float(u[origin]))]
    stopped = False
    dt = grid.dt
    t = 0.0
    for step in range(nsteps):
        k1u, k1t = rhs(t, u, ut)
        k2u, k2t = rhs(t + dt / 2, u + dt / 2 * k1u, ut + dt / 2 * k1t)
        k3u, k3t = rhs(t + dt / 2, u + dt / 2 * k2u, ut + dt / 2 * k2t)
        k4u, k4t = rhs(t + dt, u + dt * k3u, ut + dt * k3t)
        u = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        ut = ut + dt / 6 * (k1t + 2 * k2t + 2 * k3t + k4t)
        t = (step + 1) * dt
        if (step + 1) % snap_every == 0:
            snapshots.append((t, u.copy()))
            at_origin.append((t, float(u[origin])))
        if stop is not None and stop(u):
            stopped = True
            break
    if snapshots[-1][0] < t and np.all(np.isfinite(u)):
        snapshots.append((t, u.copy()))
        at_origin.append((t, float(u[origin])))
    return t, u, ut, snapshots, at_origin, stopped


def evolve_linear(b, n_coeff, grid, v0, v1, n_snapshots=64):
    """Evolve v_tt - n (b'/b) v_t - b^2 Lap v = 0 on the torus."""
    grid.check_cfl(b)
    k2 = grid.k_squared()

    def rhs(tt, vv, vvt):
        bt = b.eval(tt)
        return vvt, n_coeff * b.d1(tt) / bt * vvt + bt**2 * _laplacian(k2, vv)

    t, v, vt, snapshots, at_origin, _ = _march(
        rhs, grid, np.array(v0, dtype=float), np.array(v1, dtype=float), n_snapshots)
    diagnostics = {
        "max_abs": float(np.max(np.abs(v))),
        "v_at_origin": at_origin,
        "energy_like": float(np.mean(vt**2) + b.eval(t) ** 2 * _grad_energy(grid, v)),
    }
    return SimResult(snapshots=snapshots, diagnostics=diagnostics,
                     termination="completed")


def _grad_energy(grid, a):
    return sum(float(np.mean(g**2)) for g in _gradient(grid.wavenumbers(), a))


def _dealias_mask(grid):
    k = np.fft.fftfreq(grid.points) * grid.points
    keep1 = np.abs(k) <= grid.points / 3.0
    mask = np.ones((grid.points,) * grid.n, dtype=bool)
    for ax in range(grid.n):
        s = [1] * grid.n
        s[ax] = grid.points
        mask &= keep1.reshape(s)
    return mask


def evolve_nonlinear(b, n_coeff, f, grid, u0, u1, v_guard, n_snapshots=64):
    """Evolve u_tt - n(b'/b)u_t - b^2 Lap u + f(u)(u_t^2 - b^2 |grad u|^2) = 0.

    v_guard (a TransformPair) supplies G and the finite endpoint used for
    blow-up detection: the run stops when G(u) reaches within a relative
    1e-3 of the endpoint, or when |u| exceeds 1e8.
    """
    grid.check_cfl(b)
    k2 = grid.k_squared()
    mask = _dealias_mask(grid)
    ks = grid.wavenumbers()

    ep = v_guard.endpoints()
    target = ep.b if ep.b_finite else (ep.a if ep.a_finite else None)
    # G is strictly increasing, so proximity of G(u) to the endpoint is
    # equivalent to a scalar bound on u itself; invert the level once.
    u_hi = u_lo = None
    if target is not None:
        if target > 0:
            u_hi = float(v_guard.H(target - _ENDPOINT_FRACTION * abs(target)))
        else:
            u_lo = float(v_guard.H(target + _ENDPOINT_FRACTION * abs(target)))

    def rhs(tt, uu, uut):
        bt = b.eval(tt)
        grad2 = sum(g * g for g in _gradient(ks, uu))
        nl = f(uu) * (uut**2 - bt**2 * grad2)
        nl = np.fft.ifftn(mask * np.fft.fftn(nl)).real
        acc = n_coeff * b.d1(tt) / bt * uut + bt**2 * _laplacian(k2, uu) - nl
        return uut, acc

    def blown_up(uu):
        umax = float(np.max(uu))
        umin = float(np.min(uu))
        return (
            not (math.isfinite(umax) and math.isfinite(umin))
            or max(abs(umax), abs(umin)) > _U_CAP
            or (u_hi is not None and umax >= u_hi)
            or (u_lo is not None and umin <= u_lo)
        )

    t, u, _, snapshots, at_origin, stopped = _march(
        rhs, grid, np.array(u0, dtype=float), np.array(u1, dtype=float),
        n_snapshots, stop=blown_up)
    finite = u[np.isfinite(u)]
    diagnostics = {
        "max_abs": float(np.max(np.abs(finite))) if finite.size else math.inf,
        "u_at_origin": at_origin,
        "t_final": t,
    }
    return SimResult(snapshots=snapshots, diagnostics=diagnostics,
                     termination="blowup_detected" if stopped else "completed")


def evolve_uniform(b, n_coeff, f, u0, u1, t_end, tol=1e-11, n_samples=400):
    """Spatially uniform solution: u'' - n(b'/b)u' + f(u)(u')^2 = 0.

    Returns [(t, u(t)), ...]; truncates (with the last finite sample) if u
    leaves the invertibility domain, i.e. blows up.
    """

    def rhs(t, y):
        return [y[1], n_coeff * b.d1(t) / b.eval(t) * y[1] - f(y[0]) * y[1] ** 2]

    def escape(t, y):
        return _U_CAP - abs(y[0])

    escape.terminal = True
    sol = solve_ivp(
        rhs, (0.0, t_end), [float(u0), float(u1)], method="DOP853",
        rtol=tol, atol=tol, t_eval=np.linspace(0.0, t_end, n_samples),
        events=escape,
    )
    out = [(float(t), float(u)) for t, u in zip(sol.t, sol.y[0])]
    if sol.status == 1 and sol.t_events[0].size:
        out.append((float(sol.t_events[0][0]), float(sol.y_events[0][0][0])))
    return out


def export_snapshot_csv(path, grid, snapshot):
    """1-D snapshot CSV: x,u."""
    if grid.n != 1:
        raise ParameterError("snapshot CSV export is 1-D only")
    t, u = snapshot
    rows = [[f"{x:.17g}", f"{val:.17g}"] for x, val in zip(grid.axis(), u)]
    write_atomic(path, csv_text([["x", "u"]] + rows))


def export_manifest(path, result, grid):
    write_atomic(path, json.dumps(result.manifest(grid), indent=2))
