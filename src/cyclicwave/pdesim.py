"""Direct spectral evolution on a periodic torus, for oracle cross-checks.

Method of lines on a one-dimensional torus: Fourier Laplacian/gradient in
space, classical RK4 in time on the first-order system.  The field is real,
so the state is one stacked array (u^, u_t^), its rfft on the half
spectrum, stepped in place.  The right-hand sides never see t: the stepper
hands each stage its coefficients n b'/b and b^2, evaluated for a block of
steps at a time.  A linear stage is diagonal in k and makes no transform.
A nonlinear stage makes 2: one batched irfft giving u, u_x and u_t, and one
rfft of the nonlinear term, masked in place by the 2/3 rule.  The stop check after each
step reads u from the batched inverse that the next step's first stage
uses, so a nonlinear step makes 8.  The nonlinear solver watches the
transformed field G(u) and stops when it approaches a finite endpoint (the
proof-side blow-up mechanism), not when u itself looks large.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailure, ParameterError
from .floquet import check_tol
from .output import csv_text, write_atomic

_U_CAP = 1e8
_ENDPOINT_FRACTION = 1e-3
_BLOCK = 1024  # steps whose stage coefficients are evaluated together


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L/2, L/2) with fixed time step."""

    L: float
    points: int
    dt: float = 0.0
    t_end: float = 0.0

    def __post_init__(self):
        if self.points < 2 or self.points & (self.points - 1):
            raise ParameterError(f"points must be a power of two, got {self.points}")
        if not 0 < self.L < math.inf:
            raise ParameterError(f"torus side must be positive and finite, got {self.L}")
        if not (math.isfinite(self.dt) and math.isfinite(self.t_end)):
            raise ParameterError(f"dt and t_end must be finite, got {self.dt} and {self.t_end}")

    @property
    def dx(self):
        return self.L / self.points

    def axis(self):
        return -self.L / 2 + self.dx * np.arange(self.points)

    def check_cfl(self, b):
        limit = 0.5 * self.dx / max_b(b)
        if self.dt <= 0 or self.dt > limit:
            raise ParameterError(
                f"CFL violation: dt={self.dt} exceeds 0.5*dx/max b = {limit:.6g}"
            )


def max_b(b):
    """max b over one period, from 2048 samples: the speed in every CFL rule."""
    return float(np.max(b.eval(np.linspace(0.0, 1.0, 2048))))


@dataclass
class SimResult:
    snapshots: list  # [(t, field values), ...] strictly increasing t
    diagnostics: dict
    termination: str  # completed | blowup_detected | cfl_violation

    def manifest(self, grid):
        return {
            "grid": {"n": 1, "L": grid.L, "points": grid.points,
                     "dt": grid.dt, "t_end": grid.t_end},
            "termination": self.termination,
            "t_final": self.snapshots[-1][0] if self.snapshots else None,
            "diagnostics": self.diagnostics,
        }


class _Spectrum:
    """Half-spectrum operators of a real field on the grid, built once per run.

    to_half and to_field carry a field (or a stack of them) to its rfft and
    back.  ops stacks (i k, -k^2) at the angular wavenumbers k = 2*pi*m/L.
    The first derivative drops the Nyquist mode, whose contribution is
    imaginary for a real field.  mask keeps the modes with |m| <= points/3
    (the 2/3 rule).
    """

    def __init__(self, grid):
        k = np.fft.rfftfreq(grid.points, d=grid.dx) * 2.0 * np.pi
        grad = 1j * k
        grad[-1] = 0.0  # the Nyquist mode
        self.ops = np.stack((grad, -k**2))
        self.mask = np.abs(k) <= k[-1] * 2.0 / 3.0
        self.points = grid.points

    def to_half(self, a):
        return np.fft.rfft(a)

    def to_field(self, ah):
        return np.fft.irfft(ah, self.points)

    def wave(self, y, c, b2, out):
        """out = (u_t^, c u_t^ + b2 Lap u^) for y = (u^, u_t^): the linear
        right-hand side, in place."""
        np.multiply(y[1], c, out=out[0])
        np.multiply(self.ops[-1], y[0], out=out[1])
        out[1] *= b2
        out[1] += out[0]
        out[0] = y[1]


def _stage_coefficients(pot, grid, nsteps, full, rest):
    """Yield (dt, c, b2) per step: c = n b'/b and b2 = b^2 (Python's x ** 2)
    of the potential pot at the stage times (t, t + dt/2, t + dt), t = step *
    grid.dt, from one b and one b' call per block of _BLOCK steps."""
    for first in range(0, nsteps, _BLOCK):
        steps = np.arange(first, min(first + _BLOCK, nsteps))
        dt = np.where(steps < full, grid.dt, rest)
        t = steps * grid.dt
        ts = np.stack((t, t + dt / 2, t + dt), axis=1)
        bt = pot.b.eval(ts)
        c = (pot.n * pot.b.d1(ts) / bt).tolist()
        b2 = [[x**2 for x in row] for row in bt.tolist()]
        yield from zip(dt.tolist(), c, b2)


def _march(rhs, pot, grid, u, ut, n_snapshots, stop=None):
    """Classical RK4 on (u, u_t) from t = 0 to grid.t_end: steps of grid.dt
    while they fit (to within 1e-9 dt), then one step of the remainder.

    The state is one stacked array y = (u, u_t), and rhs(y, c, b2, out)
    writes dy/dt = (u_t, u_tt) into out, an array shaped like y, at a stage
    whose n b'/b is c and whose b^2 is b2, both from the potential pot.  The
    stage slopes and the stage input are made once per run; each RK4
    combination is one in-place call on the whole stack.  About n_snapshots
    evenly spaced snapshots of u are kept, plus the final state while it is
    finite.  When given, stop(y) is checked after every step and ends the
    run when true; when false, the next call is rhs(y, ...) at that same
    state, so stop may leave work there for it.  Returns (t, u, u_t,
    snapshots, stopped).
    """
    full = int(grid.t_end / grid.dt + 1e-9)
    rest = grid.t_end - full * grid.dt
    nsteps = full + (rest > 1e-9 * grid.dt)
    snap_every = max(1, nsteps // n_snapshots)
    y = np.stack((u, ut))
    k1, k2, k3, k4, ys = (np.empty_like(y) for _ in range(5))
    snapshots = [(0.0, y[0].copy())]
    stopped = False
    t = 0.0
    stages = _stage_coefficients(pot, grid, nsteps, full, rest)
    for step, (dt, c, b2) in enumerate(stages):
        rhs(y, c[0], b2[0], k1)
        for k, k_next, h, i in ((k1, k2, dt / 2, 1), (k2, k3, dt / 2, 1),
                                (k3, k4, dt, 2)):
            np.multiply(k, h, out=ys)
            ys += y
            rhs(ys, c[i], b2[i], k_next)
        # y + dt/6 * (((k1 + 2 k2) + 2 k3) + k4), grouped as RK4 is written
        k2 *= 2
        k1 += k2
        k3 *= 2
        k1 += k3
        k1 += k4
        k1 *= dt / 6
        y += k1
        t = (step + 1) * dt if step < full else grid.t_end
        if (step + 1) % snap_every == 0:
            snapshots.append((t, y[0].copy()))
        if stop is not None and stop(y):
            stopped = True
            break
    if snapshots[-1][0] < t and np.all(np.isfinite(y[0])):
        snapshots.append((t, y[0].copy()))
    return t, y[0], y[1], snapshots, stopped


def evolve_linear(pot, grid, v0, v1, n_snapshots=64):
    """Evolve v_tt - n (b'/b) v_t - b^2 v_xx = 0 on the torus, with b and n
    those of the HillPotential pot."""
    grid.check_cfl(pot.b)
    spec = _Spectrum(grid)
    t, vh, vth, snapshots, _ = _march(
        spec.wave, pot, grid, spec.to_half(v0), spec.to_half(v1), n_snapshots)
    vt = spec.to_field(vth)
    diagnostics = {
        "max_abs": float(np.max(np.abs(spec.to_field(vh)))),
        "energy_like": float(np.mean(vt**2) + pot.b.eval(t) ** 2 * _grad_energy(spec, vh)),
    }
    return SimResult(snapshots=[(s, spec.to_field(a)) for s, a in snapshots],
                     diagnostics=diagnostics, termination="completed")


def _grad_energy(spec, ah):
    return float(np.mean(spec.to_field(spec.ops[0] * ah) ** 2))


def evolve_nonlinear(pot, grid, u0, u1, v_guard, n_snapshots=64):
    """Evolve u_tt - n(b'/b)u_t - b^2 u_xx + f(u)(u_t^2 - b^2 u_x^2) = 0,
    with b and n those of the HillPotential pot.

    v_guard (a TransformPair) supplies f, G and the finite endpoint used for
    blow-up detection: the run stops when G(u) reaches within a relative
    1e-3 of the endpoint, or when |u| exceeds 1e8.
    """
    grid.check_cfl(pot.b)
    spec = _Spectrum(grid)
    f = v_guard.f

    target = v_guard.endpoints().target
    # G is strictly increasing, so proximity of G(u) to the endpoint is
    # equivalent to a scalar bound on u itself; invert the level once.
    u_lo, u_hi = -math.inf, math.inf
    if target is not None:
        level = float(v_guard.H(target - _ENDPOINT_FRACTION * target))
        u_lo, u_hi = (u_lo, level) if target > 0 else (level, u_hi)

    # (u^, i k u^, u_t^), inverted by one irfft per stage
    lift = np.empty((3, spec.mask.size), dtype=complex)
    w, sq = np.empty(grid.points), np.empty(grid.points)
    field = None  # the inverse of lift made by blown_up, not yet used

    def invert(y):
        lift[0], lift[2] = y
        np.multiply(spec.ops[0], y[0], out=lift[1])
        return spec.to_field(lift)

    def rhs(y, c, b2, out):
        nonlocal field
        uu, ux, uut = invert(y) if field is None else field
        field = None
        # w = f(u) (u_t^2 - b^2 u_x^2)
        np.multiply(ux, ux, out=w)
        np.multiply(w, b2, out=w)
        np.square(uut, out=sq)
        np.subtract(sq, w, out=w)
        np.multiply(w, f(uu), out=w)
        nl = spec.to_half(w)
        nl *= spec.mask
        spec.wave(y, c, b2, out)
        out[1] -= nl

    def blown_up(y):
        nonlocal field
        field = invert(y)
        uu = field[0]
        umax = float(uu.max())
        umin = float(uu.min())
        return (
            not (math.isfinite(umax) and math.isfinite(umin))
            or max(abs(umax), abs(umin)) > _U_CAP
            or umax >= u_hi or umin <= u_lo
        )

    t, uh, _, snapshots, stopped = _march(
        rhs, pot, grid, spec.to_half(u0), spec.to_half(u1), n_snapshots,
        stop=blown_up)
    u = spec.to_field(uh)
    finite = u[np.isfinite(u)]
    diagnostics = {
        "max_abs": float(np.max(np.abs(finite))) if finite.size else math.inf,
        "t_final": t,
    }
    return SimResult(snapshots=[(s, spec.to_field(a)) for s, a in snapshots],
                     diagnostics=diagnostics,
                     termination="blowup_detected" if stopped else "completed")


def evolve_uniform(pot, f, u0, u1, t_end, tol=1e-11):
    """Spatially uniform solution: u'' - n(b'/b)u' + f(u)(u')^2 = 0, with b
    and n those of the HillPotential pot.

    Returns [(t, u(t)), ...] at 400 equally spaced t; truncates (with the
    last finite sample) if u leaves the invertibility domain, i.e. blows
    up.  ParameterError unless tol lies in [1e-13, 1e-6] and t_end is
    finite; IntegrationFailure when the solver fails before t_end.
    """
    check_tol(tol)
    if not math.isfinite(t_end):
        raise ParameterError(f"t_end must be finite, got {t_end}")
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return [y[1], pot.n * pot.b.d1(t) / pot.b.eval(t) * y[1] - f(y[0]) * y[1] ** 2]

    def escape(t, y):
        return _U_CAP - abs(y[0])

    escape.terminal = True
    sol = solve_ivp(
        rhs, (0.0, t_end), [float(u0), float(u1)], method="DOP853",
        rtol=tol, atol=tol, t_eval=np.linspace(0.0, t_end, 400),
        events=escape,
    )
    if not sol.success:
        raise IntegrationFailure(f"uniform integration failed: {sol.message}")
    out = [(float(t), float(u)) for t, u in zip(sol.t, sol.y[0])]
    if sol.status == 1 and sol.t_events[0].size:
        out.append((float(sol.t_events[0][0]), float(sol.y_events[0][0][0])))
    return out


def export_snapshot_csv(path, grid, snapshot):
    """Snapshot CSV: x,u."""
    t, u = snapshot
    rows = [[f"{x:.17g}", f"{val:.17g}"] for x, val in zip(grid.axis(), u)]
    write_atomic(path, csv_text([["x", "u"]] + rows))


def export_manifest(path, result, grid):
    write_atomic(path, json.dumps(result.manifest(grid), indent=2))
