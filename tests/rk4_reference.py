"""The torus solvers as they stood before the stepper worked in place: an
RK4 loop on the pair (u, u_t) that allocates a new array for every
sub-expression, and half-spectrum right-hand sides that return (u_t, u_tt).
The stop check inverts u alone.  Tests run these beside evolve_linear and
evolve_nonlinear and require bit-identical snapshots: the in-place stepper
may reorder factors and terms of a sum, but never regroup them.
"""
import math

import numpy as np

from cyclicwave import pdesim


def march(rhs, grid, u, ut, n_snapshots, stop=None):
    """Classical RK4 on (u, u_t); same step sequence, snapshots and return
    value as pdesim._march."""
    full = int(grid.t_end / grid.dt + 1e-9)
    rest = grid.t_end - full * grid.dt
    nsteps = full + (rest > 1e-9 * grid.dt)
    snap_every = max(1, nsteps // n_snapshots)
    snapshots = [(0.0, u.copy())]
    stopped = False
    t = 0.0
    for step in range(nsteps):
        dt = grid.dt if step < full else rest
        k1u, k1t = rhs(t, u, ut)
        k2u, k2t = rhs(t + dt / 2, u + dt / 2 * k1u, ut + dt / 2 * k1t)
        k3u, k3t = rhs(t + dt / 2, u + dt / 2 * k2u, ut + dt / 2 * k2t)
        k4u, k4t = rhs(t + dt, u + dt * k3u, ut + dt * k3t)
        u = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        ut = ut + dt / 6 * (k1t + 2 * k2t + 2 * k3t + k4t)
        t = (step + 1) * dt if step < full else grid.t_end
        if (step + 1) % snap_every == 0:
            snapshots.append((t, u.copy()))
        if stop is not None and stop(u):
            stopped = True
            break
    if snapshots[-1][0] < t and np.all(np.isfinite(u)):
        snapshots.append((t, u.copy()))
    return t, u, ut, snapshots, stopped


def evolve_linear(b, n_coeff, grid, v0, v1, n_snapshots=64):
    spec = pdesim._Spectrum(grid)

    def rhs(tt, vh, vth):
        bt = b.eval(tt)
        return vth, n_coeff * b.d1(tt) / bt * vth + bt**2 * (spec.ops[-1] * vh)

    t, vh, vth, snapshots, _ = march(
        rhs, grid, spec.to_half(v0), spec.to_half(v1), n_snapshots)
    vt = spec.to_field(vth)
    grad_energy = sum(float(np.mean(g**2))
                      for g in spec.to_field(spec.ops[:-1] * vh))
    diagnostics = {
        "max_abs": float(np.max(np.abs(spec.to_field(vh)))),
        "energy_like": float(np.mean(vt**2) + b.eval(t) ** 2 * grad_energy),
    }
    return pdesim.SimResult(snapshots=[(s, spec.to_field(a)) for s, a in snapshots],
                            diagnostics=diagnostics, termination="completed")


def evolve_nonlinear(b, n_coeff, f, grid, u0, u1, v_guard, n_snapshots=64):
    spec = pdesim._Spectrum(grid)
    target = v_guard.endpoints().target
    u_hi = u_lo = None
    if target is not None:
        level = pdesim._ENDPOINT_FRACTION * abs(target)
        if target > 0:
            u_hi = float(v_guard.H(target - level))
        else:
            u_lo = float(v_guard.H(target + level))
    lift = np.empty((grid.n + 2,) + spec.mask.shape, dtype=complex)

    def rhs(tt, uh, uth):
        bt = b.eval(tt)
        lift[0], lift[-1] = uh, uth
        np.multiply(spec.ops[:-1], uh, out=lift[1:-1])
        uu, *grad, uut = spec.to_field(lift)
        grad2 = sum(g * g for g in grad)
        nl = spec.to_half(f(uu) * (uut**2 - bt**2 * grad2))
        nl *= spec.mask
        acc = n_coeff * b.d1(tt) / bt * uth + bt**2 * (spec.ops[-1] * uh) - nl
        return uth, acc

    def blown_up(uh):
        uu = spec.to_field(uh)
        umax = float(np.max(uu))
        umin = float(np.min(uu))
        return (
            not (math.isfinite(umax) and math.isfinite(umin))
            or max(abs(umax), abs(umin)) > pdesim._U_CAP
            or (u_hi is not None and umax >= u_hi)
            or (u_lo is not None and umin <= u_lo)
        )

    t, uh, _, snapshots, stopped = march(
        rhs, grid, spec.to_half(u0), spec.to_half(u1), n_snapshots, stop=blown_up)
    u = spec.to_field(uh)
    finite = u[np.isfinite(u)]
    diagnostics = {
        "max_abs": float(np.max(np.abs(finite))) if finite.size else math.inf,
        "t_final": t,
    }
    return pdesim.SimResult(snapshots=[(s, spec.to_field(a)) for s, a in snapshots],
                            diagnostics=diagnostics,
                            termination="blowup_detected" if stopped else "completed")
