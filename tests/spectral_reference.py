"""Reference right-hand sides of the torus solvers on the full complex
spectrum, one fftn/ifftn pair per operator, independent of pdesim's
half-spectrum operators.  Each is called as rhs(y, c, b2, out), the way
pdesim._march calls it, with the stage's c = n b'/b and b2 = b^2, and writes
(u_t, u_tt) into out for the stacked state y = (u, u_t).  Tests march them
with pdesim._march and compare against evolve_linear/evolve_nonlinear.
"""
import numpy as np


def wavenumbers(grid):
    """List of n arrays of angular wavenumbers 2*pi*k/L per axis."""
    k = np.fft.fftfreq(grid.points, d=grid.dx) * 2.0 * np.pi
    return [k] * grid.n


def laplacian(k2, a):
    return np.fft.ifftn(-k2 * np.fft.fftn(a)).real


def gradient(ks, a):
    ah = np.fft.fftn(a)
    out = []
    for ax, k in enumerate(ks):
        s = [1] * len(ks)
        s[ax] = k.size
        out.append(np.fft.ifftn(1j * k.reshape(s) * ah).real)
    return out


def dealias_mask(grid):
    k = np.fft.fftfreq(grid.points) * grid.points
    keep1 = np.abs(k) <= grid.points / 3.0
    mask = np.ones((grid.points,) * grid.n, dtype=bool)
    for ax in range(grid.n):
        s = [1] * grid.n
        s[ax] = grid.points
        mask &= keep1.reshape(s)
    return mask


def linear_rhs(grid):
    k2 = grid.k_squared()

    def rhs(y, c, b2, out):
        vv, vvt = y
        out[0] = vvt
        out[1] = c * vvt + b2 * laplacian(k2, vv)

    return rhs


def nonlinear_rhs(f, grid):
    k2 = grid.k_squared()
    mask = dealias_mask(grid)
    ks = wavenumbers(grid)

    def rhs(y, c, b2, out):
        uu, uut = y
        grad2 = sum(g * g for g in gradient(ks, uu))
        nl = f(uu) * (uut**2 - b2 * grad2)
        nl = np.fft.ifftn(mask * np.fft.fftn(nl)).real
        out[0] = uut
        out[1] = c * uut + b2 * laplacian(k2, uu) - nl

    return rhs


def grad_energy(grid, a):
    return sum(float(np.mean(g**2)) for g in gradient(wavenumbers(grid), a))
