"""Reference right-hand sides of the torus solvers on the full complex
spectrum, one fft/ifft pair per operator, independent of pdesim's
half-spectrum operators.  Each is called as rhs(y, c, b2, out), the way
pdesim._march calls it, with the stage's c = n b'/b and b2 = b^2, and writes
(u_t, u_tt) into out for the stacked state y = (u, u_t).  Tests march them
with pdesim._march and compare against evolve_linear/evolve_nonlinear.
"""
import numpy as np


def wavenumbers(grid):
    """Angular wavenumbers 2*pi*k/L in np.fft.fft order."""
    return np.fft.fftfreq(grid.points, d=grid.dx) * 2.0 * np.pi


def laplacian(k, a):
    return np.fft.ifft(-k**2 * np.fft.fft(a)).real


def gradient(k, a):
    return np.fft.ifft(1j * k * np.fft.fft(a)).real


def dealias_mask(grid):
    return np.abs(np.fft.fftfreq(grid.points) * grid.points) <= grid.points / 3.0


def linear_rhs(grid):
    k = wavenumbers(grid)

    def rhs(y, c, b2, out):
        vv, vvt = y
        out[0] = vvt
        out[1] = c * vvt + b2 * laplacian(k, vv)

    return rhs


def nonlinear_rhs(f, grid):
    k = wavenumbers(grid)
    mask = dealias_mask(grid)

    def rhs(y, c, b2, out):
        uu, uut = y
        nl = f(uu) * (uut**2 - b2 * gradient(k, uu) ** 2)
        nl = np.fft.ifft(mask * np.fft.fft(nl)).real
        out[0] = uut
        out[1] = c * uut + b2 * laplacian(k, uu) - nl

    return rhs


def grad_energy(grid, a):
    return float(np.mean(gradient(wavenumbers(grid), a) ** 2))
