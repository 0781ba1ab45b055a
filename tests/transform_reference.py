"""The transform's panel fits and evaluation as they stood before the fits
became fixed linear maps on the node values: each fit runs
numpy.polynomial's chebinterpolate, chebint and chebdiv, the G integrand
sums Phi's series by Clenshaw at the nodes, and evaluation sums each panel's
two series by a Clenshaw pass of its own.  Tests compare transform's maps,
panel boundaries and evaluation against these functions.
"""
import math

import numpy as np
from numpy.polynomial import chebyshev as C

from cyclicwave import transform


def mean_value(func, tol):
    """(m, resolved): func's degree-_DEG Chebyshev interpolant c on [-1, 1]
    in mean-value form, int_{-1}^x c = (1 + x) m(x), and whether c's
    trailing coefficients lie within tol of its largest.  chebdiv trims
    trailing zeros; m is padded back to _DEG + 1 coefficients, which
    changes no value Clenshaw's recurrence gives."""
    c = C.chebinterpolate(func, transform._DEG)
    m = C.chebdiv(C.chebint(c, lbnd=-1.0), [1.0, 1.0])[0]
    m = np.pad(m, (0, transform._DEG + 1 - m.size))
    return m, bool(np.max(np.abs(c[-2:])) <= tol * np.max(np.abs(c)))


def reach(side, target_abs):
    """transform._Side.reach with the fits of mean_value."""
    d = side.direction
    while side.frontier[0] < target_abs and side.terminated is None:
        s0, phi0, g0 = side.frontier
        w = side.width
        if math.isfinite(side.edge):
            dist = abs(side.edge) - s0
            if dist <= 2e-9 * (1.0 + abs(side.edge)):
                side.terminated = "domain"
                return
            w = min(w, 0.5 * dist)
        while True:
            half = 0.5 * w
            mphi, f_ok = mean_value(
                lambda x: d * side.f(d * (s0 + half * (x + 1.0))), side.tol)
            mg, g_ok = mean_value(lambda x: np.exp(np.minimum(
                phi0 + half * (x + 1.0) * C.chebval(x, mphi), transform._PHI_CAP)),
                side.tol)
            phi1, g1 = phi0 + w * C.chebval(1.0, mphi), g0 + d * w * C.chebval(1.0, mg)
            if (w < 2.0 * transform._MIN_WIDTH * (1.0 + s0) or f_ok and (
                    g_ok or phi1 >= transform._PHI_CAP or abs(g1) >= transform._G_CAP)):
                break
            w = half
        side.panels.append((s0, s0 + w, phi0, g0, mphi, mg))
        side.width = 2.0 * w
        side.frontier = (s0 + w, phi1, g1)
        if phi1 >= transform._PHI_CAP or abs(g1) >= transform._G_CAP:
            side.terminated = "overflow" if phi1 >= transform._PHI_CAP else "g-cap"


def evaluate(side, s_abs):
    """transform._Side.eval with one Clenshaw pass per panel and series."""
    s_abs = np.minimum(np.asarray(s_abs, dtype=float), side.frontier[0])
    k = np.searchsorted([p[1] for p in side.panels], s_abs)
    phi, g = np.empty_like(s_abs), np.empty_like(s_abs)
    for j in np.flatnonzero(np.bincount(np.ravel(k))):
        s0, s1, phi0, g0, mphi, mg = side.panels[j]
        on = k == j
        ds = s_abs[on] - s0
        x = 2.0 * ds / (s1 - s0) - 1.0
        phi[on] = phi0 + ds * C.chebval(x, mphi)
        g[on] = g0 + side.direction * ds * C.chebval(x, mg)
    return phi, g
