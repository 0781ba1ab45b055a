"""The Magnus kernel as it stood before the exponent became a polynomial in
lambda: the commutators of the sixth-order step evaluated per (step,
lambda), the exponential through cos/cosh and sin/sinh of sqrt|delta|, and
one pairwise product tree over all the steps.  Tests compare floquet's
kernel against these functions, and the product tree bit for bit.
"""
import math

import numpy as np

from cyclicwave import floquet


def magnus(pot, lams, t1, steps):
    """X(t1, 0) per lambda from `steps` equal Magnus steps, one tree per
    lambda."""
    h = t1 / steps
    ts = (np.arange(steps)[:, None] + floquet._NODES) * h
    c = pot.q(ts)[..., None] - pot.alpha(ts)[..., None] * np.asarray(lams, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return product(exp(omega(c, h)))


def comm(x, y):
    """[x, y] of traceless 2x2 matrices stored as (p, q, r) = [[p, q], [r, -p]]."""
    p1, q1, r1 = x
    p2, q2, r2 = y
    return (q1 * r2 - q2 * r1, 2.0 * (p1 * q2 - q1 * p2), 2.0 * (r1 * p2 - p1 * r2))


def omega(c, h):
    """The sixth-order Magnus exponent (p, q, r) of each step from the
    generator's entry c at the three Gauss nodes, c of shape (steps, 3, B):
        a1 = h A2,  a2 = (sqrt(15) h / 3)(A3 - A1),
        a3 = (10 h / 3)(A3 - 2 A2 + A1),
        C1 = [a1, a2],  C2 = -(1/60)[a1, 2 a3 + C1],
        Omega = a1 + a3/12 + (1/240)[-20 a1 - a3 + C1, a2 + C2].
    """
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    a1 = (0.0, h * c2, h)
    a2 = (math.sqrt(15.0) * h / 3.0) * (c3 - c1)
    a3 = (10.0 * h / 3.0) * (c3 - 2.0 * c2 + c1)
    C1 = -h * a2
    C2 = tuple(v / -60.0 for v in comm(a1, (C1, 2.0 * a3, 0.0)))
    p, q, r = comm((C1, -20.0 * a1[1] - a3, -20.0 * h),
                   (C2[0], a2 + C2[1], C2[2]))
    return p / 240.0, a1[1] + a3 / 12.0 + q / 240.0, h + r / 240.0


def exp(omega):
    """Entries (a, b, c, d) of exp(Omega) = C I + S Omega: C and S are cosh
    and sinh(s)/s of s = sqrt(delta), or cos and sin(s)/s of
    s = sqrt(-delta), delta = p^2 + qr."""
    p, q, r = omega
    delta = p * p + q * r
    s = np.sqrt(np.abs(delta))
    grows = delta >= 0.0
    C = np.where(grows, np.cosh(s), np.cos(s))
    S = np.where(s < 1e-4, 1.0 + delta / 6.0 + delta * delta / 120.0,
                 np.where(grows, np.sinh(s), np.sin(s)) / s)
    return C + S * p, S * q, S * r, C - S * p


def product(step):
    """X = E_N ... E_2 E_1 of the step maps (a, b, c, d), each (N, B) with
    N a power of two, by pairwise products; shape (B, 2, 2)."""
    a, b, c, d = step
    while a.shape[0] > 1:
        # the later step of each pair multiplies from the left
        (a1, a2), (b1, b2), (c1, c2), (d1, d2) = (
            (x[0::2], x[1::2]) for x in (a, b, c, d))
        a, b, c, d = (a2 * a1 + b2 * c1, a2 * b1 + b2 * d1,
                      c2 * a1 + d2 * c1, c2 * b1 + d2 * d1)
    return np.stack([a[0], b[0], c[0], d[0]], axis=-1).reshape(-1, 2, 2)
