"""The H^{s+1} x H^s norm sum as a direct sum over rho, independent of
blowup's polynomial in x = (2/R)^2: every rho_k gets its own weight
(1 + rho_k^2)^{s+1}, its own sphere mean of (1 + |xi|^2)^s by Horner's rule
in (b/a)^2, and its own factor rho_k^{n-1}.  Tests compare plan_smallness
(both paths) and radial_pair_norm against it.
"""
import math

import numpy as np

from cyclicwave.blowup import _RADIAL_PAD, _far_index, _simpson_weights


def sphere_mean(s, a, b, n):
    """Average of (a + b cos theta)^s over the unit sphere S^{n-1}, theta
    the angle to a fixed axis, for integer s >= 0 and a >= b >= 0:
    a^s sum_j C(s, 2j) c_j (b/a)^{2j} by Horner's rule, with
    c_j = 1 3 ... (2j-1) / (n (n+2) ... (n+2j-2)) the sphere mean of
    cos^{2j} theta."""
    total, ratio_sq = 0.0, (b / a) ** 2
    for j in range(int(s) // 2, -1, -1):
        coef = math.comb(int(s), 2 * j) * math.prod(range(1, 2 * j, 2))
        total = total * ratio_sq + coef / math.prod(range(n, n + 2 * j, 2))
    return a**s * total


def pair_norm(h0, h1, lam, s, R, n):
    """radial_pair_norm's value, n = 2 or 3, by Simpson quadrature over rho_k
    = pi k / (8R) up to h0's length: ||u0||_{s+1}^2 = (2pi)^-n |S^{n-1}|
    Int (1+rho^2)^{s+1} h0^2 rho^{n-1} d rho; ||u1||_s^2 with hat u1(xi) =
    (h1(|xi - y|) + h1(|xi + y|)) / 2 has two equal |h1|^2/4 terms, each
    (1/4) Int h1(r)^2 |S^{n-1}| r^{n-1} ang(r) dr after the sphere average
    ang, and a cross term bounded by 1.5 max|h1| (from _far_index on), as
    one of |xi -+ y| is at least |y|, times the same quadrature of |h1|."""
    step = np.pi / (_RADIAL_PAD * R)
    far_sup = 1.5 * float(np.max(np.abs(h1[_far_index(lam, R, h1.size):])))
    rho, h1 = step * np.arange(h0.size), h1[: h0.size]
    weights = _simpson_weights(h0.size, step)

    def shell(v):
        """v rho^{n-1}, one factor of rho at a time."""
        for _ in range(n - 1):
            v = v * rho
        return v

    unit = (2.0 * np.pi) ** -n * (2.0 * np.pi * (n - 1))
    norm0_sq = unit * float(weights @ shell((1.0 + rho * rho) ** (s + 1.0) * h0 * h0))
    ang = sphere_mean(s, 1.0 + lam + rho * rho, 2.0 * math.sqrt(lam) * rho, n)
    main = unit / 2.0 * float(weights @ (shell(h1 * h1) * ang))
    cross_bound = unit * far_sup * float(weights @ (shell(np.abs(h1)) * ang))
    return math.sqrt(norm0_sq) + math.sqrt(main + cross_bound)
