"""Target-manifold metrics, Christoffel symbols, geodesics and curvature.

A Metric is h(u) = hscalar(u) * (I + H(u)): a conformal factor with its
closed-form gradient, log-Laplacian and rays (each ray's log-derivative
and domain), and an optional perturbation H.  Everything else
(Christoffel symbols, the straight-line self-coherence test, geodesic
integration, 2-D conformal Gaussian curvature) is computed from h and its
partial derivatives.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailure, ParameterError, SingularMetricError
from .floquet import check_tol
from .output import csv_text, write_atomic

_FD_STEP = 1e-4
_CHART_BOUND = 1e6


class Metric:
    """h(u) = hscalar(u) * (I + H(u)) on R^m, or on the open subset where
    the predicate `domain` holds.

    grad(u) is the gradient of hscalar and lap_log(u) the Laplacian of
    ln hscalar.  ray(a) is the pair (f, domain) of the ray t -> t*a: f the
    vectorized t -> d/dt ln hscalar(t*a), domain the open t-interval on
    which the ray stays in the chart, in closed form.  Without H, dh is
    analytic; with H, it is a 4th-order central difference of h.
    """

    def __init__(self, m, hscalar, grad, lap_log, ray, domain=None, H=None):
        self.m = int(m)
        self.hscalar = hscalar
        self.grad = grad
        self.lap_log = lap_log
        self.ray = ray
        self.domain = domain
        self.H = H

    def h(self, u):
        u = np.asarray(u, dtype=float)
        if self.H is None:
            return self.hscalar(u) * np.eye(self.m)
        return self.hscalar(u) * (np.eye(self.m) + np.asarray(self.H(u), dtype=float))

    def dh(self, u, k):
        """Partial derivative of h with respect to u^k."""
        u = np.asarray(u, dtype=float)
        if self.H is None:
            return self.grad(u)[k] * np.eye(self.m)
        e = np.zeros_like(u)
        e[k] = _FD_STEP
        return (
            -self.h(u + 2 * e) + 8 * self.h(u + e) - 8 * self.h(u - e) + self.h(u - 2 * e)
        ) / (12 * _FD_STEP)

    def in_domain(self, u):
        return True if self.domain is None else bool(self.domain(np.asarray(u)))

    def perturbed(self, H):
        """The same conformal part times (I + H).

        The rays stay those of the conformal part: its log-derivative is
        the line's nonlinearity wherever H and its gradient vanish on it.
        """
        return Metric(self.m, self.hscalar, self.grad, self.lap_log,
                      self.ray, domain=self.domain, H=H)


def conformal_power(alpha, powers=(2, 2)):
    """Conformal factor h = (1 + sum_i u_i^{p_i})^alpha with even p_i."""
    powers = tuple(int(p) for p in powers)
    if not powers:
        raise ParameterError("powers must be non-empty: the metric needs m >= 1")
    if any(p < 2 or p % 2 for p in powers):
        raise ParameterError(f"powers must be even integers >= 2, got {powers}")
    m = len(powers)
    p = np.array(powers, dtype=float)

    def base(u):
        return 1.0 + np.sum(np.asarray(u, dtype=float) ** p)

    def hs(u):
        return base(u) ** alpha

    def grad(u):
        u = np.asarray(u, dtype=float)
        return alpha * base(u) ** (alpha - 1.0) * p * u ** (p - 1.0)

    def lap_log(u):
        # Laplacian of alpha*ln(1 + sum u_i^p_i)
        u = np.asarray(u, dtype=float)
        s = base(u)
        d1 = p * u ** (p - 1.0)
        d2 = p * (p - 1.0) * u ** (p - 2.0)
        return alpha * float(np.sum(d2 / s - (d1 / s) ** 2))

    def ray(a):
        """Vectorized d/dt ln h(t*a) for the ray through direction a, on
        the whole line."""
        a = np.asarray(a, dtype=float)
        ap = a**p

        def f(t):
            t = np.asarray(t, dtype=float)
            num = alpha * np.sum(p * ap * t[..., None] ** (p - 1.0), axis=-1)
            den = 1.0 + np.sum(ap * t[..., None] ** p, axis=-1)
            return num / den

        return f, (-math.inf, math.inf)

    return Metric(m, hs, grad, lap_log, ray)


def half_plane_power(ell):
    """Conformal factor h = (1 + v)^{-ell} on the half-plane v > -1."""
    ell = float(ell)

    def hs(u):
        return (1.0 + u[1]) ** (-ell)

    def grad(u):
        return np.array([0.0, -ell * (1.0 + u[1]) ** (-ell - 1.0)])

    def lap_log(u):
        return ell / (1.0 + u[1]) ** 2

    def ray(a):
        """f = -ell a2 / (1 + a2 t), on the side of the edge -1/a2 where
        1 + a2 t > 0, or on the whole line when a2 = 0."""
        a2 = float(a[1])

        def f(t):
            t = np.asarray(t, dtype=float)
            return -ell * a2 / (1.0 + a2 * t)

        if a2 == 0.0:
            return f, (-math.inf, math.inf)
        edge = -1.0 / a2
        return f, ((edge, math.inf) if a2 > 0.0 else (-math.inf, edge))

    return Metric(2, hs, grad, lap_log, ray, domain=lambda u: u[1] > -1.0)


def christoffel(M, u):
    """Gamma^i_{jk} = (1/2) h^{il} (d_j h_{kl} + d_k h_{jl} - d_l h_{kj})."""
    u = np.asarray(u, dtype=float)
    if not M.in_domain(u):
        raise ParameterError(f"point {u.tolist()} is outside the chart domain")
    h = M.h(u)
    dh = np.stack([M.dh(u, k) for k in range(M.m)])  # dh[l, :, :] = d_l h
    try:
        hinv = np.linalg.inv(h)
        if np.linalg.cond(h) > 1e12 or not np.all(np.isfinite(hinv)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise SingularMetricError(f"metric singular at u={u.tolist()}") from None
    # dh[j, k, l] = d_j h_{kl}; expr[j, k, l] = d_j h_{kl} + d_k h_{jl} - d_l h_{kj}
    expr = dh + dh.transpose(1, 0, 2) - dh.transpose(2, 1, 0)
    # gamma[i, j, k] = Gamma^i_{jk}
    return 0.5 * np.einsum("il,jkl->ijk", hinv, expr)


@dataclass(frozen=True)
class DistinguishedLine:
    f_samples: list  # [(t, f(t)), ...]
    max_residual: float


def check_self_coherence(M, a, t_range):
    """Test whether the ray u = a*t is covered by geodesics.

    At each of 64 equally spaced t in t_range the quadratic form
    c_i(t) = sum_jk Gamma^i_{jk}(a t) a_j a_k must be proportional to a;
    f(t) is the least-squares proportionality factor and max_residual the
    worst deviation |c_i - a_i f|.
    """
    a = np.asarray(a, dtype=float)
    norm2 = float(a @ a)
    if not norm2 > 0.0:
        raise ParameterError(f"direction a must have a positive squared norm, "
                             f"got |a|^2 = {norm2!r}")
    ts = np.linspace(t_range[0], t_range[1], 64)
    out = []
    worst = 0.0
    for t in ts:
        u = a * t
        if not M.in_domain(u):
            raise ParameterError(f"line leaves the metric domain at t={t}")
        gamma = christoffel(M, u)
        c = np.einsum("ijk,j,k->i", gamma, a, a)
        f_t = float(a @ c) / norm2
        worst = max(worst, float(np.max(np.abs(c - a * f_t))))
        out.append((float(t), f_t))
    return DistinguishedLine(f_samples=out, max_residual=worst)


def geodesic_full(M, u0, v0, s_max, tol=1e-10, n_samples=200):
    """Integrate the full geodesic system from (u0, v0) over [0, s_max].

    Returns [(s, u, udot), ...] at n_samples equally spaced s.  ParameterError
    unless tol lies in [1e-13, 1e-6].  IntegrationFailure when the solver
    fails or the path leaves the chart bound |u^i| < 1e6 before s_max.
    """
    check_tol(tol)
    from scipy.integrate import solve_ivp

    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not np.any(v0 != 0.0):
        raise ParameterError("initial velocity must be nonzero")
    m = M.m

    def rhs(s, y):
        u, du = y[:m], y[m:]
        gamma = christoffel(M, u)
        acc = -np.einsum("ijk,j,k->i", gamma, du, du)
        return np.concatenate([du, acc])

    def escape(s, y):
        return _CHART_BOUND - float(np.max(np.abs(y[:m])))

    escape.terminal = True
    ss = np.linspace(0.0, s_max, n_samples)
    sol = solve_ivp(
        rhs, (0.0, s_max), np.concatenate([u0, v0]), method="DOP853",
        rtol=tol, atol=tol, t_eval=ss, events=escape,
    )
    if not sol.success:
        raise IntegrationFailure(f"geodesic integration failed: {sol.message}")
    if sol.status == 1:
        raise IntegrationFailure(
            f"geodesic left the chart (|u| reached {_CHART_BOUND:g}) at "
            f"s={float(sol.t_events[0][0])!r}, before s_max={s_max!r}")
    return [
        (float(s), sol.y[:m, i].copy(), sol.y[m:, i].copy())
        for i, s in enumerate(sol.t)
    ]


def gaussian_curvature(M, u):
    """K = -(1/h) * Laplacian(ln h) for a 2-D conformal chart."""
    if M.H is not None or M.m != 2:
        raise ParameterError("Gaussian curvature requires a 2-D conformal metric")
    u = np.asarray(u, dtype=float)
    return -M.lap_log(u) / M.hscalar(u)


def export_path_csv(path, samples, m):
    """CSV export: s,u1,...,um,du1,...,dum (17 significant digits)."""
    header = ["s"] + [f"u{i+1}" for i in range(m)] + [f"du{i+1}" for i in range(m)]
    rows = [[f"{x:.17g}" for x in (s, *u.tolist(), *du.tolist())]
            for s, u, du in samples]
    write_atomic(path, csv_text([header] + rows))
