"""Target-manifold metrics, Christoffel symbols and geodesics.

A Metric is h(u) = hscalar(u) * (I + H(u)): a conformal factor with its
closed-form gradient and rays (each ray's log-derivative and domain), and
an optional perturbation H.  Everything else (Christoffel symbols, the
straight-line self-coherence test, geodesic integration) is computed from
h and its partial derivatives.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailure, ParameterError, SingularMetricError
from .floquet import check_tol

_FD_STEP = 1e-4
_CHART_BOUND = 1e6


class Metric:
    """h(u) = hscalar(u) * (I + H(u)) on R^m, or on the open subset where
    the predicate `domain` holds.

    hscalar, its gradient grad, the predicate domain and H take points u
    of shape (..., m).  ray(a) is the pair (f, domain) of the ray
    t -> t*a: f the vectorized t -> d/dt ln hscalar(t*a), domain
    the open t-interval on which the ray stays in the chart, in closed
    form.  Without H, dh is analytic; with H, it is a 4th-order central
    difference of h.
    """

    def __init__(self, m, hscalar, grad, ray, domain=None, H=None):
        self.m = int(m)
        self.hscalar = hscalar
        self.grad = grad
        self.ray = ray
        self.domain = domain
        self.H = H

    def h(self, u):
        """h at the points u, shape (..., m) -> (..., m, m)."""
        u = np.asarray(u, dtype=float)
        hs = self.hscalar(u)[..., None, None]
        if self.H is None:
            return hs * np.eye(self.m)
        return hs * (np.eye(self.m) + self.H(u))

    def dh(self, u, k):
        """Partial derivative of h with respect to u^k at the points u."""
        u = np.asarray(u, dtype=float)
        if self.H is None:
            return self.grad(u)[..., k, None, None] * np.eye(self.m)
        e = np.zeros(self.m)
        e[k] = _FD_STEP
        return (
            -self.h(u + 2 * e) + 8 * self.h(u + e) - 8 * self.h(u - e) + self.h(u - 2 * e)
        ) / (12 * _FD_STEP)

    def in_domain(self, u):
        """Whether each point u, shape (..., m), lies in the chart."""
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1], True) if self.domain is None else np.asarray(self.domain(u))

    def perturbed(self, H):
        """The same conformal part times (I + H).

        The rays stay those of the conformal part: its log-derivative is
        the line's nonlinearity wherever H and its gradient vanish on it.
        """
        return Metric(self.m, self.hscalar, self.grad, self.ray,
                      domain=self.domain, H=H)


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
        return 1.0 + np.sum(np.asarray(u, dtype=float) ** p, axis=-1)

    def hs(u):
        return base(u) ** alpha

    def grad(u):
        u = np.asarray(u, dtype=float)
        return (alpha * base(u) ** (alpha - 1.0))[..., None] * p * u ** (p - 1.0)

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

    return Metric(m, hs, grad, ray)


def half_plane_power(ell):
    """Conformal factor h = (1 + v)^{-ell} on the half-plane v > -1."""
    ell = float(ell)

    def hs(u):
        return (1.0 + u[..., 1]) ** (-ell)

    def grad(u):
        dv = -ell * (1.0 + u[..., 1]) ** (-ell - 1.0)
        return np.stack([np.zeros_like(dv), dv], axis=-1)

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

    return Metric(2, hs, grad, ray, domain=lambda u: u[..., 1] > -1.0)


def christoffel(M, u):
    """Gamma^i_{jk} = (1/2) h^{il} (d_j h_{kl} + d_k h_{jl} - d_l h_{kj})
    at the points u, shape (..., m) -> (..., m, m, m).  ParameterError for
    the first point outside the chart, SingularMetricError for the first
    at which h is singular (condition number above 1e12)."""
    u = np.asarray(u, dtype=float)
    inside = M.in_domain(u)
    if not np.all(inside):
        raise ParameterError(f"point {u[~inside][0].tolist()} is outside the chart domain")
    # h and dh at u's own shape: one point keeps its 0-d arithmetic, whose
    # powers can differ in the last bit from numpy's array powers
    h = M.h(u).reshape(-1, M.m, M.m)
    ok = np.all(np.isfinite(h), axis=(1, 2))
    ok[ok] = np.linalg.cond(h[ok]) <= 1e12
    if ok.all():
        hinv = np.linalg.inv(h)
        ok = np.all(np.isfinite(hinv), axis=(1, 2))
    if not ok.all():
        raise SingularMetricError(
            f"metric singular at u={u.reshape(-1, M.m)[~ok][0].tolist()}")
    dh = np.stack([M.dh(u, k) for k in range(M.m)], axis=-3).reshape(-1, *(M.m,) * 3)
    # dh[:, j, k, l] = d_j h_{kl}; expr[:, j, k, l] = d_j h_{kl} + d_k h_{jl} - d_l h_{kj}
    expr = dh + dh.transpose(0, 2, 1, 3) - dh.transpose(0, 3, 2, 1)
    # gamma[:, i, j, k] = Gamma^i_{jk}
    gamma = 0.5 * np.einsum("nil,njkl->nijk", hinv, expr)
    return gamma.reshape(u.shape[:-1] + gamma.shape[1:])


@dataclass(frozen=True)
class DistinguishedLine:
    f_samples: list  # [(t, f(t)), ...]
    max_residual: float


def direction_norm2(a):
    """|a|^2 of a direction a; ParameterError unless 0 < |a|^2 < inf, so a
    norm that underflows or overflows is refused, without a warning."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        norm2 = float(a @ a)
    if not 0.0 < norm2 < math.inf:
        raise ParameterError(f"direction a must have a positive finite squared norm, "
                             f"got |a|^2 = {norm2!r}")
    return norm2


def check_self_coherence(M, a, t_range):
    """Test whether the ray u = a*t is covered by geodesics.

    At each of 64 equally spaced t in t_range the quadratic form
    c_i(t) = sum_jk Gamma^i_{jk}(a t) a_j a_k must be proportional to a;
    f(t) is the least-squares proportionality factor and max_residual the
    worst deviation |c_i - a_i f|.  The points before the first t that
    leaves the domain are checked first: SingularMetricError for the first
    singular one, else ParameterError at that t.
    """
    a = np.asarray(a, dtype=float)
    norm2 = direction_norm2(a)
    ts = np.linspace(t_range[0], t_range[1], 64)
    u = ts[:, None] * a
    inside = M.in_domain(u)
    n = ts.size if inside.all() else int(np.argmin(inside))
    gamma = christoffel(M, u[:n])
    if n < ts.size:
        raise ParameterError(f"line leaves the metric domain at t={ts[n]}")
    c = np.einsum("nijk,j,k->ni", gamma, a, a)
    f = c @ a / norm2
    worst = float(np.max(np.abs(c - a * f[:, None])))
    return DistinguishedLine(f_samples=list(zip(ts.tolist(), f.tolist())),
                             max_residual=worst)


def geodesic_full(M, u0, v0, s_max, tol=1e-10, n_samples=200):
    """Integrate the full geodesic system from (u0, v0) over [0, s_max].

    Returns [(s, u, udot), ...] at n_samples equally spaced s.  ParameterError
    unless 0 < s_max < inf and tol lies in [1e-13, 1e-6].  IntegrationFailure
    when the solver fails or the path leaves the chart bound |u^i| < 1e6
    before s_max.
    """
    if not 0.0 < s_max < math.inf:
        raise ParameterError(f"s_max must lie in (0, inf), got {s_max!r}")
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
