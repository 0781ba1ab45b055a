"""The linearizing integral transform v = G(u) and its convergence tests.

G(u) = int_0^u F(s) ds with F(s) = exp(int_0^s f(r) dr).  A finite endpoint
of G's range is the blow-up mechanism, so the endpoint classification is the
load-bearing part.  One per-side test decides whether int F converges on a
side: the fitted exponent of F in the tail, or at a finite domain edge.
TransformPair.endpoints reads its sign; noc_check reads it with an explicit
inconclusive band and never certifies convergence or divergence inside it.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EndpointProximityWarning, ParameterError, QuadratureError
from .floquet import check_tol

_PHI_CAP = 690.0  # exp overflow guard
_G_CAP = 1e12
# Relative clamp width for inverting G near a finite endpoint.  It must
# exceed the endpoint tail-extrapolation error (~1e-10), otherwise the
# clamped level can be unreachable by G and the bracketing search fails.
_ENDPOINT_CLAMP = 1e-8


class _Side:
    """Dense solution of [Phi, G]' = [f, exp(Phi)] on one side of 0."""

    def __init__(self, f, direction, tol, edge):
        self.f = f
        self.direction = direction  # +1 or -1
        self.tol = tol
        self.edge = edge  # domain edge in this direction (signed), may be inf
        self.chunks = []  # list of (s_hi_abs, OdeSolution)
        self.frontier = (0.0, 0.0, 0.0)  # (|s|, Phi, G) at the frontier
        self.terminated = None  # None | 'overflow' | 'g-cap' | 'domain'

    def reach(self, target_abs):
        """Extend the dense solution to |s| >= target_abs (or termination)."""
        from scipy.integrate import solve_ivp

        while self.frontier[0] < target_abs and self.terminated is None:
            s0, phi0, g0 = self.frontier
            s1 = max(16.0, target_abs)
            t0, t1 = self.direction * s0, self.direction * s1
            if math.isfinite(self.edge):
                # approach a finite edge geometrically: each chunk shrinks
                # the remaining distance by at most 8x, down to a relative
                # floor, so the quadrature never lands on the singularity
                floor = 1e-9 * (1.0 + abs(self.edge))
                dist0 = abs(self.edge - t0)
                if dist0 <= 2.0 * floor:
                    self.terminated = "domain"
                    return
                lim = self.edge - self.direction * max(floor, dist0 / 8.0)
                if self.direction * (t1 - lim) > 0:
                    t1 = lim
                    if self.direction * (t1 - t0) <= 0:
                        self.terminated = "domain"
                        return

            def rhs(t, y):
                return [self.f(t), math.exp(min(y[0], _PHI_CAP))]

            def ev_phi(t, y):
                return y[0] - _PHI_CAP

            def ev_g(t, y):
                return abs(y[1]) - _G_CAP

            ev_phi.terminal = True
            ev_g.terminal = True
            sol = solve_ivp(
                rhs, (t0, t1), [phi0, g0], method="DOP853",
                rtol=self.tol, atol=self.tol, dense_output=True,
                events=(ev_phi, ev_g),
            )
            if not sol.success and sol.status != 1:
                raise QuadratureError(
                    f"cumulative quadrature failed on ({t0}, {t1}): {sol.message}"
                )
            self.chunks.append((abs(sol.t[-1]), sol.sol))
            self.frontier = (abs(sol.t[-1]), sol.y[0, -1], sol.y[1, -1])
            if sol.status == 1:
                self.terminated = "overflow" if sol.t_events[0].size else "g-cap"

    def eval(self, s_abs):
        """(Phi, G) at |s| values (array); must be within reach."""
        s_abs = np.asarray(s_abs, dtype=float)
        phi = np.empty_like(s_abs)
        g = np.empty_like(s_abs)
        remaining = np.ones(s_abs.shape, dtype=bool)
        for hi, dense in self.chunks:
            take = remaining & (s_abs <= hi + 1e-12)
            if np.any(take):
                vals = dense(self.direction * np.minimum(s_abs[take], hi))
                phi[take] = vals[0]
                g[take] = vals[1]
                remaining[take] = False
        if np.any(remaining):
            # clamp beyond the frontier (terminated sides only)
            _, phi_f, g_f = self.frontier
            phi[remaining] = phi_f
            g[remaining] = g_f
        return phi, g


class TransformPair:
    """f, F = exp(int f), the strictly increasing G = int F, and H = G^-1.

    Construction integrates lazily and caches dense solutions; evaluation is
    read-only afterwards.  `domain` restricts f's argument (half-plane-type
    metrics have charts bounded below).  ParameterError unless tol lies in
    [1e-13, 1e-6].
    """

    def __init__(self, f, tol=1e-12, domain=(-math.inf, math.inf)):
        self.tol = check_tol(tol)
        self.f = f
        self.domain = domain
        if not domain[0] < 0.0 < domain[1]:
            raise ParameterError(f"domain must contain 0, got {domain}")
        self._pos = _Side(f, +1, tol, domain[1])
        self._neg = _Side(f, -1, tol, domain[0])
        self._pos.reach(16.0)
        self._neg.reach(16.0)
        self._endpoints = None

    def Phi(self, s):
        """int_0^s f(r) dr."""
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        for side, mask in ((self._pos, s >= 0), (self._neg, s < 0)):
            if np.any(mask):
                sa = np.abs(s[mask])
                side.reach(float(sa.max()))
                out[mask] = side.eval(sa)[0]
        return out if out.ndim else float(out)

    def F(self, s):
        """exp(int_0^s f)."""
        return np.exp(np.clip(self.Phi(s), -_PHI_CAP, _PHI_CAP))

    def G(self, u):
        """The transform itself; strictly increasing, G(0) = 0."""
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        for side, mask in ((self._pos, u >= 0), (self._neg, u < 0)):
            if np.any(mask):
                ua = np.abs(u[mask])
                side.reach(float(min(ua.max(), 1e9)))
                out[mask] = side.eval(ua)[1]
        return out if out.ndim else float(out)

    def H(self, v):
        """Inverse of G; clamps near finite endpoints with a warning."""
        from scipy.optimize import brentq

        v = float(v)
        if v == 0.0:
            return 0.0
        ep = self.endpoints()
        if v > 0 and ep.b_finite:
            lim = ep.b - _ENDPOINT_CLAMP * max(1.0, abs(ep.b))
            if v >= lim:
                warnings.warn(
                    f"H({v!r}) clamped near finite endpoint {ep.b!r}",
                    EndpointProximityWarning,
                )
                v = lim
        if v < 0 and ep.a_finite:
            lim = ep.a + _ENDPOINT_CLAMP * max(1.0, abs(ep.a))
            if v <= lim:
                warnings.warn(
                    f"H({v!r}) clamped near finite endpoint {ep.a!r}",
                    EndpointProximityWarning,
                )
                v = lim
        # monotone bracket expansion, then brentq
        lo, hi = (0.0, 1.0) if v > 0 else (-1.0, 0.0)
        for _ in range(200):
            if v > 0 and self.G(hi) >= v:
                break
            if v < 0 and self.G(lo) <= v:
                break
            if v > 0:
                hi = min(2.0 * hi, self.domain[1] - 1e-13 * (1 + abs(self.domain[1])))
            else:
                lo = max(2.0 * lo, self.domain[0] + 1e-13 * (1 + abs(self.domain[0])))
        u = brentq(lambda x: self.G(x) - v, lo, hi, xtol=1e-14, rtol=8.9e-16)
        # one safeguarded Newton polish with the exact derivative F
        fu = self.F(u)
        if fu > 0:
            step = (self.G(u) - v) / fu
            if lo <= u - step <= hi:
                u = u - step
        return float(u)

    def endpoints(self, s_max=1e6):
        """Limits of G at the domain ends, with finiteness flags and bounds."""
        if self._endpoints is not None and self._endpoints.s_max >= s_max:
            return self._endpoints
        b, b_fin, b_err = _one_endpoint(self._pos, s_max)
        a, a_fin, a_err = _one_endpoint(self._neg, s_max)
        self._endpoints = Endpoints(
            a=-a, b=b, a_finite=a_fin, b_finite=b_fin,
            a_err=a_err, b_err=b_err, s_max=s_max,
        )
        return self._endpoints


@dataclass(frozen=True)
class Endpoints:
    a: float
    b: float
    a_finite: bool
    b_finite: bool
    a_err: float
    b_err: float
    s_max: float

    @property
    def target(self):
        """The finite endpoint a blow-up runs toward: b if finite, else a,
        else None."""
        return self.b if self.b_finite else (self.a if self.a_finite else None)


def _one_endpoint(side, s_max):
    """(|limit|, finite?, error bound) of G along one side.

    Uses the integral to s_max plus a power-law tail extrapolation; the
    reported bound is the difference between the extrapolations anchored at
    s_max and s_max/2.
    """
    p, excess = _side_exponent(side, s_max)
    if excess <= 0.0:
        return math.inf, False, math.inf
    if side.terminated == "domain":
        # the integrand behaves like C*dist^p near the edge; integrate the
        # remaining sliver of width d analytically from the frontier value
        s_edge, phi_edge, g_edge = side.frontier
        d = abs(abs(side.edge) - s_edge)
        tail = math.exp(min(phi_edge, _PHI_CAP)) * d / excess
        # redo the correction anchored at twice the distance for an error bar
        phi_h, g_h = side.eval(np.array([s_edge - d]))
        tail_h = math.exp(min(phi_h[0], _PHI_CAP)) * 2.0 * d / excess
        err = abs((abs(g_edge) + tail) - (abs(g_h[0]) + tail_h)) + 1e-12
        return abs(g_edge) + tail, True, err

    def extrapolate(s, p):
        phi, g = side.eval(np.array([s]))
        return abs(g[0]) + math.exp(min(phi[0], _PHI_CAP)) * s / (-1.0 - p)

    full = extrapolate(s_max, p)
    p_half, excess_half = _side_exponent(side, s_max / 2.0)
    err = math.inf
    if excess_half > 0.0:
        err = abs(full - extrapolate(s_max / 2.0, p_half))
    return full, True, err


def _side_exponent(side, s_max):
    """(p, excess): the exponent of F on one side, and how far it lies on
    the integrable side of -1.

    excess > 0 iff int F converges on that side.  At a finite domain edge F
    behaves like dist^p, so excess = p + 1; in the tail F behaves like s^p,
    so excess = -1 - p.  A side whose F or G overflowed diverges outright:
    p = inf, excess = -inf.
    """
    side.reach(s_max)
    if side.terminated in ("overflow", "g-cap"):
        return math.inf, -math.inf
    if side.terminated == "domain":
        p = _local_exponent(side)
        return p, p + 1.0
    p = _tail_exponent(side, s_max)
    return p, -1.0 - p


def _tail_exponent(side, s_hi, decades=2.0, npts=33):
    """Log-log slope of F over [s_hi/10^decades, s_hi] on one side."""
    ss = np.logspace(math.log10(s_hi) - decades, math.log10(s_hi), npts)
    side.reach(s_hi)
    phi, _ = side.eval(ss)
    return _slope(np.log(ss), phi)


def _local_exponent(side, npts=25):
    """Exponent of F in distance to the finite edge (integrability probe).

    Distances are measured from the true domain edge, not the integration
    frontier (which stops a small floor short of the edge); anchoring at the
    frontier would bias the smallest probes and flatten the fitted slope.
    """
    edge_abs = abs(side.edge)
    d = np.logspace(-8, -2, npts) * max(1.0, edge_abs)
    phi, _ = side.eval(edge_abs - d)
    return _slope(np.log(d), phi)


def _slope(x, y):
    """Least-squares slope of y against x."""
    A = np.vstack([x, np.ones_like(x)]).T
    return float(np.linalg.lstsq(A, y, rcond=None)[0][0])


def build_transform(f, tol=1e-12, domain=(-math.inf, math.inf)):
    """TransformPair for a continuous f; see TransformPair."""
    return TransformPair(f, tol=tol, domain=domain)


@dataclass(frozen=True)
class NOCVerdict:
    """Two-sided divergence verdict for the integrals of F.

    holds == 'yes' iff both sides diverge (the global-existence condition);
    'no' iff at least one side converges (a finite endpoint of G exists,
    enabling the blow-up construction); otherwise 'inconclusive'.
    """

    forward: str
    backward: str
    holds: str
    p_hat_fwd: float
    p_hat_bwd: float

    def to_json(self):
        return json.dumps(
            {
                "forward": self.forward,
                "backward": self.backward,
                "holds": self.holds,
                "p_hat_fwd": self.p_hat_fwd,
                "p_hat_bwd": self.p_hat_bwd,
            }
        )


def noc_check(f, s_max=1e5, margin=0.1, domain=(-math.inf, math.inf), tol=1e-12):
    """Classify divergence of int_0^inf F and int_-inf^0 F.

    Per side this reads the same integrability test as
    TransformPair.endpoints (the tail exponent of F, or its local exponent
    at a finite domain edge; an overflowed side diverges outright), with
    an inconclusive band: convergent when the exponent lies more than
    margin on the integrable side of -1, divergent when more than margin
    on the other side.  The blow-up pipeline does not call this: a
    certificate needs a finite endpoint, which endpoints() decides.
    """
    if s_max < 1e4:
        raise ParameterError(f"s_max must be >= 1e4, got {s_max}")
    tp = TransformPair(f, tol=tol, domain=domain)
    fwd, p_fwd = _side_verdict(tp._pos, s_max, margin)
    bwd, p_bwd = _side_verdict(tp._neg, s_max, margin)
    if fwd == "divergent" and bwd == "divergent":
        holds = "yes"
    elif fwd == "convergent" or bwd == "convergent":
        holds = "no"
    else:
        holds = "inconclusive"
    return NOCVerdict(
        forward=fwd, backward=bwd, holds=holds, p_hat_fwd=p_fwd, p_hat_bwd=p_bwd
    )


def _side_verdict(side, s_max, margin):
    p, excess = _side_exponent(side, s_max)
    if excess > margin:
        return "convergent", p
    if excess < -margin:
        return "divergent", p
    return "inconclusive", p
