"""The linearizing integral transform v = G(u) and its convergence tests.

G(u) = int_0^u F(s) ds with F(s) = exp(int_0^s f(r) dr).  A finite endpoint
of G's range is the blow-up mechanism, so the endpoint classification is the
load-bearing part.  One per-side test decides whether int F converges on a
side: the fitted exponent of F in the tail, or at a finite domain edge.
TransformPair.endpoints reads its sign; noc_check reads it with an explicit
inconclusive band and never certifies convergence or divergence inside it.

Each side of 0 holds Phi and G as Chebyshev panels, G in mean-value form
(_Side); H = G^-1 takes safeguarded Newton steps (derivative F) in a panel.
"""

import functools
import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EndpointProximityWarning, ParameterError, QuadratureError
from .floquet import check_tol

_PHI_CAP = 690.0  # exp overflow guard
_G_CAP = 1e12
_DEG = 32  # Chebyshev degree of every panel interpolant
_S_REACH = 1e9  # farthest |s| at which G and H evaluate
_MIN_WIDTH = 1e-6  # nodes round in |s|: a narrower panel cannot meet tol
_ENDPOINT_S_MAX = 1e6  # |s| to which endpoints() integrates before its tail
EDGE_FLOOR = 2e-9  # panels and uniform runs end EDGE_FLOOR (1 + |edge|) before an edge
# Relative clamp width for inverting G near a finite endpoint.  It must
# exceed the endpoint tail-extrapolation error (~1e-10), otherwise the
# clamped level can lie beyond every panel and H fails.
_ENDPOINT_CLAMP = 1e-8


class _Side:
    """Phi and G on one side of 0, as Chebyshev panels in |s|.

    The first panel is [0, 1], each next one twice as wide; toward a finite
    domain edge each covers half the remaining distance, down to a relative
    1e-9.  On a panel, f is interpolated at degree 32 and integrated to Phi,
    then exp(Phi) likewise to G, halving the panel until the trailing
    coefficients of both are within tol of their largest.  Phi and G are
    kept in mean-value form, value at s0 plus (|s| - s0) times a series, so
    they keep their relative accuracy near 0.  A side ends after the panel
    where Phi reaches _PHI_CAP or |G| reaches _G_CAP.
    """

    def __init__(self, f, direction, tol, edge):
        self.f = f
        self.direction = direction  # +1 or -1
        self.tol = tol
        self.edge = edge  # domain edge in this direction (signed), may be inf
        self.panels = []  # (s0, s1, Phi(s0), G(s0), Phi series, G series)
        self.width = 1.0  # the width the next panel tries first
        self.frontier = (0.0, 0.0, 0.0)  # (|s|, Phi, G) at the frontier
        self.terminated = None  # None | 'overflow' | 'g-cap' | 'domain'

    def reach(self, target_abs):
        """Extend the panels to |s| >= target_abs (or termination)."""
        x, V, _, _ = _maps()
        d = self.direction
        while self.frontier[0] < target_abs and self.terminated is None:
            s0, phi0, g0 = self.frontier
            w = self.width
            if math.isfinite(self.edge):
                dist = abs(self.edge) - s0
                if dist <= EDGE_FLOOR * (1.0 + abs(self.edge)):
                    self.terminated = "domain"
                    return
                w = min(w, 0.5 * dist)
            while True:
                half = 0.5 * w
                mphi, f_ok = _mean_value(
                    d * self.f(d * (s0 + half * (x + 1.0))), self.tol)
                mg, g_ok = _mean_value(np.exp(np.minimum(
                    phi0 + half * (x + 1.0) * (V @ mphi), _PHI_CAP)), self.tol)
                phi1, g1 = phi0 + w * mphi.sum(), g0 + d * w * mg.sum()
                if (w < 2.0 * _MIN_WIDTH * (1.0 + s0) or f_ok and (
                        g_ok or phi1 >= _PHI_CAP or abs(g1) >= _G_CAP)):
                    break
                w = half
            self.panels.append((s0, s0 + w, phi0, g0, mphi, mg))
            self.width = 2.0 * w
            self.frontier = (s0 + w, phi1, g1)
            if phi1 >= _PHI_CAP or abs(g1) >= _G_CAP:
                self.terminated = "overflow" if phi1 >= _PHI_CAP else "g-cap"

    def eval(self, s_abs):
        """(Phi, G) at |s| values (array); must be within reach.  Beyond the
        frontier (terminated sides only) both hold their frontier values.
        One Clenshaw pass sums every point's two series on its own panel."""
        from numpy.polynomial.chebyshev import chebval

        s_abs = np.minimum(np.asarray(s_abs, dtype=float), self.frontier[0])
        s0, s1, phi0, g0 = np.array([p[:4] for p in self.panels]).T
        k = np.searchsorted(s1, s_abs)
        ds = s_abs - s0[k]
        x = 2.0 * ds / (s1[k] - s0[k]) - 1.0
        # coefficients (_DEG + 1,) + k.shape + (2,): Phi's and G's series per point
        m = np.moveaxis(np.array([p[4:] for p in self.panels])[k], -1, 0)
        phi, g = np.moveaxis(chebval(x[..., None], m, tensor=False), -1, 0)
        return phi0[k] + ds * phi, g0[k] + self.direction * ds * g

    def invert(self, g):
        """|s| at which |G| = g: safeguarded Newton steps, with derivative
        exp(Phi), on the first panel whose far end reaches g.
        QuadratureError when no panel up to |s| = 1e9 (or the side's end)
        reaches g."""
        if abs(self.frontier[2]) < g:
            self.reach(_S_REACH)
        if abs(self.frontier[2]) < g:
            raise QuadratureError(f"G does not reach the level {self.direction * g!r}"
                                  f" within |u| <= {self.frontier[0]:.6g}")
        ends = np.abs([p[3] for p in self.panels[1:]] + [self.frontier[2]])
        lo, hi, phi0, g0 = self.panels[int(np.searchsorted(ends, g))][:4]
        s = min(max(lo + (g - abs(g0)) * math.exp(-max(phi0, -_PHI_CAP)), lo), hi)
        for _ in range(100):
            phi, gs = map(float, self.eval(s))
            r = abs(gs) - g
            lo, hi = (lo, s) if r > 0.0 else (s, hi)
            step = s - r * math.exp(-max(phi, -_PHI_CAP))
            if not lo <= step <= hi:
                step = 0.5 * (lo + hi)
            if abs(step - s) <= 4.0 * np.finfo(float).eps * abs(s):
                return step
            s = step
        return s


@functools.cache
def _maps():
    """(x, V, scale, D): the _DEG + 1 first-kind Chebyshev nodes x on
    [-1, 1], the Chebyshev-Vandermonde matrix V at x, the scaling with which
    c = V^T y / scale interpolates the node values y (chebinterpolate's
    arithmetic), and the mean-value map D from coefficients c to m with
    int_{-1}^x c = (1 + x) m(x).  Built on the first panel fit."""
    from numpy.polynomial import chebyshev as C

    n = _DEG + 1
    x = C.chebpts1(n)
    V = C.chebvander(x, _DEG)
    D = np.zeros((n, n))
    for j, e in enumerate(np.eye(n)):
        q = C.chebdiv(C.chebint(e, lbnd=-1.0), [1.0, 1.0])[0]
        D[:q.size, j] = q
    return x, V, np.r_[n, np.full(_DEG, 0.5 * n)], D


def _mean_value(y, tol):
    """(m, resolved): the degree-_DEG Chebyshev interpolant c on [-1, 1] of
    the values y at the nodes of _maps(), in mean-value form
    int_{-1}^x c = (1 + x) m(x), and whether c's trailing coefficients lie
    within tol of its largest.  c keeps chebinterpolate's bits: where
    tol * max|c| underflows, the test compares c's last bits with 0."""
    _, V, scale, D = _maps()
    c = V.T @ y / scale
    return D @ c, bool(np.max(np.abs(c[-2:])) <= tol * np.max(np.abs(c)))


class TransformPair:
    """f, F = exp(int f), the strictly increasing G = int F, and H = G^-1.

    Construction integrates lazily and caches the panels; evaluation is
    read-only afterwards.  `domain` restricts f's argument (half-plane-type
    metrics have charts bounded below).  ParameterError unless tol lies in
    [1e-13, 1e-6].
    """

    def __init__(self, f, tol=1e-12, domain=(-math.inf, math.inf)):
        self.tol = check_tol(tol)
        self.f = f
        if not domain[0] < 0.0 < domain[1]:
            raise ParameterError(f"domain must contain 0, got {domain}")
        self._pos = _Side(f, +1, tol, domain[1])
        self._neg = _Side(f, -1, tol, domain[0])
        self._pos.reach(16.0)
        self._neg.reach(16.0)
        self._endpoints = None
        from numpy.polynomial.chebyshev import chebval

        s0, s1, _, _, mphi, _ = self._pos.panels[0]  # phi_bound's panel
        self._markov = (s1 - s0, abs(float(chebval(-1.0, mphi))),
                        float(np.arange(mphi.size) ** 2.0 @ np.abs(mphi)))

    def Phi(self, s):
        """int_0^s f(r) dr."""
        return self._on_sides(s, math.inf, 0)

    def G(self, u):
        """The transform itself; strictly increasing, G(0) = 0."""
        return self._on_sides(u, _S_REACH, 1)

    def phi_bound(self, amp):
        """An upper bound on |Phi| over [0, amp], or inf when amp lies
        beyond the first positive panel [0, w].

        Phi there is s m(x), x = 2s/w - 1, with m a Chebyshev series;
        Markov's bound |T_j'| <= j^2 gives |m(x)| <= |m(-1)| + (2 amp / w)
        sum_j j^2 |m_j| on [0, amp].
        """
        w, m0, markov = self._markov
        if amp > w:
            return math.inf
        return amp * (m0 + 2.0 * amp / w * markov)

    def _on_sides(self, s, reach, which):
        """Phi (which=0) or G (which=1) at s, extending to |s| <= reach."""
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        for side, mask in ((self._pos, s >= 0), (self._neg, s < 0)):
            if np.any(mask):
                sa = np.abs(s[mask])
                side.reach(float(min(sa.max(), reach)))
                out[mask] = side.eval(sa)[which]
        return out if out.ndim else float(out)

    def H(self, v):
        """Inverse of G; clamps near finite endpoints with a warning, and
        raises QuadratureError for a level beyond G's last panel."""
        v = float(v)
        if v == 0.0:
            return 0.0
        ep = self.endpoints()
        side, end, finite = ((self._pos, ep.b, ep.b_finite) if v > 0
                             else (self._neg, ep.a, ep.a_finite))
        g = abs(v)
        if finite:
            lim = abs(end) - _ENDPOINT_CLAMP * max(1.0, abs(end))
            if g >= lim:
                warnings.warn(f"H({v!r}) clamped near finite endpoint {end!r}",
                              EndpointProximityWarning)
                g = lim
        return side.direction * side.invert(g)

    def endpoints(self):
        """Limits of G at the domain ends, with finiteness flags and bounds."""
        if self._endpoints is None:
            b, b_fin, b_err = _one_endpoint(self._pos, _ENDPOINT_S_MAX)
            a, a_fin, a_err = _one_endpoint(self._neg, _ENDPOINT_S_MAX)
            self._endpoints = Endpoints(a=-a, b=b, a_finite=a_fin, b_finite=b_fin,
                                        a_err=a_err, b_err=b_err)
        return self._endpoints


@dataclass(frozen=True)
class Endpoints:
    a: float
    b: float
    a_finite: bool
    b_finite: bool
    a_err: float
    b_err: float

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

    p is the least-squares log-log slope of Phi against the distance to the
    side's end: at 33 points over [s_max/100, s_max] in the tail, where F
    behaves like s^p and excess = -1 - p, or at 25 distances from 1e-8 to
    1e-2 (relative to max(1, |edge|)) from a finite domain edge, where F
    behaves like dist^p and excess = p + 1.  excess > 0 iff int F converges
    on that side.  A side whose F or G overflowed diverges outright:
    p = inf, excess = -inf.
    """
    side.reach(s_max)
    if side.terminated in ("overflow", "g-cap"):
        return math.inf, -math.inf
    if side.terminated == "domain":
        # distances from the true domain edge, not the integration frontier
        # (which stops a small floor short of the edge): anchoring at the
        # frontier would bias the smallest probes and flatten the slope
        d = np.logspace(-8, -2, 25) * max(1.0, abs(side.edge))
        s = abs(side.edge) - d
    else:
        s = d = np.logspace(math.log10(s_max) - 2.0, math.log10(s_max), 33)
    p = _slope(np.log(d), side.eval(s)[0])
    return p, (-1.0 - p if side.terminated is None else p + 1.0)


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
        return json.dumps(asdict(self))


def noc_check(f, s_max=1e5, margin=0.1, domain=(-math.inf, math.inf), tol=1e-12):
    """Classify divergence of int_0^inf F and int_-inf^0 F.

    Per side this reads the same integrability test as
    TransformPair.endpoints (the tail exponent of F, or its local exponent
    at a finite domain edge; an overflowed side diverges outright), with
    an inconclusive band: convergent when the exponent lies more than
    margin on the integrable side of -1, divergent when more than margin
    on the other side.  The blow-up pipeline does not call this: a
    certificate needs a finite endpoint, which endpoints() decides.
    ParameterError, before any panel is built, unless s_max is finite and
    >= 1e4 and margin is finite and >= 0.
    """
    if not 1e4 <= s_max < math.inf:
        raise ParameterError(f"s_max must be finite and >= 1e4, got {s_max}")
    if not 0.0 <= margin < math.inf:
        raise ParameterError(f"margin must be finite and >= 0, got {margin}")
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
