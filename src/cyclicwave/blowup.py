"""Blow-up certificates from Floquet instability plus a finite endpoint.

The construction: pick a spectral parameter inside an instability interval,
seed arbitrarily small data supported on a ball of radius 2M^2, and follow
the exact local solution of the transformed linear equation.  If the
transform G has a finite endpoint, the exponentially growing Floquet mode
pushes G(u) across it before the light cone from the data's edge reaches
the origin, so the solution cannot continue smoothly.

Everything here is checked numerics, not proof: Sobolev norms are computed
(FFT on a torus for n <= 2, a radial sine transform for n = 3) and
the crossing time is located on the actual fundamental solution.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import floquet
from .errors import (
    ExhaustedSearchError,
    NotApplicableError,
    ParameterError,
    ResolutionError,
)
from .pdesim import GridSpec, max_b

_TOP_OCTAVE_BUDGET = 0.01
_RADIAL_STEPS = 4096  # r steps on [0, R] for the n=3 radial transform
_RADIAL_PAD = 8  # ... which runs over [0, 8R], zero beyond R
_PHI_SKIP = 2.0**-60  # |Phi(g0)| below which g1 = A g0 to a relative 1e-18
_SOBOLEV_ORDER = 3.0  # s of the certified ||u0||_{H^{s+1}} + ||u1||_{H^s}


def chi_radial(r):
    """Radial cutoff as a function of the radius r = |z|: 1 on r <= 1,
    smooth down to 0 at r = 2.

    The transition on (1, 2) is the standard partition-of-unity profile
    g(2-r)/(g(2-r)+g(r-1)) with g(s) = exp(-1/s), which is flat (all
    derivatives vanish) at both ends, so chi is genuinely C-infinity.
    A one-sided bump such as exp(1 - 1/(1-(r-1)^2)) matches the plateau
    only to first order at r = 1 and would have an infinite H^s norm
    for s >= 2.5.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= 1.0] = 1.0
    mid = (r > 1.0) & (r < 2.0)
    t = r[mid]
    g_hi = np.exp(-1.0 / (2.0 - t))
    g_lo = np.exp(-1.0 / (t - 1.0))
    out[mid] = g_hi / (g_hi + g_lo)
    return out


@dataclass(frozen=True)
class BlowupPlan:
    """Parameters of one seed-data family.

    n      : spatial dimension
    lam    : spectral parameter (inside an instability interval)
    S      : decay exponent; data size scales like M^-S, must exceed 2n
    M      : integer number of coefficient periods the certificate runs for
    A      : sign (+1/-1) of the oscillatory velocity component
    """

    n: int
    lam: float
    S: float
    M: int
    A: float = 1.0

    def __post_init__(self):
        if self.M < 1 or self.M != int(self.M):
            raise ParameterError(f"M must be a positive integer, got {self.M}")
        if not self.S > 2 * self.n:
            raise ParameterError(
                f"decay exponent S={self.S} must exceed 2n={2 * self.n}"
            )
        if self.A not in (-1.0, 1.0, -1, 1):
            raise ParameterError(f"A must be +1 or -1, got {self.A}")

    @property
    def y(self):
        """Frequency vector (sqrt(lam), 0, ..., 0), so |y|^2 = lam."""
        return (math.sqrt(self.lam),) + (0.0,) * (self.n - 1)

    @property
    def amplitude(self):
        return float(self.M) ** (-self.S)

    @property
    def support_radius(self):
        return 2.0 * self.M**2

    @property
    def cone_radius(self):
        """Radius of the backward light-cone base kept inside the support."""
        return float(self.M) ** 1.5


def seed_profiles(plan, tp):
    """The radial profiles g0 = M^-S chi(r / M^2) and g1 = A g0 exp(-Phi(g0))
    of the plan's data, supported in r <= R = 2 M^2."""
    amp, msq = plan.amplitude, float(plan.M) ** 2

    def g0(r):
        return amp * chi_radial(r / msq)

    def g1(r):
        base = g0(r)
        return plan.A * base * np.exp(-tp.Phi(base))

    return g0, g1


def make_data(plan, tp):
    """Return (u0, u1) = (g0(|x|), g1(|x|) cos(x.y)): callables on point
    arrays of shape (..., n)."""
    g0, g1 = seed_profiles(plan, tp)
    y = np.asarray(plan.y)

    def u0(x):
        x = np.asarray(x, dtype=float)
        return g0(np.sqrt(np.sum(x * x, axis=-1)))

    def u1(x):
        x = np.asarray(x, dtype=float)
        phase = np.cos(np.tensordot(x, y, axes=([-1], [0])))
        return g1(np.sqrt(np.sum(x * x, axis=-1))) * phase

    return u0, u1


# ---------------------------------------------------------------------------
# Sobolev smallness
# ---------------------------------------------------------------------------

def _torus_sobolev(values, grid, s):
    """H^s norm of a sampled field on the torus, continuum convention.

    ||u||^2 = (2 pi)^-n * integral (1+|xi|^2)^s |u_hat(xi)|^2 d xi, which on
    the torus becomes L^n * sum_k |c_k|^2 (1 + |xi_k|^2)^s over Fourier
    coefficients c_k at xi_k = 2 pi k / L.
    """
    c = np.fft.fftn(values) / values.size
    k2 = grid.k_squared()
    weight = (1.0 + k2) ** s
    power = np.abs(c) ** 2
    total = grid.L**grid.n * float(np.sum(power * weight))
    # top-octave check: the weighted spectrum must be resolved
    kmax = np.pi / grid.dx
    octave = k2 >= (kmax / 2.0) ** 2
    top = grid.L**grid.n * float(np.sum(power[octave] * weight[octave]))
    if total > 0 and top > _TOP_OCTAVE_BUDGET * total:
        raise ResolutionError(
            f"top-octave energy fraction {top / total:.3g} exceeds "
            f"{_TOP_OCTAVE_BUDGET}; refine the grid"
        )
    return math.sqrt(total)


def sobolev_smallness(u0, u1, s, grid):
    """||u0||_{H^{s+1}} + ||u1||_{H^s} on the given torus grid (FFT path)."""
    pts = grid.coords()
    return _torus_sobolev(u0(pts), grid, s + 1.0) + _torus_sobolev(u1(pts), grid, s)


def _radial_hat(g, R):
    """n=3 radial Fourier transform g_hat(rho) = (4 pi / rho) Int g(r) r sin(rho r) dr.

    g is supported in [0, R].  r g(r) is sampled at r_j = j h, h = R / 4096
    (j = 1..4096), and zero-padded to [0, 8R]; one type-I sine transform
    then gives g_hat(rho_k) = (4 pi h / rho_k) sum_j g(r_j) r_j sin(rho_k r_j)
    at rho_k = pi k / (8R), with g_hat(0) = 4 pi h sum_j g(r_j) r_j^2.  That
    sum is the trapezoid rule for the integral, which converges
    exponentially for smooth compactly supported g (Trefethen & Weideman,
    SIAM Review 56, 2014).  Returns (rho, g_hat) for k = 0 .. 8*4096 - 1.
    """
    size = _RADIAL_PAD * _RADIAL_STEPS
    h = R / _RADIAL_STEPS
    r = h * np.arange(1, _RADIAL_STEPS + 1)
    gr = np.zeros(size - 1)
    gr[:_RADIAL_STEPS] = g(r) * r
    rho = np.pi / (_RADIAL_PAD * R) * np.arange(size)
    hat = np.empty(size)
    hat[0] = 4.0 * np.pi * h * float(gr[:_RADIAL_STEPS] @ r)
    hat[1:] = 2.0 * np.pi * h * _dst1(gr) / rho[1:]
    return rho, hat


def _dst1(x):
    """Type-I sine transform 2 sum_j x_j sin(pi k j / (N + 1)), j, k = 1..N:
    minus the imaginary part of one rfft of the odd extension
    [0, x, 0, -x reversed], of length 2N + 2."""
    odd = np.zeros(2 * x.size + 2)
    odd[1 : x.size + 1] = x
    odd[x.size + 2 :] = -x[::-1]
    return -np.fft.rfft(odd).imag[1:-1]


def _simpson_weights(n, h):
    """Composite Simpson weights h/3 [1, 4, 2, 4, ..., 2, 4, 1] on n (odd)
    equally spaced points."""
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def _sphere_mean_weight(s, a, bcoef):
    """Average of (a + b cos theta)^s over the unit sphere in 3-D.

    Equals [(a+b)^{s+1} - (a-b)^{s+1}] / (2 b (s+1)); a > b >= 0 required.
    """
    small = bcoef < 1e-12 * a
    out = np.empty_like(a)
    out[small] = a[small] ** s
    aa, bb = a[~small], bcoef[~small]
    out[~small] = ((aa + bb) ** (s + 1) - (aa - bb) ** (s + 1)) / (
        2.0 * bb * (s + 1.0)
    )
    return out


def radial_head(hat):
    """A radial transform (_radial_hat's, rho_k = pi k / (8R)) through its
    cut: the smallest k = 1024 * 2^j (rho = 128 pi / R * 2^j) whose top
    sixteenth has |hat| below 1e-10 of its maximum.  ResolutionError if no
    such cut lies inside the transform's range.
    """
    # hat g decays on the scale 2 pi / R; cut where the tail is negligible
    cut = 128 * _RADIAL_PAD
    while cut < hat.size:
        head = np.abs(hat[: cut + 1])
        if np.max(head[15 * cut // 16 :]) < 1e-10 * np.max(head):
            return hat[: cut + 1]
        cut *= 2
    raise ResolutionError(
        f"radial transform unresolved: no cut among its {hat.size} rho "
        f"points has its top sixteenth below 1e-10 of the peak"
    )


@functools.cache
def _chi_hat():
    """chi_radial's whole radial transform on the M = 1 grid (R = 2), made
    once per process: every plan samples chi at the same points 2j/4096."""
    hat = _radial_hat(chi_radial, 2.0)[1]
    hat.flags.writeable = False
    return hat


def _chi_head():
    """radial_head of chi's cached transform (a read-only view)."""
    return radial_head(_chi_hat())


def _phi_bound(tp, amp):
    """An upper bound on |Phi| over [0, amp], or inf when amp lies beyond
    tp's first positive panel [0, w].

    Phi there is s m(x), x = 2s/w - 1, with m a Chebyshev series; Markov's
    bound |T_j'| <= j^2 gives |m(x)| <= |m(-1)| + (2 amp / w) sum_j j^2 |m_j|
    on [0, amp].
    """
    from numpy.polynomial.chebyshev import chebval

    s0, s1, _, _, mphi, _ = tp._pos.panels[0]
    w = s1 - s0
    if amp > w:
        return math.inf
    j2 = np.arange(mphi.size) ** 2.0
    slope = 2.0 * amp / w * float(j2 @ np.abs(mphi))
    return amp * (abs(float(chebval(-1.0, mphi))) + slope)


def radial_pair_norm(h0, h1, lam, s, R):
    """H^{s+1} x H^s norm sum for (g0(|x|), g1(|x|) cos(x.y)) on R^3.

    |y|^2 = lam; both fields are supported in |x| <= R.  h0 is g0's
    radial_head, whose length sets the cut of every rho integral, and h1
    is g1's whole radial transform (_radial_hat's, on rho_k = pi k / (8R)).
    Each Sobolev integral reduces to a one-dimensional Simpson quadrature:
    g0 via the radial transform directly, the modulated g1 via the exact
    average of (1 + |xi|^2)^s over spheres (the shift by +-y enters through
    the sphere-mean weight); the hat-g1(|xi-y|) hat-g1(|xi+y|) cross term
    is bounded by max|hat g1| times the same quadrature and added.

    The cross-term supremum is 1.5 max|hat g1| from the last grid point at
    or below |y| onward, or over the top sixteenth of the grid when |y|
    lies beyond it.
    """
    rho = np.pi / (_RADIAL_PAD * R) * np.arange(h1.size)
    # the cross term's far factor (below) reads the whole transform
    k_far = int(math.sqrt(lam) / rho[1])
    far = h1[k_far:] if k_far < rho.size else h1[-rho.size // 16 :]
    far_sup = 1.5 * float(np.max(np.abs(far)))
    rho, h1 = rho[: h0.size], h1[: h0.size]
    weights = _simpson_weights(h0.size, rho[1])

    inv_cube = (2.0 * np.pi) ** -3
    # ||u0||_{s+1}^2 = (2pi)^-3 * 4 pi Int (1+rho^2)^{s+1} h0^2 rho^2 d rho
    norm0_sq = inv_cube * 4.0 * np.pi * float(
        weights @ ((1.0 + rho * rho) ** (s + 1.0) * h0 * h0 * rho * rho)
    )
    # ||u1||_s^2: hat u1(xi) = (h1(|xi - y|) + h1(|xi + y|)) / 2
    ang = _sphere_mean_weight(s, 1.0 + lam + rho * rho, 2.0 * math.sqrt(lam) * rho)
    # the two |h1(|xi -+ y|)|^2/4 terms are equal by symmetry; each gives
    # (1/4) Int h1(r)^2 r^2 * 4 pi * ang(r) dr after the sphere average
    main = inv_cube * 2.0 * np.pi * float(weights @ (h1 * h1 * rho * rho * ang))
    # cross term 2 h1(|xi-y|) h1(|xi+y|)/4: at every xi one of |xi -+ y| is
    # >= |y|, so that factor is bounded by the hat-g1 supremum beyond |y|
    # (with a safety factor); the other integrates against the weight
    cross_bound = inv_cube * 4.0 * np.pi * far_sup * float(
        weights @ (np.abs(h1) * rho * rho * ang)
    )
    return math.sqrt(norm0_sq) + math.sqrt(main + cross_bound)


def radial_smallness(plan, tp, s):
    """Semi-analytic smallness for n=3 radial-times-cosine plan data.

    g0 = M^-S chi(r / M^2) is sampled at r / M^2 = 2j/4096 for every M, so
    its transform is M^-S M^6 times chi's on the M = 1 grid, made once per
    process (_chi_hat).  g1 = A g0 exp(-Phi(g0)) takes A times that
    transform when _phi_bound proves |Phi(g0)| <= 2^-60, which makes the
    factor 1 to a relative 1e-18 (f(0) = 0 and M large enough); otherwise
    g1 is transformed directly.
    """
    if plan.n != 3:
        raise ParameterError("radial smallness path is for n = 3")
    scale = plan.amplitude * float(plan.M) ** 6
    R = plan.support_radius
    if _phi_bound(tp, plan.amplitude) <= _PHI_SKIP:
        h1 = plan.A * scale * _chi_hat()
    else:
        h1 = _radial_hat(seed_profiles(plan, tp)[1], R)[1]
    return radial_pair_norm(scale * _chi_head(), h1, plan.lam, s, R)


def plan_smallness(plan, tp):
    """Smallness of the plan's data at Sobolev order 3: radial path for n=3,
    FFT otherwise; ResolutionError when cos(x.y) lies in the FFT grid's top
    octave."""
    if plan.n == 3:
        return radial_smallness(plan, tp, _SOBOLEV_ORDER)
    L = 2.0 * plan.support_radius * 1.25
    grid = GridSpec(n=plan.n, L=L, points=4096 if plan.n == 1 else 1024)
    k_top = math.pi / (2.0 * grid.dx)  # where the grid's top octave starts
    if math.sqrt(plan.lam) >= k_top:
        raise ResolutionError(f"the FFT grid at M={plan.M} does not resolve "
                              f"cos(x.y): sqrt(lambda) >= pi/(2 dx) = {k_top:.6g}")
    u0, u1 = make_data(plan, tp)
    return sobolev_smallness(u0, u1, _SOBOLEV_ORDER, grid)


# ---------------------------------------------------------------------------
# Exact local solution and certification
# ---------------------------------------------------------------------------

def exact_local_solution(plan, tp, m):
    """The transformed field v(t, x) inside the influence region.

    v(t,x) = G(M^-S) + A M^-S W(t) (b(t)/b(0))^{n/2} cos(x.y), valid for
    0 <= t <= M and |x| <= M^{3/2} (so the cutoff edge cannot interfere).
    W(t) solves the Hill system through a floquet.Propagator of the
    monodromy m, whose lambda and n must be the plan's; m.pot supplies b.
    Returns a callable raising ParameterError outside the valid region.
    """
    b, n = m.pot.b, m.pot.n
    if m.lam != plan.lam or n != plan.n:
        raise ParameterError("the monodromy's lambda and n must be the plan's")
    prop = floquet.Propagator(m)
    amp = plan.amplitude
    g0 = float(tp.G(np.array([amp]))[0])
    y = np.asarray(plan.y)
    b0 = b.eval(0.0)

    def v(t, x):
        x = np.asarray(x, dtype=float)
        if t < 0.0 or t > plan.M:
            raise ParameterError(f"t={t} outside the certified window [0, {plan.M}]")
        r = np.sqrt(np.sum(x * x, axis=-1))
        if np.any(r > plan.cone_radius * (1.0 + 1e-12)):
            raise ParameterError("point outside the certified influence region")
        w, _ = prop(t, (0.0, 1.0))
        scale = (b.eval(t) / b0) ** (n / 2.0)
        phase = np.cos(np.tensordot(x, y, axes=([-1], [0])))
        return g0 + plan.A * amp * w * scale * phase

    return v


@dataclass
class BlowupCertificate:
    """A certified plan with its sources: the monodromy m at the plan's
    lambda (its mu0 and b21) and the transform tp (whose finite endpoint
    tp.endpoints().target the trajectory crosses)."""

    plan: BlowupPlan
    m: "floquet.Monodromy"
    tp: "transform.TransformPair"
    smallness: float
    delta: float
    t_star: float
    predicted_v_M: float  # closed-form v(M, 0)
    trajectory: list  # [(t, v(t, 0)), ...] at integer and half-integer t

    def to_json(self):
        return json.dumps(
            {
                "S": self.plan.S,
                "M": self.plan.M,
                "A": self.plan.A,
                "lambda": self.plan.lam,
                "y": list(self.plan.y),
                "mu0": self.m.mu0,
                "b21": self.m.b21,
                "b_G": self.tp.endpoints().target,
                "t_star": self.t_star,
                "smallness": self.smallness,
                "delta": self.delta,
                "sobolev_order": _SOBOLEV_ORDER,
                "predicted_v_M": self.predicted_v_M,
                "trajectory": [[t, v] for t, v in self.trajectory],
            },
            indent=2,
        )


def certify_blowup(tp, pot, lam_range, delta, S=None, M_max=256, tol=1e-11):
    """Find the smallest M whose plan both stays under delta and crosses.

    M runs up from 1 and the first M at which the growth reaches the
    endpoint and the smallness (plan_smallness) is at most delta is taken.
    Neither is assumed monotone in M: smallness is computed at every M
    where growth holds, until one passes.  S defaults to 2n + 1/2.  The
    BlowupCertificate carries the good lambda's Monodromy and tp itself.
    Raises ParameterError, before any work, unless delta is positive and
    finite and S finite and above 2n; NotApplicableError when the
    transform has no finite endpoint (so this construction certifies
    nothing), ExhaustedSearchError when no M <= M_max works,
    ResolutionError from plan_smallness.
    """
    n = pot.n
    if S is None:
        S = 2.0 * n + 0.5
    if not 0.0 < delta < math.inf:
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    if not 2 * n < S < math.inf:
        raise ParameterError(f"decay exponent S={S} must be finite and exceed 2n={2 * n}")
    target = tp.endpoints().target
    if target is None:
        raise NotApplicableError(
            "both transform endpoints are infinite: the global-existence "
            "condition holds and no blow-up is certified"
        )
    direction = math.copysign(1.0, target)  # b > 0 > a
    if n == 1:
        # tau = int b dt turns the n = 1 mode equation into v_tautau + lam v = 0
        raise ExhaustedSearchError(
            "n = 1 has no instability interval for any b or lambda range: "
            "the trace is 2 cos(sqrt(lambda) int_0^1 b), never above 2 in "
            "absolute value", best=None)
    intervals = floquet.scan_instability(pot, lam_range, grid_points=400, tol=tol)
    if not intervals:
        raise ExhaustedSearchError(
            "no instability interval in the requested range", best=None
        )
    m = floquet.find_good_lambda(intervals, pot, tol=tol)

    def growth_ok(M):
        """True when |A M^-S W(M)| can reach from G(M^-S) to the endpoint."""
        vals = floquet.multi_period_values(m, M)
        if vals.W == 0.0:
            return False, vals, None
        term_log10 = -S * math.log10(M) + math.log10(abs(vals.W)) + vals.log10_scale
        g0 = float(tp.G(np.array([float(M) ** (-S)]))[0])
        return term_log10 >= math.log10(abs(target - g0)), vals, g0

    # ascending scan: neither growth nor smallness is assumed monotone in M
    deficit = best = None
    for M in range(1, M_max + 1):
        ok, vals, g0 = growth_ok(M)
        if not ok:
            deficit = (M, vals)
            continue
        plan = BlowupPlan(n, m.lam, S, M, A=direction * math.copysign(1.0, vals.W))
        small = plan_smallness(plan, tp)
        if small <= delta:
            break
        best = (M, small)
    else:
        if best is None:
            raise ExhaustedSearchError(
                f"growth never reaches the endpoint for M <= {M_max}",
                best=deficit,
            )
        raise ExhaustedSearchError(
            f"smallness {best[1]!r} at M={best[0]} still exceeds "
            f"delta={delta!r}", best=best
        )

    # v(t, 0) at integer and half-integer times, then first crossing; v's
    # one Propagator serves both, so X(1/2, 0) is integrated once
    v = exact_local_solution(plan, tp, m)
    origin = np.zeros(n)
    margin = abs(target) * 1e-9
    crossed = (lambda val: val >= target - margin) if direction > 0 else (
        lambda val: val <= target + margin
    )
    trajectory = []
    hit = None
    for k in range(2 * plan.M + 1):
        t = k / 2.0
        v_t = float(v(t, origin))
        trajectory.append((t, v_t))
        if hit is None and crossed(v_t):
            hit = t
    if hit is None:
        raise ExhaustedSearchError(
            "trajectory failed to cross the endpoint despite the growth "
            "estimate; numerical inconsistency", best=(plan.M, trajectory[-1][1])
        )
    lo = max(0.0, hit - 0.5)
    hi = hit
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if crossed(float(v(mid, origin))):
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    # vals and g0 are the accepted M's, from its growth check
    predicted = g0 + plan.A * plan.amplitude * vals.W * 10.0**vals.log10_scale
    return BlowupCertificate(
        plan=plan, m=m, tp=tp, smallness=small, delta=delta, t_star=hi,
        predicted_v_M=predicted, trajectory=trajectory,
    )


def torus_scenario(cert):
    """The certified scenario on a 1-D torus, as (grid, u0, u1).

    The data are the plan's plane wave without the cutoff: u0 = M^-S and
    u1 = A M^-S exp(-Phi(M^-S)) cos(sqrt(lambda) x) on one wavelength
    L = 2 pi / sqrt(lambda) at 1024 points.  dt = 1/ceil(1/(0.45 dx / max b))
    divides each period into whole steps, and the run ends at
    min(M, ceil(1.2 t_star)).  Evolve with cert.m.pot and cert.tp.
    """
    plan = cert.plan
    L, points = 2.0 * math.pi / math.sqrt(plan.lam), 1024
    dt = 1.0 / math.ceil(1.0 / (0.45 * (L / points) / max_b(cert.m.pot.b)))
    grid = GridSpec(n=1, L=L, points=points, dt=dt,
                    t_end=min(plan.M, math.ceil(cert.t_star * 1.2)))
    x = grid.axis()
    amp = plan.amplitude
    u0 = np.full_like(x, amp)
    u1 = plan.A * amp * math.exp(-cert.tp.Phi(amp)) * np.cos(math.sqrt(plan.lam) * x)
    return grid, u0, u1
