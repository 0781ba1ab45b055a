"""Blow-up certificates from Floquet instability plus a finite endpoint.

The construction: pick a spectral parameter inside an instability interval,
seed arbitrarily small data supported on a ball of radius 2M^2, and follow
the exact local solution of the transformed linear equation.  If the
transform G has a finite endpoint, the exponentially growing Floquet mode
pushes G(u) across it before the light cone from the data's edge reaches
the origin, so the solution cannot continue smoothly.

Everything here is checked numerics, not proof: Sobolev norms are computed
on one radial path for n = 2 and n = 3 (a sine transform for n = 3, a
cosine transform of the projection for n = 2) and the crossing time is
located on the actual fundamental solution.
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

_RADIAL_STEPS = 4096  # r steps on [0, R] for the radial transform
_RADIAL_PAD = 8  # ... which runs over [0, 8R], zero beyond R
_PROJECTION_STEPS = 256  # z steps on [0, R] for the n = 2 projection
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
    def hat_scale(self):
        """M^-S M^{2n}: the radial transform of M^-S chi(r / M^2) over chi's
        on the M = 1 grid."""
        return self.amplitude * float(self.M) ** (2 * self.n)

    @property
    def support_radius(self):
        return 2.0 * self.M**2

    @property
    def cone_radius(self):
        """Radius of the backward light-cone base kept inside the support."""
        return float(self.M) ** 1.5


# ---------------------------------------------------------------------------
# Sobolev smallness
# ---------------------------------------------------------------------------

def _radial_hat(g, R, n):
    """Fourier transform g_hat(rho) of the radial field g(|x|) on R^n, for
    n = 2 or 3.

    g is supported in [0, R] and sampled at steps h = R / 4096, zero-padded
    to [0, 8R], so g_hat lands on rho_k = pi k / (8R), k = 0 .. 8*4096 - 1.
    n = 3: g_hat(rho) = (4 pi / rho) Int g(r) r sin(rho r) dr; r g(r) at
    r_j = j h (j = 1..4096) goes through one type-I sine transform, giving
    g_hat(rho_k) = (4 pi h / rho_k) sum_j g(r_j) r_j sin(rho_k r_j), with
    g_hat(0) = 4 pi h sum_j g(r_j) r_j^2.
    n = 2: by the projection-slice theorem g_hat(rho) = 2 Int P(x) cos(rho x)
    dx over the projection P(x) = 2 Int_0^R g(sqrt(x^2 + z^2)) dz, taken at
    x_j = j h (j = 0..4096) by the 256-step trapezoid rule in z; one type-I
    cosine transform, an rfft of P's even extension, gives g_hat(rho_k).
    Each sum is the trapezoid rule for its integral, which converges
    exponentially for smooth compactly supported g, and in z for the even
    integrand (Trefethen & Weideman, SIAM Review 56, 2014).
    Returns (rho, g_hat).
    """
    size = _RADIAL_PAD * _RADIAL_STEPS
    h = R / _RADIAL_STEPS
    rho = np.pi / (_RADIAL_PAD * R) * np.arange(size)
    if n == 2:
        x = h * np.arange(_RADIAL_STEPS + 1)
        z = R / _PROJECTION_STEPS * np.arange(_PROJECTION_STEPS)
        w = np.full(z.size, 2.0 * R / _PROJECTION_STEPS)
        w[0] /= 2.0
        proj = g(np.hypot(x[:, None], z)) @ w
        even = np.zeros(2 * size)
        even[: x.size] = proj
        even[-_RADIAL_STEPS:] = proj[:0:-1]
        return rho, h * np.fft.rfft(even).real[:size]
    r = h * np.arange(1, _RADIAL_STEPS + 1)
    gr = np.zeros(size - 1)
    gr[:_RADIAL_STEPS] = g(r) * r
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


def _sphere_mean_weight(s, a, bcoef, n):
    """Average of (a + b cos theta)^s over the unit sphere S^{n-1}, theta
    the angle to a fixed axis, for integer s >= 0 (else ParameterError)
    and a >= b >= 0: a^s sum_j C(s, 2j) c_j (b/a)^{2j} by Horner's rule,
    with c_j = 1 3 ... (2j-1) / (n (n+2) ... (n+2j-2)) the sphere mean of
    cos^{2j} theta: 1/(2j+1) for n = 3, C(2j, j)/4^j for n = 2 (Folland,
    Amer. Math. Monthly 108, 2001).  No term is negative, so nothing
    cancels, and the sum is at least its j = 0 term a^s.
    """
    if not (s >= 0 and float(s).is_integer()):
        raise ParameterError(f"the sphere mean needs an integer s >= 0, got {s}")
    total, ratio_sq = 0.0, (bcoef / a) ** 2
    for j in range(int(s) // 2, -1, -1):
        coef = math.comb(int(s), 2 * j) * math.prod(range(1, 2 * j, 2))
        total = total * ratio_sq + coef / math.prod(range(n, n + 2 * j, 2))
    return a**s * total


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
def _chi_hat(n, k):
    """The R^n radial transform of chi T_k(2 chi - 1), T_k the Chebyshev
    polynomial, on the M = 1 grid (R = 2), made once per process: every plan
    samples chi at the same points 2j/4096.  k = 0 is chi's own."""
    from numpy.polynomial import Chebyshev

    def term(r):
        c = chi_radial(r)
        return c * Chebyshev.basis(k)(2.0 * c - 1.0)

    hat = _radial_hat(chi_radial if k == 0 else term, 2.0, n)[1]
    hat.flags.writeable = False
    return hat


def _exp_phi_series(tp, amp):
    """Chebyshev coefficients a_k of exp(-Phi(amp c)) = sum_k a_k T_k(2c - 1)
    on c in [0, 1], interpolated at degree 4, 8, 16 or 32, the first whose
    last two lie below 1e-14 of the largest (the interpolation's own
    rounding is about 1e-15 at degree 16); ResolutionError past degree 32."""
    from numpy.polynomial.chebyshev import chebinterpolate

    def factor(x):
        return np.exp(-tp.Phi(amp * (x + 1.0) / 2.0))

    for deg in (4, 8, 16, 32):
        a = chebinterpolate(factor, deg)
        if np.max(np.abs(a[-2:])) <= 1e-14 * np.max(np.abs(a)):
            return a
    raise ResolutionError(
        f"exp(-Phi) on [0, {amp:.6g}] needs a Chebyshev degree above {deg}")


def _shell_unit(n):
    """(2 pi)^-n |S^{n-1}|, with |S^1| = 2 pi and |S^2| = 4 pi."""
    return (2.0 * np.pi) ** -n * (2.0 * np.pi * (n - 1))


def radial_pair_floor(head, lam, s, n):
    """A lower bound floor(scale, R) on radial_pair_norm(scale head,
    +-scale hat, lam, s, R, n), where head is the radial_head of hat and
    s is an integer >= 0: the phi-skip case of plan_smallness.

    It is radial_pair_norm's own sum with (1 + rho^2)^{s+1} >= 1 dropped,
    the cross term (>= 0) dropped, and the sphere mean of
    (1 + lam + rho^2 + 2 sqrt(lam) rho cos theta)^s bounded below by
    (1 + lam)^s: the mean's sum (_sphere_mean_weight) is at least its
    j = 0 term, since a = 1 + lam + rho^2 >= 1 + lam.  With rho_k = k step
    and step = pi / (8R), what is left is
        floor = scale step^{n/2} sqrt(C) (sqrt(unit) + sqrt(unit/2 (1 + lam)^s)),
    C = sum_k w_k head_k^2 k^{n-1} with w the Simpson pattern [1, 4, 2,
    ..., 4, 1] / 3, computed here once.
    """
    k = np.arange(head.size, dtype=float)
    c = float(_simpson_weights(head.size, 1.0) @ (head * head * k ** (n - 1)))
    unit = _shell_unit(n)
    root = math.sqrt(c) * (math.sqrt(unit) + math.sqrt(unit / 2.0 * (1.0 + lam) ** s))

    def floor(scale, R):
        return scale * (np.pi / (_RADIAL_PAD * R)) ** (n / 2.0) * root

    return floor


def radial_pair_norm(h0, h1, lam, s, R, n):
    """H^{s+1} x H^s norm sum for (g0(|x|), g1(|x|) cos(x.y)) on R^n, n = 2
    or 3.

    |y|^2 = lam; both fields are supported in |x| <= R.  h0 is g0's
    radial_head, whose length sets the cut of every rho integral, and h1
    is g1's whole radial transform (_radial_hat's, on rho_k = pi k / (8R)).
    Each Sobolev integral reduces to a one-dimensional Simpson quadrature
    against the shell measure |S^{n-1}| rho^{n-1} d rho: g0 via the radial
    transform directly, the modulated g1 via the average of (1 + |xi|^2)^s
    over spheres (the shift by +-y enters through its exact binomial sum,
    _sphere_mean_weight); the hat-g1(|xi-y|) hat-g1(|xi+y|) cross term is
    bounded by max|hat g1| times the same quadrature and added.

    The cross-term supremum is 1.5 max|hat g1| from the last grid point at
    or below |y| onward, or over the top sixteenth of the grid when |y|
    lies beyond it.
    """
    step = np.pi / (_RADIAL_PAD * R)
    # the cross term's far factor (below) reads the whole transform
    k_far = int(math.sqrt(lam) / step)
    far = h1[k_far:] if k_far < h1.size else h1[-h1.size // 16 :]
    far_sup = 1.5 * float(np.max(np.abs(far)))
    rho, h1 = step * np.arange(h0.size), h1[: h0.size]
    weights = _simpson_weights(h0.size, step)

    def shell(v):
        """v rho^{n-1}, one factor of rho at a time (the frozen n = 3 order)."""
        for _ in range(n - 1):
            v = v * rho
        return v

    unit = _shell_unit(n)
    # ||u0||_{s+1}^2 = (2pi)^-n |S^{n-1}| Int (1+rho^2)^{s+1} h0^2 rho^{n-1} d rho
    norm0_sq = unit * float(weights @ shell((1.0 + rho * rho) ** (s + 1.0) * h0 * h0))
    # ||u1||_s^2: hat u1(xi) = (h1(|xi - y|) + h1(|xi + y|)) / 2
    ang = _sphere_mean_weight(s, 1.0 + lam + rho * rho, 2.0 * math.sqrt(lam) * rho, n)
    # the two |h1(|xi -+ y|)|^2/4 terms are equal by symmetry; each gives
    # (1/4) Int h1(r)^2 |S^{n-1}| r^{n-1} ang(r) dr after the sphere average
    main = unit / 2.0 * float(weights @ (shell(h1 * h1) * ang))
    # cross term 2 h1(|xi-y|) h1(|xi+y|)/4: at every xi one of |xi -+ y| is
    # >= |y|, so that factor is bounded by the hat-g1 supremum beyond |y|
    # (with a safety factor); the other integrates against the weight
    cross_bound = unit * far_sup * float(weights @ (shell(np.abs(h1)) * ang))
    return math.sqrt(norm0_sq) + math.sqrt(main + cross_bound)


def plan_smallness(plan, tp, s=_SOBOLEV_ORDER):
    """||u0||_{H^{s+1}} + ||u1||_{H^s} of the plan's data
    (g0(|x|), g1(|x|) cos(x.y)), for n = 2 or 3.

    g0 = M^-S chi(r / M^2) is sampled at r / M^2 = 2j/4096 for every M, so
    its transform is M^-S M^{2n} times chi's on the M = 1 grid, made once
    per process (_chi_hat).  g1 = A g0 exp(-Phi(g0)) takes A times that
    transform when tp.phi_bound proves |Phi(g0)| <= 2^-60, which makes the
    factor 1 to a relative 1e-18 (f(0) = 0 and M large enough).  Otherwise
    exp(-Phi(M^-S c)) = sum_k a_k T_k(2c - 1) in c = chi (_exp_phi_series),
    and g1's transform is A M^-S M^{2n} sum_k a_k times the cached
    transforms of chi T_k(2 chi - 1).
    """
    n = plan.n
    if n not in (2, 3):
        raise ParameterError(f"radial smallness is for n = 2 or 3, got n = {n}")
    scale = plan.hat_scale
    if tp.phi_bound(plan.amplitude) <= _PHI_SKIP:
        h1 = plan.A * scale * _chi_hat(n, 0)
    else:
        series = _exp_phi_series(tp, plan.amplitude)
        h1 = plan.A * scale * sum(a * _chi_hat(n, k) for k, a in enumerate(series))
    h0 = scale * radial_head(_chi_hat(n, 0))
    return radial_pair_norm(h0, h1, plan.lam, s, plan.support_radius, n)


# ---------------------------------------------------------------------------
# Exact local solution and certification
# ---------------------------------------------------------------------------

def exact_local_solution(plan, tp, m):
    """The transformed field v(t, x) inside the influence region.

    v(t,x) = G(M^-S) + A M^-S W(t) (b(t)/b(0))^{n/2} cos(x.y), valid for
    0 <= t <= M and |x| <= M^{3/2} (so the cutoff edge cannot interfere).
    W(t) solves the Hill system through a floquet.Propagator of the
    monodromy m, whose lambda and n must be the plan's; m.pot supplies b.
    Returns a callable v(t, x) for an array of t with one point x, or one
    t with an array of points, that checks the region once per call and
    raises ParameterError (naming the first t outside) beyond it.
    Its attribute dt(t, x) is the time derivative
    A M^-S (b(t)/b(0))^{n/2} cos(x.y) (W'(t) + (n/2) (b'(t)/b(t)) W(t)),
    with W' from the same propagated solution.
    """
    b, n = m.pot.b, m.pot.n
    if m.lam != plan.lam or n != plan.n:
        raise ParameterError("the monodromy's lambda and n must be the plan's")
    prop = floquet.Propagator(m)
    amp = plan.amplitude
    g0 = float(tp.G(np.array([amp]))[0])
    y = np.asarray(plan.y)
    b0 = b.eval(0.0)

    def mode(t, x):
        """(W, W', b(t), (b(t)/b(0))^{n/2}, cos(x.y)) inside the region."""
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        outside = ~((t >= 0.0) & (t <= plan.M))
        if outside.any():
            raise ParameterError(f"t={np.extract(outside, t)[0]} outside the "
                                 f"certified window [0, {plan.M}]")
        if (np.sqrt((x * x).sum(axis=-1)) > plan.cone_radius * (1.0 + 1e-12)).any():
            raise ParameterError("point outside the certified influence region")
        w, w_t = prop(t, (0.0, 1.0))
        bt = b.eval(t)
        return w, w_t, bt, (bt / b0) ** (n / 2.0), np.cos(x @ y)

    def v(t, x):
        w, _, _, scale, phase = mode(t, x)
        return g0 + plan.A * amp * w * scale * phase

    def dt(t, x):
        w, w_t, bt, scale, phase = mode(t, x)
        return plan.A * amp * scale * phase * (w_t + (n / 2.0) * (b.d1(t) / bt) * w)

    v.dt = dt
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

    The good lambda is find_good_lambda's on the 400-point grid of
    lam_range.  M runs up from 1 and the first M at which the growth
    reaches the endpoint and the smallness (plan_smallness) is at most
    delta is taken.  Neither is assumed monotone in M: smallness is
    computed at every M where growth holds, until one passes, except where
    the data are on the phi-skip path and radial_pair_floor's lower bound
    already exceeds delta (1 + 1e-9); a failed search computes it at the
    last M where growth holds.  G(M^-S) for every M <= M_max comes from
    one call to tp.G before the scan.  t_star is the first
    crossing of the endpoint (within 1e-9 |b_G|) by v(t, 0) of
    exact_local_solution: the first crossed half-integer t of the
    trajectory brackets it with t - 1/2, and safeguarded Newton steps with
    the slope v.dt narrow that bracket to 1e-12 max(1, t_star); t_star is
    its crossed end.  S defaults to 2n + 1/2.  The BlowupCertificate
    carries the good lambda's Monodromy and tp itself.
    Raises ParameterError, before any work, unless delta is positive and
    finite, S finite and above 2n, and n at most 3; NotApplicableError when the
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
    if n > 3:
        raise ParameterError(f"blow-up certificates are for n <= 3, got n = {n}")
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
    m = floquet.find_good_lambda(pot, floquet.scan_grid(lam_range, 400), tol=tol)
    # G(M^-S) for every M in one call; G is elementwise, so each value is
    # the one a call at that M alone gives
    g0s = tp.G(np.array([float(M) ** (-S) for M in range(1, M_max + 1)]))

    def growth_ok(M):
        """True when |A M^-S W(M)| can reach from G(M^-S) to the endpoint."""
        vals = floquet.multi_period_values(m, M)
        if vals.W == 0.0:
            return False, vals, None
        term_log10 = -S * math.log10(M) + math.log10(abs(vals.W)) + vals.log10_scale
        g0 = float(g0s[M - 1])
        return term_log10 >= math.log10(abs(target - g0)), vals, g0

    # ascending scan: neither growth nor smallness is assumed monotone in M;
    # on the phi-skip path an M whose floor already exceeds delta is skipped
    deficit = plan = small = floor = None
    for M in range(1, M_max + 1):
        ok, vals, g0 = growth_ok(M)
        if not ok:
            deficit = (M, vals)
            continue
        plan = BlowupPlan(n, m.lam, S, M, A=direction * math.copysign(1.0, vals.W))
        # phi_bound grows with M^-S, so once the data are on the phi-skip
        # path (floor made) every larger M is too
        if floor is not None or tp.phi_bound(plan.amplitude) <= _PHI_SKIP:
            if floor is None:  # radial_head raises here as plan_smallness would
                floor = radial_pair_floor(radial_head(_chi_hat(n, 0)), m.lam,
                                          _SOBOLEV_ORDER, n)
            if floor(plan.hat_scale, plan.support_radius) > delta * (1.0 + 1e-9):
                small = None
                continue
        small = plan_smallness(plan, tp)
        if small <= delta:
            break
    else:
        if plan is None:
            raise ExhaustedSearchError(
                f"growth never reaches the endpoint for M <= {M_max}",
                best=deficit,
            )
        # plan is the last M where growth holds
        small = plan_smallness(plan, tp) if small is None else small
        raise ExhaustedSearchError(
            f"smallness {small!r} at M={plan.M} still exceeds "
            f"delta={delta!r}", best=(plan.M, small)
        )

    # v(t, 0) at every half-integer time in one call, then first crossing;
    # v's one Propagator serves both, so X(1/2, 0) is integrated once
    v = exact_local_solution(plan, tp, m)
    origin = np.zeros(n)
    margin = abs(target) * 1e-9
    crossed = (lambda val: val >= target - margin) if direction > 0 else (
        lambda val: val <= target + margin
    )
    times = np.arange(2 * plan.M + 1) / 2.0
    trajectory = list(zip(times.tolist(), v(times, origin).tolist()))
    hit = next((t for t, val in trajectory if crossed(val)), None)
    if hit is None:
        raise ExhaustedSearchError(
            "trajectory failed to cross the endpoint despite the growth "
            "estimate; numerical inconsistency", best=(plan.M, trajectory[-1][1])
        )
    # t* in [hit - 1/2, hit] by safeguarded Newton on v(t, 0) = level with
    # slope v.dt (rtsafe: Press et al., Numerical Recipes, 9.4): a step
    # that leaves the bracket becomes its midpoint, and one shorter than
    # half the stopping width goes half a width past its point, so that the
    # probe lands beyond the crossing and closes the bracket
    level = target - direction * margin
    lo, hi = max(0.0, hit - 0.5), hit
    t = hi
    for _ in range(60):
        val = float(v(t, origin))
        if crossed(val):
            hi = t
        else:
            lo = t
        width = 1e-12 * max(1.0, hi)
        if hi - lo < width:
            break
        slope = float(v.dt(t, origin))
        step = (val - level) / slope if slope else math.inf
        if abs(step) < width / 2.0:
            step += math.copysign(width / 2.0, step)
        t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
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
    grid = GridSpec(L=L, points=points, dt=dt,
                    t_end=min(plan.M, math.ceil(cert.t_star * 1.2)))
    x = grid.axis()
    amp = plan.amplitude
    u0 = np.full_like(x, amp)
    u1 = plan.A * amp * math.exp(-cert.tp.Phi(amp)) * np.cos(math.sqrt(plan.lam) * x)
    return grid, u0, u1
