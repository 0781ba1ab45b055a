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
import numbers
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
        if not (self.M >= 1 and float(self.M).is_integer()):
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
    n = 2 or 3; any other n is a ParameterError (_shell_unit).

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
    _shell_unit(n)
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


def _sphere_mean_weight(s, n):
    """The moments C(s, 2j) c_j, j <= s/2, of the mean of (1 + beta cos
    theta)^s over S^{n-1} (theta the angle to an axis) at beta^{2j}, for
    integer s >= 0 (else ParameterError): c_j = 1 3 ... (2j-1) / (n (n+2)
    ... (n+2j-2)), the mean of cos^{2j} theta, is 1/(2j+1) for n = 3 and
    C(2j, j)/4^j for n = 2 (Folland, Amer. Math. Monthly 108, 2001).  None
    is negative, so nothing cancels."""
    if not (s >= 0 and float(s).is_integer()):
        raise ParameterError(f"the sphere mean needs an integer s >= 0, got {s}")
    return [math.comb(int(s), 2 * j) * math.prod(range(1, 2 * j, 2))
            / math.prod(range(n, n + 2 * j, 2)) for j in range(int(s) // 2 + 1)]


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
    """(2 pi)^-n |S^{n-1}|, with |S^1| = 2 pi and |S^2| = 4 pi: the radial
    smallness is for n = 2 or 3, and any other n is a ParameterError."""
    if n not in (2, 3):
        raise ParameterError(f"radial smallness is for n = 2 or 3, got n = {n}")
    return (2.0 * np.pi) ** -n * (2.0 * np.pi * (n - 1))


@functools.cache
def _sum_weights(size, n, lam, s):
    """_pair_sums' factors, which no profile enters, once per (size, n, lam,
    s): w_k k^{n-1}, the rows (k pi/16)^{2j}, j <= s + 1, and the s + 2
    coefficients in x of (1 + rho^2)^{s+1} and of the sphere mean
    sum_i C(s, 2i) c_i (1 + lam + rho^2)^{s-2i} (4 lam rho^2)^i."""
    from numpy.polynomial import Polynomial

    moments = _sphere_mean_weight(s, n)
    k = np.arange(size, dtype=float)
    w = _simpson_weights(size, 1.0) * k ** (n - 1)
    powers = ((k * np.pi / 16.0) ** 2) ** np.arange(int(s) + 2)[:, None]
    shift, mod = Polynomial([1.0 + lam, 1.0]), Polynomial([0.0, 4.0 * lam])
    ang = sum(coef * shift ** int(s - 2 * i) * mod**i for i, coef in enumerate(moments))
    ang = np.append(ang.coef, 0.0)  # a zero top coefficient leaves Horner's rule exact
    return w, powers, (Polynomial([1.0, 1.0]) ** int(s + 1)).coef, ang


def _pair_sums(h0, h1, lam, s, n):
    """radial_pair_norm's g0, g1 and cross sums as polynomials in x = (2/R)^2
    (columns a, b, c), with rho_k^2 = (k pi/16)^2 x: the coefficient of x^j
    is the moment sum_k w_k k^{n-1} (k pi/16)^{2j} of h0_k^2 (h1_k^2, |h1_k|)
    up to h0's length, the cut, times the x^j coefficient of (1 +
    rho^2)^{s+1} (of the sphere mean); no term is negative."""
    w, powers, grow, ang = _sum_weights(h0.size, n, lam, s)
    h1 = h1[: h0.size]
    # np.sum's pairwise order keeps each sum within about an eps of exact
    sq0 = (powers * (w * h0 * h0)).sum(axis=1)
    sq1 = (powers * (w * h1 * h1)).sum(axis=1)
    ab1 = (powers * np.abs(w * h1)).sum(axis=1)
    return np.stack([grow * sq0, ang * sq1, ang * ab1], axis=1)


def _pair_norm(coefs, x, far, scale, unit, R, n):
    """scale (pi/8R)^{n/2} (sqrt(unit a) + sqrt(unit/2 b + unit 1.5 far c)),
    _pair_sums' a, b, c at x: the norm sum for transforms scale h0, scale h1,
    far the maximum of |h1| from _far_index on, unit = _shell_unit(n)."""
    from numpy.polynomial.polynomial import polyval

    a, b, c = polyval(x, coefs)
    root = math.sqrt(unit * a) + math.sqrt(unit / 2.0 * b + unit * (1.5 * far) * c)
    return scale * (np.pi / (_RADIAL_PAD * R)) ** (n / 2.0) * root


def radial_pair_norm(h0, h1, lam, s, R, n):
    """H^{s+1} x H^s norm sum for (g0(|x|), g1(|x|) cos(x.y)) on R^n, n = 2
    or 3 (else ParameterError).

    |y|^2 = lam; both fields are supported in |x| <= R.  h0 is g0's
    radial_head, whose length sets the cut of every rho integral, and h1
    is g1's whole radial transform (_radial_hat's, on rho_k = pi k / (8R)).
    Each Sobolev integral reduces to a one-dimensional Simpson quadrature
    against the shell measure |S^{n-1}| rho^{n-1} d rho: g0 via the radial
    transform directly, the modulated g1 via the average of (1 + |xi|^2)^s
    over spheres (the shift by +-y enters through its exact binomial sum,
    _sphere_mean_weight); the hat-g1(|xi-y|) hat-g1(|xi+y|) cross term is
    bounded by 1.5 max|hat g1| (from _far_index on), as one of |xi -+ y|
    is at least |y|, times the same quadrature and added.  The quadratures
    are _pair_sums' polynomials in x = (2/R)^2, read by _pair_norm.
    """
    unit = _shell_unit(n)
    far = float(np.max(np.abs(h1[_far_index(lam, R, h1.size):])))
    return _pair_norm(_pair_sums(h0, h1, lam, s, n), (2.0 / R) ** 2, far, 1.0, unit, R, n)


def _far_index(lam, R, size):
    """The cross term's far factor starts at the last rho_k = pi k / (8R)
    <= sqrt(lam), or the top sixteenth past the transform's `size`."""
    k = int(math.sqrt(lam) / (np.pi / (_RADIAL_PAD * R)))
    return k if k < size else size - size // 16


@functools.cache
def _skip_polynomial(n, lam, s):
    """_pair_sums of chi's transform on the phi-skip path, made once per
    (n, lam, s), and the suffix maximum of |chi_hat| for the far factor."""
    hat = _chi_hat(n, 0)
    head = radial_head(hat)
    return _pair_sums(head, head, lam, s, n), np.maximum.accumulate(np.abs(hat)[::-1])[::-1]


def plan_smallness(plan, tp, s=_SOBOLEV_ORDER):
    """||u0||_{H^{s+1}} + ||u1||_{H^s} of the plan's data
    (g0(|x|), g1(|x|) cos(x.y)), for n = 2 or 3 (else ParameterError, before
    any transform).

    g0 = M^-S chi(r / M^2) is sampled at r / M^2 = 2j/4096 for every M, so
    its transform is M^-S M^{2n} times chi's on the M = 1 grid, made once
    per process (_chi_hat).  g1 = A g0 exp(-Phi(g0)) takes A times that
    transform when tp.phi_bound proves |Phi(g0)| <= 2^-60, which makes the
    factor 1 to a relative 1e-18 (f(0) = 0 and M large enough); otherwise
    exp(-Phi(M^-S c)) = sum_k a_k T_k(2c - 1) in c = chi (_exp_phi_series),
    and g1's transform is A M^-S M^{2n} sum_k a_k times the cached
    transforms of chi T_k(2 chi - 1).  Either way the smallness is
    M^{n-S} (pi/16)^{n/2} (sqrt(unit a) + sqrt(unit/2 b + unit 1.5 far_M c)),
    unit = (2 pi)^-n |S^{n-1}|, with _pair_sums' a, b, c of the M = 1
    transforms at x = M^-4 = (2/R)^2 and far_M their far factor
    (_pair_norm).  On the phi-skip path they are chi's, made once per (n,
    lam, s), so it falls with M (S > 2n, no coefficient negative) except
    where far_M rises: once at most, where _far_index passes the
    transform's end (M = 45 at the reference lambda, n = 3).
    """
    n, lam, R, scale = plan.n, plan.lam, plan.support_radius, plan.hat_scale
    unit = _shell_unit(n)  # refuses any n but 2 and 3 before a transform
    if tp.phi_bound(plan.amplitude) <= _PHI_SKIP:
        coefs, far = _skip_polynomial(n, lam, s)
        far = float(far[_far_index(lam, R, far.size)])
        return _pair_norm(coefs, float(plan.M) ** -4, far, scale, unit, R, n)
    series = _exp_phi_series(tp, plan.amplitude)
    h1 = plan.A * sum(a * _chi_hat(n, k) for k, a in enumerate(series))
    return scale * radial_pair_norm(radial_head(_chi_hat(n, 0)), h1, lam, s, R, n)


# ---------------------------------------------------------------------------
# Exact local solution and certification
# ---------------------------------------------------------------------------

def exact_local_solution(plan, tp, m):
    """The transformed field v(t, x) inside the influence region.

    v(t,x) = G(M^-S) + A M^-S W(t) (b(t)/b(0))^{n/2} cos(x.y), valid for
    0 <= t <= M and |x| <= M^{3/2} (so the cutoff edge cannot interfere).
    W(t) solves the Hill system through a floquet.Propagator of the
    monodromy m (whole periods by floquet.periods, as certify_blowup's
    W(M)), whose lambda and n must be the plan's; m.pot supplies b.
    Returns a callable v(t, x) for an array of t with one point x, or one
    t with an array of points, that checks the region once per call and
    raises ParameterError (naming the first t outside) beyond it.
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
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        outside = ~((t >= 0.0) & (t <= plan.M))
        if outside.any():
            raise ParameterError(f"t={np.extract(outside, t)[0]} outside the "
                                 f"certified window [0, {plan.M}]")
        if (np.sqrt((x * x).sum(axis=-1)) > plan.cone_radius * (1.0 + 1e-12)).any():
            raise ParameterError("point outside the certified influence region")
        w = prop(t, (0.0, 1.0))[0]
        return g0 + plan.A * amp * w * (b.eval(t) / b0) ** (n / 2.0) * np.cos(x @ y)

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
    predicted_v_M: float  # v(M, 0) from the scan's W(M) = 10^e w (floquet.periods)
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
    lam_range.  M runs up from 1 and the first M at which the growth reaches
    the endpoint and the smallness (plan_smallness) is at most delta is
    taken.  Neither is assumed monotone in M: the smallness is computed at
    every M where growth holds, until one passes, and a failed search
    reports the last one.  G(M^-S) for every M <= M_max comes from one call
    to tp.G before the scan.  t_star is the first crossing of the endpoint
    (within 1e-9 |b_G|) by v(t, 0) of exact_local_solution: the first
    crossed half-integer t of the trajectory brackets it with t - 1/2, and
    each pass of a section search evaluates v at the 63 inner points of 64
    equal parts of the bracket in one call and keeps the part that ends at
    the first crossed one, until the bracket is below 1e-12 max(1, t_star);
    t_star is its crossed end.  S defaults to 2n + 1/2.  The
    BlowupCertificate carries the good lambda's Monodromy and tp itself.
    Raises ParameterError, before any work, unless delta is positive and
    finite, S finite and above 2n, M_max a positive integer and n at most
    3; NotApplicableError when the transform has no finite endpoint (so
    this construction certifies nothing), ExhaustedSearchError when no
    M <= M_max works, ResolutionError from plan_smallness.
    """
    n = pot.n
    if S is None:
        S = 2.0 * n + 0.5
    if not 0.0 < delta < math.inf:
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    if not 2 * n < S < math.inf:
        raise ParameterError(f"decay exponent S={S} must be finite and exceed 2n={2 * n}")
    if not (isinstance(M_max, numbers.Integral) and M_max >= 1):
        raise ParameterError(f"M_max must be a positive integer, got {M_max!r}")
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
    # W(M) = 10^e w for every M in one call, the W of the trajectory too
    ws, _, es = floquet.periods(m, np.arange(1, M_max + 1), (0.0, 1.0))

    plan = small = None
    for M in range(1, M_max + 1):
        # growth holds when |A M^-S W(M)| can reach from G(M^-S) to the endpoint
        w, e, g0 = float(ws[M - 1]), int(es[M - 1]), float(g0s[M - 1])
        if w == 0.0 or not (-S * math.log10(M) + math.log10(abs(w)) + e
                            >= math.log10(abs(target - g0))):
            continue
        plan = BlowupPlan(n, m.lam, S, M, A=direction * math.copysign(1.0, w))
        small = plan_smallness(plan, tp)
        if small <= delta:
            break
    else:
        if plan is None:
            raise ExhaustedSearchError(
                f"growth never reaches the endpoint for M <= {M_max}",
                best=(M_max, math.log10(abs(ws[-1])) + int(es[-1])),
            )
        # plan and small are the last M's where growth holds
        raise ExhaustedSearchError(
            f"smallness {small!r} at M={plan.M} still exceeds "
            f"delta={delta!r}", best=(plan.M, small)
        )

    # v(t, 0) at every half-integer time in one call, then first crossing
    v = exact_local_solution(plan, tp, m)
    origin = np.zeros(n)
    # one signed test for both directions: negation is exact
    level = direction * target - abs(target) * 1e-9
    crossed = lambda val: direction * val >= level
    times = np.arange(2 * plan.M + 1) / 2.0
    trajectory = list(zip(times.tolist(), v(times, origin).tolist()))
    hit = next((t for t, val in trajectory if crossed(val)), None)
    if hit is None:
        raise ExhaustedSearchError(
            "trajectory failed to cross the endpoint despite the growth "
            "estimate; numerical inconsistency", best=(plan.M, trajectory[-1][1])
        )
    # t* in [hit - 1/2, hit] by sections: only inner points are evaluated,
    # so lo stays uncrossed and hi crossed
    lo, hi = max(0.0, hit - 0.5), hit
    while hi - lo >= 1e-12 * max(1.0, hi):
        ends = np.linspace(lo, hi, 65)
        i = int(np.argmax(np.append(crossed(v(ends[1:-1], origin)), True)))
        lo, hi = float(ends[i]), float(ends[i + 1])
    # w, e and g0 are the accepted M's
    predicted = g0 + plan.A * plan.amplitude * w * 10.0**e
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
