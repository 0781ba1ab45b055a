"""Floquet analysis of the Hill equation y'' + (lambda*alpha(t) - q(t)) y = 0.

The state vector is x = (w_t, w), so the one-period map X(1,0) has
b21 = w(1) for initial data w(0) = 0, w_t(0) = 1.  Every map X(t, 0) comes
from `_fundamental`: sixth-order Magnus steps with a closed-form 2x2
exponential (det X = 1 by construction).  A step-count controller gives
each lambda as many steps as its Richardson error estimate predicts it
needs, so a lambda's map does not depend on how a scan is batched.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExhaustedSearchError, IntegrationFailure, ParameterError
from .output import csv_text, write_atomic

_B21_MIN = 1e-6
_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)  # Gauss nodes
_MAX_STEPS = 2**14  # a map still above tol here counts as unresolved
_BLOCK = 2**13  # (step, lambda) pairs advanced together
_BOUNDARY_TOL = 1e-9  # |trace| this close to 2 is the boundary class


@dataclass(frozen=True)
class Monodromy:
    """One-period map X(1,0) of the Hill system at lambda, with the potential
    pot and the tol it was integrated with; ParameterError unless
    |det - 1| < 1e-6.  For |trace| > 2 the multipliers are sign*mu0 and
    sign/mu0 with mu0 > 1.
    """

    b11: float
    b12: float
    b21: float
    b22: float
    lam: float
    pot: "coeffs.HillPotential"
    tol: float

    def __post_init__(self):
        if not abs(self.det - 1.0) < 1e-6:
            raise ParameterError(f"monodromy determinant {self.det!r} too far from 1")

    @property
    def det(self):
        return self.b11 * self.b22 - self.b12 * self.b21

    @property
    def trace(self):
        return self.b11 + self.b22

    @property
    def matrix(self):
        return np.array([[self.b11, self.b12], [self.b21, self.b22]])

    @property
    def kind(self):
        """'stable', 'unstable' or 'boundary': the class of the trace."""
        return _trace_class(self.trace)

    @property
    def mu0(self):
        """Spectral radius: 1 unless |trace| > 2 (then the expanding one)."""
        tr = self.trace
        return (abs(tr) + math.sqrt(tr * tr - 4.0)) / 2.0 if abs(tr) > 2.0 else 1.0

    @property
    def sign(self):
        """The common sign of both multipliers when they are real."""
        return 1 if self.trace > 0 else -1

    @property
    def expanding(self):
        """The signed expanding multiplier sign * mu0."""
        return self.sign * self.mu0


@dataclass(frozen=True)
class InstabilityInterval:
    lambda_lo: float
    lambda_hi: float
    max_abs_trace: float
    witness_lambda: float


def check_tol(tol):
    """Return tol; ParameterError unless it lies in [1e-13, 1e-6]."""
    if not 1e-13 <= tol <= 1e-6:
        raise ParameterError(f"tol must lie in [1e-13, 1e-6], got {tol}")
    return tol


def _fundamental(pot, lams, t1, tol):
    """X(t1, 0) per lambda in lams, shape (len(lams), 2, 2).

    A step-count controller (Hairer, Norsett & Wanner, Solving ODEs I, II.4)
    starts each lambda from (C, N) = (16, 64) Magnus steps and accepts X_N
    when the sixth-order Richardson estimate err = max|X_N - X_C| /
    ((N/C)^6 - 1) is <= bound = tol (1 + max|X_N|).  Else X_N becomes X_C
    and N takes the fewest doublings k >= 1 with err 2^(-6k) <= bound (k = 1
    for a non-finite err), up to _MAX_STEPS, where a rejection raises
    IntegrationFailure.  Lambdas that want the same N share one _magnus
    call, so a map does not depend on its batch.  check_tol comes first.
    """
    check_tol(tol)
    lams = np.asarray(lams, dtype=float)
    maps = _magnus(pot, lams, t1, 16)  # X_C per lambda, then its result
    prev = np.full(lams.size, 16)  # C
    want = np.full(lams.size, 64)  # the N to try next; 0 once accepted
    while want.any():
        steps = int(want[want > 0].min())
        now = np.flatnonzero(want == steps)
        fine = _magnus(pot, lams[now], t1, steps)
        err = (np.max(np.abs(fine - maps[now]), axis=(1, 2))
               / ((steps / prev[now]) ** 6 - 1.0))
        bound = tol * (1.0 + np.max(np.abs(fine), axis=(1, 2)))
        done = err <= bound
        if steps == _MAX_STEPS and not done.all():
            raise IntegrationFailure(
                f"{_MAX_STEPS} Magnus steps leave X({t1!r}, 0) above tol={tol!r} "
                f"at lambda {float(lams[now[~done][0]])!r}")
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.ceil(np.log2(err / bound) / 6.0)
        k = np.clip(np.nan_to_num(k, nan=1.0, posinf=1.0), 1, 14).astype(int)
        maps[now], prev[now] = fine, steps
        want[now] = np.where(done, 0, np.minimum(steps << k, _MAX_STEPS))
    return maps


def _magnus(pot, lams, t1, steps):
    """X(t1, 0) per lambda from `steps` equal Magnus steps; q and alpha are
    sampled once, and blocks of lambda keep temporaries near _BLOCK entries.
    """
    h = t1 / steps
    ts = (np.arange(steps)[:, None] + _NODES) * h  # (steps, 3)
    q, alpha = pot.q(ts), pot.alpha(ts)
    out = np.empty((lams.size, 2, 2))
    size = max(1, _BLOCK // steps)
    for i in range(0, lams.size, size):
        # the generator at the nodes is [[0, c], [1, 0]]; c is (steps, 3, B)
        c = q[..., None] - alpha[..., None] * lams[i:i + size]
        # steps too long for a lambda may overflow; inf and nan never pass
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out[i:i + size] = _product(_exp(_omega(c, h)))
    return out


def _comm(x, y):
    """[x, y] of traceless 2x2 matrices stored as (p, q, r) = [[p, q], [r, -p]]."""
    p1, q1, r1 = x
    p2, q2, r2 = y
    return (q1 * r2 - q2 * r1, 2.0 * (p1 * q2 - q1 * p2), 2.0 * (r1 * p2 - p1 * r2))


def _omega(c, h):
    """The sixth-order Magnus exponent of each step, as (p, q, r).

    With A1, A2, A3 the generator at the Gauss nodes 1/2 - sqrt(15)/10,
    1/2, 1/2 + sqrt(15)/10 of the step (Blanes, Casas, Oteo & Ros, Phys.
    Rep. 470, 2009):
        a1 = h A2,  a2 = (sqrt(15) h / 3)(A3 - A1),
        a3 = (10 h / 3)(A3 - 2 A2 + A1),
        C1 = [a1, a2],  C2 = -(1/60)[a1, 2 a3 + C1],
        Omega = a1 + a3/12 + (1/240)[-20 a1 - a3 + C1, a2 + C2].
    A_i = (0, c_i, 1), so a1 = (0, h c_2, h) while a2 and a3 have only a q
    part (held below as that part alone) and C1 = [a1, a2] only a p part.
    """
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    a1 = (0.0, h * c2, h)
    a2 = (math.sqrt(15.0) * h / 3.0) * (c3 - c1)
    a3 = (10.0 * h / 3.0) * (c3 - 2.0 * c2 + c1)
    C1 = -h * a2
    C2 = tuple(v / -60.0 for v in _comm(a1, (C1, 2.0 * a3, 0.0)))
    p, q, r = _comm((C1, -20.0 * a1[1] - a3, -20.0 * h),
                    (C2[0], a2 + C2[1], C2[2]))
    return p / 240.0, a1[1] + a3 / 12.0 + q / 240.0, h + r / 240.0


def _exp(omega):
    """Entries (a, b, c, d) of exp(Omega) = C I + S Omega for traceless Omega.

    Omega^2 = delta I with delta = p^2 + qr, so C and S are cosh and
    sinh(s)/s of s = sqrt(delta), or cos and sin(s)/s of s = sqrt(-delta);
    det exp(Omega) = 1 by construction.
    """
    p, q, r = omega
    delta = p * p + q * r
    s = np.sqrt(np.abs(delta))
    grows = delta >= 0.0
    C = np.where(grows, np.cosh(s), np.cos(s))
    S = np.where(s < 1e-4, 1.0 + delta / 6.0 + delta * delta / 120.0,
                 np.where(grows, np.sinh(s), np.sin(s)) / s)
    return C + S * p, S * q, S * r, C - S * p


def _product(step):
    """X = E_N ... E_2 E_1 of the step maps, by pairwise products.

    step holds the entries (a, b, c, d) of every E_j, each (steps, B) with
    steps a power of two; the result has shape (B, 2, 2).
    """
    a, b, c, d = step
    while a.shape[0] > 1:
        # the later step of each pair multiplies from the left
        (a1, a2), (b1, b2), (c1, c2), (d1, d2) = (
            (x[0::2], x[1::2]) for x in (a, b, c, d))
        a, b, c, d = (a2 * a1 + b2 * c1, a2 * b1 + b2 * d1,
                      c2 * a1 + d2 * c1, c2 * b1 + d2 * d1)
    return np.stack([a[0], b[0], c[0], d[0]], axis=-1).reshape(-1, 2, 2)


def monodromy(pot, lam, tol=1e-11):
    """One-period map of the Hill system at lambda.

    tol bounds its estimated error relative to 1 + max|X| (see _fundamental).
    """
    (b11, b12), (b21, b22) = _fundamental(pot, [float(lam)], 1.0, tol)[0]
    return Monodromy(b11=b11, b12=b12, b21=b21, b22=b22, lam=float(lam),
                     pot=pot, tol=tol)


def _trace_class(tr):
    """'boundary', 'unstable' or 'stable': the class of a monodromy trace."""
    if abs(abs(tr) - 2.0) <= _BOUNDARY_TOL:
        return "boundary"
    return "unstable" if abs(tr) > 2.0 else "stable"


def trace_curve(pot, lams, tol=1e-11):
    """Traces of the monodromy matrices for a grid of lambda values."""
    X = _fundamental(pot, lams, 1.0, tol)
    return X[:, 0, 0] + X[:, 1, 1]


def scan_grid(lambda_range, grid_points):
    """The uniform lambda grid of a scan; validates range and size first."""
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not 0.0 < lo < hi < math.inf:
        raise ParameterError(f"lambda range must satisfy 0 < lo < hi < inf, got {lo}, {hi}")
    grid_points = int(grid_points)
    if grid_points < 100:
        raise ParameterError(f"grid_points must be >= 100, got {grid_points}")
    return np.linspace(lo, hi, grid_points)


def scan_instability(pot, lambda_range, grid_points, tol=1e-11):
    """Scan |trace(lambda)| > 2 over a uniform grid; refine interval edges.

    Returns sorted disjoint InstabilityIntervals (possibly empty).  Edges are
    located by bisection on |trace| - 2 to width (hi-lo)/grid_points * 1e-3.
    """
    lams = scan_grid(lambda_range, grid_points)
    return instability_intervals(pot, lams, trace_curve(pot, lams, tol), tol)


def instability_intervals(pot, lams, traces, tol=1e-11):
    """Intervals of a scan from its grid (scan_grid) and the traces on it.

    Only the bisection probes at the interval edges are integrated here, so
    a caller that also needs the grid traces evaluates the grid once.
    """
    lo, hi = float(lams[0]), float(lams[-1])
    unstable = np.abs(traces) > 2.0
    # the class flips between lams[i] and lams[i + 1] for each i in flips
    flips = np.flatnonzero(unstable[1:] != unstable[:-1])
    inner = flips + ~unstable[flips]  # the grid index on the unstable side
    # bisect every edge as one batch, a on its stable side, bnd on the other
    a, bnd = lams[flips + unstable[flips]], lams[inner]
    width = (hi - lo) / lams.size * 1e-3
    while flips.size and np.max(np.abs(bnd - a)) > width:
        mid = 0.5 * (a + bnd)
        inside = np.abs(trace_curve(pot, mid, tol)) > 2.0
        bnd = np.where(inside, mid, bnd)
        a = np.where(inside, a, mid)

    # (grid index, lambda) of each edge in order: start, end, start, end, ...
    edges = ([(0, lo)] if unstable[0] else []) + list(zip(inner, bnd.tolist())) \
        + ([(lams.size - 1, hi)] if unstable[-1] else [])
    intervals = []
    for (i, lam_lo), (j, lam_hi) in zip(edges[0::2], edges[1::2]):
        k = i + np.argmax(np.abs(traces[i:j + 1]))
        intervals.append(InstabilityInterval(
            lambda_lo=lam_lo, lambda_hi=lam_hi,
            max_abs_trace=float(np.abs(traces[k])), witness_lambda=float(lams[k])))
    return intervals


def find_good_lambda(intervals, pot, tol=1e-11):
    """The Monodromy of a lambda interior to an instability interval whose
    kind is 'unstable', with |b21| > 1e-6 and |b22 - 1/mu| > 1e-6 (mu the
    signed expanding multiplier).

    Per interval the candidates are the scan's witness (the grid maximum
    of |trace|), then the interval's midpoint; each is integrated only once
    every earlier candidate has been rejected.  b21 vanishes at the one
    Dirichlet eigenvalue in each interval, so a witness fails the b21 test
    only next to that zero, and the midpoint is the second try.  The
    passing candidate's lambda is m.lam.
    """
    if not intervals:
        raise ParameterError("no instability intervals to search")
    best_b21 = 0.0
    for iv in intervals:
        for lam in (iv.witness_lambda, 0.5 * (iv.lambda_lo + iv.lambda_hi)):
            m = monodromy(pot, lam, tol)
            if m.kind != "unstable":
                continue
            best_b21 = max(best_b21, abs(m.b21))
            if abs(m.b21) > _B21_MIN and abs(m.b22 - 1.0 / m.expanding) > 1e-6:
                return m
    raise ExhaustedSearchError(
        f"no sample passed the b21/b22 conditions (max |b21| found: {best_b21!r})",
        best=best_b21,
    )


@dataclass(frozen=True)
class MultiPeriodValues:
    """Closed-form solution values after M periods.

    Actual values are W * 10**log10_scale and V * 10**log10_scale;
    log10_scale is nonzero only when the plain floats would overflow.
    """

    W: float
    V: float
    log10_scale: float = 0.0


def multi_period_values(m, M):
    """W(M) and V(M) for the fundamental pair, from the monodromy matrix.

    Derived from the eigendecomposition of X(1,0) with multipliers mu,
    1/mu:

        W(M) = b21 (mu^M - mu^-M) / (mu - 1/mu)
        V(M) = (mu^M (b22 - 1/mu) - mu^-M (b22 - mu)) / (mu - 1/mu)

    At M = 1 they reduce to W(1) = b21 and V(1) = b22.
    """
    M = int(M)
    if M < 1:
        raise ParameterError(f"M must be a positive integer, got {M}")
    if m.kind != "unstable":
        raise ParameterError("multi-period closed forms require an unstable lambda")
    mu = m.expanding
    if abs(m.b21) == 0.0 or abs(m.b22 - 1.0 / mu) == 0.0:
        raise ParameterError("closed forms require b21 != 0 and b22 != 1/mu")
    delta = mu - 1.0 / mu
    if M * math.log(m.mu0) > 700.0:
        # overflow guard: drop the mu^-M terms (relatively ~ mu^-2M) and
        # return mantissa/exponent form
        e = M * math.log10(m.mu0)
        efrac = e - math.floor(e)
        s = m.sign**M * 10.0**efrac
        return MultiPeriodValues(
            W=m.b21 * s / delta,
            V=(m.b22 - 1.0 / mu) * s / delta,
            log10_scale=math.floor(e),
        )
    muM = mu**M
    W = m.b21 * (muM - 1.0 / muM) / delta
    V = (muM * (m.b22 - 1.0 / mu) - (m.b22 - mu) / muM) / delta
    return MultiPeriodValues(W=W, V=V)


class Propagator:
    """Solutions of the Hill system at m.lam from any data at t = 0.

    x(t) = X(frac, 0) X(1, 0)^k x0 with t = k + frac: the integer periods
    are a power of the monodromy m, and each distinct fractional map
    X(frac, 0) comes from the same Magnus routine with m.pot and m.tol, the
    monodromy's own, and is kept on the instance, so evaluations at the same
    phase of the period cost only the matrix products.
    """

    def __init__(self, m):
        self.m = m
        self._frac_maps = {}

    def __call__(self, t, data):
        """Solution (w, w_t) at time t >= 0 from data (w0, w0_t)."""
        t = float(t)
        if t < 0:
            raise ParameterError(f"propagate requires t >= 0, got {t}")
        w0, w0_t = data
        x = np.array([w0_t, w0], dtype=float)
        k = int(math.floor(t + 1e-13))
        frac = t - k
        if frac < 1e-13:
            frac = 0.0
        m = self.m
        if k > 0:
            if k * math.log(m.mu0) > 700.0:
                raise OverflowError(
                    f"monodromy power overflows at t={t} (use multi_period_values "
                    "for mantissa/exponent form)"
                )
            x = np.linalg.matrix_power(m.matrix, k) @ x
        if frac > 0.0:
            X = self._frac_maps.get(frac)
            if X is None:
                X = self._frac_maps[frac] = _fundamental(m.pot, [m.lam], frac, m.tol)[0]
            x = X @ x
        return float(x[1]), float(x[0])


def propagate(m, t, data):
    """Solution (w, w_t) at time t >= 0 from data (w0, w0_t) at t = 0.

    One evaluation of a fresh Propagator(m); callers that evaluate many
    times at one lambda should keep a Propagator instead.
    """
    return Propagator(m)(t, data)


def export_stability_chart(path, lams, traces):
    """Write the stability chart CSV: lambda,trace,abs_trace,class."""
    rows = [["lambda", "trace", "abs_trace", "class"]]
    for lam, tr in zip(lams, traces):
        rows.append([f"{lam:.17g}", f"{tr:.17g}", f"{abs(tr):.17g}", _trace_class(tr)])
    write_atomic(path, csv_text(rows))
