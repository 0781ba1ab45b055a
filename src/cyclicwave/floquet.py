"""Floquet analysis of the Hill equation y'' + (lambda*alpha(t) - q(t)) y = 0.

The state vector is x = (w_t, w), so the one-period map X(1,0) has
b21 = w(1) for initial data w(0) = 0, w_t(0) = 1.  The lambda-scan advances
all grid points through one vectorized adaptive integration, which keeps the
output deterministic regardless of how the work is scheduled.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rk import integrate
from .errors import ExhaustedSearchError, IntegrationFailure, ParameterError
from .output import csv_text, write_atomic

_B21_MIN = 1e-6


@dataclass(frozen=True)
class Monodromy:
    """One-period map X(1,0) of the Hill system at a given lambda."""

    b11: float
    b12: float
    b21: float
    b22: float
    lam: float

    @property
    def det(self):
        return self.b11 * self.b22 - self.b12 * self.b21

    @property
    def trace(self):
        return self.b11 + self.b22

    @property
    def matrix(self):
        return np.array([[self.b11, self.b12], [self.b21, self.b22]])


@dataclass(frozen=True)
class MultiplierPair:
    """Multipliers of the monodromy matrix.

    For the unstable class, mu0 > 1 is the magnitude of the expanding
    multiplier and sign is the common sign of both multipliers (the actual
    eigenvalues are sign*mu0 and sign/mu0).  For the stable class, angle is
    the rotation angle of the unit-circle pair.
    """

    kind: str  # 'stable' | 'unstable' | 'boundary'
    mu0: float | None = None
    sign: int = 1
    angle: float | None = None

    @property
    def expanding(self):
        """The signed expanding multiplier (unstable class only)."""
        return self.sign * self.mu0


@dataclass(frozen=True)
class InstabilityInterval:
    lambda_lo: float
    lambda_hi: float
    max_abs_trace: float
    witness_lambda: float


class FundamentalPair:
    """Solutions W, V with W(0)=0, W_t(0)=1 and V(0)=1, V_t(0)=0.

    Evaluation integrates directly from t=0 (no monodromy composition), so
    this object doubles as the independent oracle for the closed-form
    multi-period values.
    """

    def __init__(self, pot, lam, tol=1e-11):
        self.pot = pot
        self.lam = lam
        self.tol = tol

    def matrix(self, t):
        """X(t, 0) acting on (w_t, w): columns (W_t, W) and (V_t, V)."""
        y0 = np.array([[1.0, 0.0, 0.0, 1.0]])
        y = _integrate_system(self.pot, np.array([self.lam]), 0.0, t, y0, self.tol)
        return y[0].reshape(2, 2)

    def W(self, t):
        return self.matrix(t)[1, 0]

    def V(self, t):
        return self.matrix(t)[1, 1]

    def W_t(self, t):
        return self.matrix(t)[0, 0]

    def V_t(self, t):
        return self.matrix(t)[0, 1]


def _integrate_system(pot, lams, t0, t1, y0, tol):
    """Advance the 2x2 fundamental system for a batch of lambda values."""
    lams = np.asarray(lams, dtype=float)

    def rhs(t, y):
        coeff = pot.q(t) - lams * pot.alpha(t)  # shape (B,)
        out = np.empty_like(y)
        out[:, 0] = coeff * y[:, 2]
        out[:, 1] = coeff * y[:, 3]
        out[:, 2] = y[:, 0]
        out[:, 3] = y[:, 1]
        return out

    return integrate(rhs, t0, t1, y0, rtol=tol, atol=tol)


def _monodromy_batch(pot, lams, tol):
    lams = np.asarray(lams, dtype=float)
    y0 = np.tile(np.array([1.0, 0.0, 0.0, 1.0]), (lams.size, 1))
    try:
        return _integrate_system(pot, lams, 0.0, 1.0, y0, tol)
    except IntegrationFailure as exc:
        raise IntegrationFailure(
            f"monodromy integration failed at t={exc.t!r} "
            f"(lambda batch of size {lams.size})",
            t=exc.t,
        ) from exc


def monodromy(pot, lam, tol=1e-11):
    """One-period map of the Hill system at lambda, |det - 1| <= 100*tol."""
    if not 1e-13 <= tol <= 1e-6:
        raise ParameterError(f"tol must lie in [1e-13, 1e-6], got {tol}")
    y = _monodromy_batch(pot, [float(lam)], tol)[0]
    return Monodromy(b11=y[0], b12=y[1], b21=y[2], b22=y[3], lam=float(lam))


def classify(m, boundary_tol=1e-9):
    """Multiplier pair of a monodromy matrix; |m.det - 1| must be < 1e-6."""
    if abs(m.det - 1.0) >= 1e-6:
        raise ParameterError(
            f"monodromy determinant {m.det!r} too far from 1 to classify"
        )
    tr = m.trace
    if abs(abs(tr) - 2.0) <= boundary_tol:
        return MultiplierPair(kind="boundary")
    if abs(tr) > 2.0:
        mu0 = (abs(tr) + math.sqrt(tr * tr - 4.0)) / 2.0
        return MultiplierPair(kind="unstable", mu0=mu0, sign=1 if tr > 0 else -1)
    return MultiplierPair(kind="stable", angle=math.acos(tr / 2.0))


def trace_curve(pot, lams, tol=1e-11):
    """Traces of the monodromy matrices for a grid of lambda values."""
    y = _monodromy_batch(pot, lams, tol)
    return y[:, 0] + y[:, 3]


def scan_grid(lambda_range, grid_points):
    """The uniform lambda grid of a scan; validates range and size first."""
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not 0.0 < lo < hi:
        raise ParameterError(f"lambda range must satisfy 0 < lo < hi, got {lo}, {hi}")
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
    lo, hi, grid_points = float(lams[0]), float(lams[-1]), lams.size
    excess = np.abs(traces) - 2.0
    mask = excess > 0.0

    intervals = []
    idx = np.where(mask)[0]
    if idx.size == 0:
        return intervals
    runs = np.split(idx, np.where(np.diff(idx) != 1)[0] + 1)
    width = (hi - lo) / grid_points * 1e-3

    # collect all edges to refine, then bisect them as one batch
    edges = []  # (run_index, side, lam_outside, lam_inside)
    for r, g in enumerate(runs):
        if g[0] > 0:
            edges.append((r, "lo", lams[g[0] - 1], lams[g[0]]))
        if g[-1] < grid_points - 1:
            edges.append((r, "hi", lams[g[-1] + 1], lams[g[-1]]))
    a = np.array([e[2] for e in edges])
    bnd = np.array([e[3] for e in edges])
    while edges and np.max(np.abs(bnd - a)) > width:
        mid = 0.5 * (a + bnd)
        tmid = trace_curve(pot, mid, tol)
        inside = np.abs(tmid) > 2.0
        bnd = np.where(inside, mid, bnd)
        a = np.where(inside, a, mid)

    bounds = {}
    for (r, side, _, _), edge in zip(edges, bnd):
        bounds[(r, side)] = float(edge)
    for r, g in enumerate(runs):
        lam_lo = bounds.get((r, "lo"), lo)
        lam_hi = bounds.get((r, "hi"), hi)
        k = g[np.argmax(np.abs(traces[g]))]
        intervals.append(
            InstabilityInterval(
                lambda_lo=lam_lo,
                lambda_hi=lam_hi,
                max_abs_trace=float(np.abs(traces[k])),
                witness_lambda=float(lams[k]),
            )
        )
    return sorted(intervals, key=lambda iv: iv.lambda_lo)


def _candidates(iv, pot, tol):
    """(lambda, monodromy) candidates inside one interval, made lazily.

    The scan's witness comes first; after it, each golden-section probe of
    |trace| is yielded as soon as it is integrated.  The two opening probes
    only seed the section and are not candidates themselves.
    """
    yield iv.witness_lambda, monodromy(pot, iv.witness_lambda, tol)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    margin = 0.02 * (iv.lambda_hi - iv.lambda_lo)
    a, b = iv.lambda_lo + margin, iv.lambda_hi - margin
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = abs(monodromy(pot, x1, tol).trace)
    f2 = abs(monodromy(pot, x2, tol).trace)
    for _ in range(40):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            m = monodromy(pot, x2, tol)
            f2 = abs(m.trace)
            yield x2, m
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            m = monodromy(pot, x1, tol)
            f1 = abs(m.trace)
            yield x1, m


def find_good_lambda(intervals, pot, tol=1e-11):
    """A lambda interior to an instability interval with usable monodromy.

    Requires |b21| > 1e-6 and |b22 - 1/mu| > 1e-6 (mu the signed expanding
    multiplier).  Per interval the candidates are the scan's witness, then
    the golden-section probes of |trace|; each is integrated only once every
    earlier candidate has been rejected, and its monodromy is the one
    returned.
    """
    if not intervals:
        raise ParameterError("no instability intervals to search")
    best_b21 = 0.0
    for iv in intervals:
        for lam, m in _candidates(iv, pot, tol):
            mult = classify(m)
            if mult.kind != "unstable":
                continue
            best_b21 = max(best_b21, abs(m.b21))
            if abs(m.b21) > _B21_MIN and abs(m.b22 - 1.0 / mult.expanding) > 1e-6:
                return lam, m
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

    A commonly quoted variant of V with a leading minus sign fails the
    M=1 reduction V(1) = b22; see printed_v_variant.
    """
    M = int(M)
    if M < 1:
        raise ParameterError(f"M must be a positive integer, got {M}")
    mult = classify(m)
    if mult.kind != "unstable":
        raise ParameterError("multi-period closed forms require an unstable lambda")
    mu = mult.expanding
    if abs(m.b21) == 0.0 or abs(m.b22 - 1.0 / mu) == 0.0:
        raise ParameterError("closed forms require b21 != 0 and b22 != 1/mu")
    delta = mu - 1.0 / mu
    if M * math.log(mult.mu0) > 700.0:
        # overflow guard: drop the mu^-M terms (relatively ~ mu^-2M) and
        # return mantissa/exponent form
        e = M * math.log10(mult.mu0)
        efrac = e - math.floor(e)
        s = mult.sign**M * 10.0**efrac
        return MultiPeriodValues(
            W=m.b21 * s / delta,
            V=(m.b22 - 1.0 / mu) * s / delta,
            log10_scale=math.floor(e),
        )
    muM = mu**M
    W = m.b21 * (muM - 1.0 / muM) / delta
    V = (muM * (m.b22 - 1.0 / mu) - (m.b22 - mu) / muM) / delta
    return MultiPeriodValues(W=W, V=V)


def printed_v_variant(m, M):
    """Sign-flipped variant of V(M) kept as a diagnostic cross-check."""
    mult = classify(m)
    mu = mult.expanding
    delta = mu - 1.0 / mu
    return -(mu**M) * (m.b22 - 1.0 / mu) / delta + mu ** (-M) * m.b21 * m.b12 / (
        (mu - m.b11) * delta
    )


class Propagator:
    """Solutions of the Hill system at one lambda from any data at t = 0.

    x(t) = X(frac, 0) X(1, 0)^k x0 with t = k + frac: the integer periods
    are a power of the monodromy m, and each distinct fractional map
    X(frac, 0) is integrated once, from identity data, and kept on the
    instance, so evaluations at the same phase of the period cost only the
    matrix products.
    """

    def __init__(self, m, pot, lam, tol=1e-11):
        self.m = m
        self.pot = pot
        self._pair = FundamentalPair(pot, lam, tol)
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
        if k > 0:
            m = self.m
            mult = classify(m, boundary_tol=0.0) if abs(m.trace) > 2 else None
            if mult is not None and k * math.log(mult.mu0) > 700.0:
                raise OverflowError(
                    f"monodromy power overflows at t={t} (use multi_period_values "
                    "for mantissa/exponent form)"
                )
            x = np.linalg.matrix_power(m.matrix, k) @ x
        if frac > 0.0:
            X = self._frac_maps.get(frac)
            if X is None:
                X = self._frac_maps[frac] = self._pair.matrix(frac)
            x = X @ x
        return float(x[1]), float(x[0])


def propagate(m, pot, lam, t, data, tol=1e-11):
    """Solution (w, w_t) at time t >= 0 from data (w0, w0_t) at t = 0.

    One evaluation of a fresh Propagator; callers that evaluate many times
    at one lambda should keep a Propagator instead.
    """
    return Propagator(m, pot, lam, tol)(t, data)


def export_stability_chart(path, lams, traces, boundary_tol=1e-9):
    """Write the stability chart CSV: lambda,trace,abs_trace,class."""
    rows = [["lambda", "trace", "abs_trace", "class"]]
    for lam, tr in zip(lams, traces):
        if abs(abs(tr) - 2.0) <= boundary_tol:
            cls = "boundary"
        elif abs(tr) > 2.0:
            cls = "unstable"
        else:
            cls = "stable"
        rows.append([f"{lam:.17g}", f"{tr:.17g}", f"{abs(tr):.17g}", cls])
    write_atomic(path, csv_text(rows))
