"""Floquet analysis of the Hill equation y'' + (lambda*alpha(t) - q(t)) y = 0.

The state vector is x = (w_t, w), so the one-period map X(1,0) has
b21 = w(1) for initial data w(0) = 0, w_t(0) = 1.  Every one-period map
comes from `_fundamental`: sixth-order Magnus steps whose exponent is a
polynomial in lambda (_omega), exponentiated by one Taylor series with
scaling and squaring (_exp; det X = 1 to rounding) and multiplied in one
pairwise tree (_product).  A step-count controller gives each lambda as
many steps as its Richardson error estimate predicts it needs.  Every
stage is elementwise in lambda, so a lambda's map does not depend on how
a scan is batched, bit for bit.  A map X(t, 0) inside the period
(Propagator) comes from the same N accepted steps: their prefix products,
then one shorter step.  Whole periods have one form (periods):
X(1,0)^k x0 from Cayley-Hamilton, with a base-10 exponent past a float.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExhaustedSearchError, IntegrationFailure, ParameterError

_B21_MIN = 1e-6
_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)  # Gauss nodes
_MAX_STEPS = 2**14  # a map still above tol here counts as unresolved
_BLOCK = 2**13  # (step, lambda) pairs advanced together
_LANES = 2**9  # lambdas per block of a sweep
_BOUNDARY_TOL = 1e-9  # |trace| this close to 2 is the boundary class
_LEVELS = 5  # bisection levels of every interval edge per trace_curve call


@dataclass(frozen=True)
class Monodromy:
    """One-period map X(1,0) of the Hill system at lambda, with the potential
    pot, the tol it was integrated with and the number of equal Magnus
    steps its controller accepted; ParameterError unless |det - 1| < 1e-6.
    For |trace| > 2 the multipliers are sign*mu0 and sign/mu0 with mu0 > 1.
    """

    b11: float
    b12: float
    b21: float
    b22: float
    lam: float
    pot: "coeffs.HillPotential"
    tol: float
    steps: int

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

    @functools.cached_property
    def kind(self):
        """'stable', 'unstable' or 'boundary': the trace's class, made once."""
        return str(trace_class(self.trace))

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


def _fundamental(pot, lams, tol):
    """X(1, 0) per lambda in lams, shape (len(lams), 2, 2), and the number
    of steps accepted for each lambda, shape (len(lams),).

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
    maps = _magnus(pot, lams, 16)  # X_C per lambda, then its result
    prev = np.full(lams.size, 16)  # C
    want = np.full(lams.size, 64)  # the N to try next; 0 once accepted
    while want.any():
        steps = int(want[want > 0].min())
        now = np.flatnonzero(want == steps)
        fine = _magnus(pot, lams[now], steps)
        err = (np.max(np.abs(fine - maps[now]), axis=(1, 2))
               / ((steps / prev[now]) ** 6 - 1.0))
        bound = tol * (1.0 + np.max(np.abs(fine), axis=(1, 2)))
        done = err <= bound
        if steps == _MAX_STEPS and not done.all():
            raise IntegrationFailure(
                f"{_MAX_STEPS} Magnus steps leave X(1, 0) above tol={tol!r} "
                f"at lambda {float(lams[now[~done][0]])!r}")
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.ceil(np.log2(err / bound) / 6.0)
        k = np.clip(np.nan_to_num(k, nan=1.0, posinf=1.0), 1, 14).astype(int)
        maps[now], prev[now] = fine, steps
        want[now] = np.where(done, 0, np.minimum(steps << k, _MAX_STEPS))
    return maps, prev


def _magnus(pot, lams, steps):
    """X(1, 0) per lambda from `steps` equal Magnus steps.

    q and alpha are sampled once and give each step's exponent as a
    polynomial in lambda (_omega).  A block of up to _LANES lambdas then
    runs through the steps in power-of-two chunks of near _BLOCK (step,
    lambda) pairs, in one scratch buffer made per call; the chunk products
    merge like a binary counter, which is the pairwise tree of _product
    over all the steps, product for product.
    """
    width = max(1, min(lams.size, _LANES))
    # steps per chunk: the largest power of two <= _BLOCK / width, at most steps
    chunk = min(steps, 1 << (max(1, _BLOCK // width).bit_length() - 1))
    h = 1.0 / steps
    ts = (np.arange(steps)[:, None] + _NODES) * h  # (steps, 3)
    # each chunk's steps in bit-reversed order, as _product takes them
    order = np.arange(steps).reshape(-1, chunk)[:, _bit_reversal(chunk)].ravel()
    omega = _omega(pot.q(ts)[order], pot.alpha(ts)[order], h)
    out = np.empty((lams.size, 2, 2))
    work = np.empty(8 * chunk * width)
    # steps too long for a lambda may overflow; inf and nan never pass
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, lams.size, width):
            lam = lams[i:i + width]
            w = work[:8 * chunk * lam.size].reshape(8, chunk, lam.size)
            done = []  # (steps covered, product), the latest product last
            for k in range(0, steps, chunk):
                for coef, row in zip(omega, w):
                    _horner(coef[:, k:k + chunk], lam, row)
                x, n = _product(_exp(w[:6]), w), chunk
                while done and done[-1][0] == n:
                    x, n = _mul(x, done.pop()[1]), 2 * n
                done.append((n, x))
            out[i:i + width] = x.transpose(2, 0, 1)
    return out


def _bit_reversal(n):
    """The bit-reversal permutation of range(n), n a power of two: with
    range(n) as an array of shape (2, ..., 2) indexed by the bits of each
    entry, reversing the axes reverses the bits."""
    return np.arange(n).reshape((2,) * (n.bit_length() - 1)).T.ravel()


def _poly_mul(x, y):
    """Coefficients of the product of two polynomials in lambda, each held
    as an array (degree + 1, steps) with the constant term first."""
    out = np.zeros((len(x) + len(y) - 1,) + x.shape[1:])
    for i, xi in enumerate(x):
        out[i:i + len(y)] += xi * y
    return out


def _omega(q, alpha, h):
    """The sixth-order Magnus exponent Omega = [[p, q], [r, -p]] of each
    step, as polynomial coefficients (p, q, r) in lambda; h is the step
    length, one for all steps or one per step.

    With A1, A2, A3 the generator [[0, c], [1, 0]] at the Gauss nodes
    1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10 of the step (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470, 2009):
        a1 = h A2,  a2 = (sqrt(15) h / 3)(A3 - A1),
        a3 = (10 h / 3)(A3 - 2 A2 + A1),
        C1 = [a1, a2],  C2 = -(1/60)[a1, 2 a3 + C1],
        Omega = a1 + a3/12 + (1/240)[-20 a1 - a3 + C1, a2 + C2].
    Its commutators reduce, with d = c3 - c1, e = c3 - 2 c2 + c1 and
    H = h^2, to
        p = -sqrt(15) H d (12 c2 H + e H - 180) / 6480,
        q = h (3 c2 d^2 H^2 + 120 c2 e H + 6480 c2 - 90 d^2 H + 20 e^2 H
               + 1800 e) / 6480,
        r = h (d^2 H^2 - 40 e H + 2160) / 2160.
    c = q - lambda alpha at each node, so p and r are quadratic in lambda
    and q is cubic; each is an array (degree + 1, steps), constant first.
    """
    c = np.stack([q, -alpha])  # c = c[0] + lambda c[1] at the nodes
    c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2]
    d, e = c3 - c1, c3 - 2.0 * c2 + c1
    H = h * h
    dd = _poly_mul(d, d)
    inner = H * (12.0 * c2 + e)
    inner[0] -= 180.0
    p = (-math.sqrt(15.0) * H / 6480.0) * _poly_mul(d, inner)
    inner = 3.0 * H * H * dd
    inner[:2] += 120.0 * H * e
    inner[0] += 6480.0
    qq = _poly_mul(c2, inner)
    qq[:3] += H * (20.0 * _poly_mul(e, e) - 90.0 * dd)
    qq[:2] += 1800.0 * e
    r = H * H * dd
    r[:2] -= 40.0 * H * e
    r[0] += 2160.0
    return p, (h / 6480.0) * qq, (h / 2160.0) * r


def _horner(coef, lam, out):
    """out[j, i] = the polynomial coef[:, j] (degree + 1, steps; constant
    first) at lam[i]."""
    np.multiply(coef[-1][:, None], lam, out=out)
    for ck in coef[-2:0:-1]:
        out += ck[:, None]
        out *= lam
    out += coef[0][:, None]


_COSH = [1.0 / math.factorial(2 * k) for k in range(1, 5)]  # C - 1 = sum delta^k / (2k)!
_SINH = [1.0 / math.factorial(2 * k + 1) for k in range(5)]  # S = sum delta^k / (2k+1)!


def _exp(w):
    """exp(Omega) = C I + S Omega for traceless Omega = [[p, q], [r, -p]],
    with p, q, r in w[:3]: its entries (a, b, c, d) overwrite w[:4], and
    w[:4] is returned as the matrix (2, 2, steps, lambdas).

    Omega^2 = delta I with delta = p^2 + qr, so C = sum delta^k / (2k)! and
    S = sum delta^k / (2k + 1)! for either sign of delta.  A delta past
    2^-7 is scaled by an exact 4^-j into |delta| <= 2^-7, where five terms
    of each series leave less than 8e-18, and j doublings S <- S C,
    C <- 2 C^2 - 1 = 1 + 2 delta S^2, delta <- 4 delta undo the scaling
    (Moler & Van Loan, SIAM Review 45, 2003).  They run on u = C - 1, so C
    keeps its distance from 1 to full relative precision and no C + 1
    cancels near C = -1.  j is chosen per element, and det = C^2 - delta S^2
    is 1 to rounding.  A non-finite delta or |delta| >= 2^57 gives nan entries.
    """
    p, q, r, S, delta, u = w
    np.multiply(p, p, out=delta)
    np.multiply(q, r, out=u)
    delta += u
    top = 0  # doublings
    if not np.abs(delta, out=u).max(initial=0.0) <= 2.0**-7:  # nan takes this branch too
        j = np.maximum(np.frexp(delta)[1] + 8, 0) >> 1  # |delta| < 2^e, e - 2j <= -7
        top = min(int(j.max()), 32)  # j > 32: |delta| >= 2^57, whose angle keeps no digit
        if top == 32:
            delta[j > 32] = np.nan
        np.ldexp(delta, -2 * j, out=delta)
    np.multiply(delta, _COSH[-1], out=u)
    for ck in _COSH[-2::-1]:
        u += ck
        u *= delta
    np.multiply(delta, _SINH[-1], out=S)
    for ck in _SINH[-2:0:-1]:
        S += ck
        S *= delta
    S += _SINH[0]
    for i in range(top):
        now = j > i
        C = u + 1.0
        np.multiply(2.0 * delta, S * S, out=u, where=now)
        np.multiply(S, C, out=S, where=now)
        np.multiply(delta, 4.0, out=delta, where=now)
    u += 1.0  # C
    q *= S
    r *= S
    p *= S
    np.subtract(u, p, out=S)
    p += u
    return w[:4].reshape((2, 2) + p.shape)


def _mul(x, y, out=None, tmp=None):
    """The matrix product x y of 2x2 matrices stored as (2, 2, ...) arrays,
    entry by entry as x[i, 0] y[0, j] + x[i, 1] y[1, j]; into out, with tmp
    of the same shape as scratch, when they are given."""
    out = np.multiply(x[:, :1], y[:1], out=out)
    out += np.multiply(x[:, 1:], y[1:], out=tmp)
    return out


def _product(step, work):
    """E_K ... E_2 E_1 of the step maps step (2, 2, K, lambdas), K a power
    of two, by pairwise products: a new (2, 2, lambdas) array.

    step holds E_j in row _bit_reversal(K)[j], so E_2m and E_2m+1 sit K/2
    rows apart and each level of the tree multiplies the second half (the
    later steps) into the first, over contiguous halves; its products keep
    that order.  The levels write into work[6:] or back into
    step, in turn, with work[4:6] as scratch; work is the (8, K, lambdas)
    buffer whose first four rows hold step.
    """
    shape = (2, 2, step.shape[2] // 2, step.shape[3])
    src, dst, tmp = step, work[6:].reshape(shape), work[4:6].reshape(shape)
    while src.shape[2] > 1:
        half = src.shape[2] // 2
        new = _mul(src[:, :, half:], src[:, :, :half], dst[:, :, :half], tmp[:, :, :half])
        src, dst = new, src
    return src[:, :, 0].copy()


def monodromy(pot, lam, tol=1e-11):
    """One-period map of the Hill system at lambda.

    tol bounds its estimated error relative to 1 + max|X| (see _fundamental).
    """
    maps, steps = _fundamental(pot, [float(lam)], tol)
    (b11, b12), (b21, b22) = maps[0]
    return Monodromy(b11=b11, b12=b12, b21=b21, b22=b22, lam=float(lam),
                     pot=pot, tol=tol, steps=int(steps[0]))


def trace_class(tr):
    """'boundary', 'unstable' or 'stable': the class of each monodromy trace
    in tr, as an array of the shape of tr."""
    mag = np.abs(tr)
    return np.where(np.abs(mag - 2.0) <= _BOUNDARY_TOL, "boundary",
                    np.where(mag > 2.0, "unstable", "stable"))


def trace_curve(pot, lams, tol=1e-11):
    """Traces of the monodromy matrices for a grid of lambda values."""
    X = _fundamental(pot, lams, tol)[0]
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
    located by bisection on |trace| - 2 to width (hi-lo)/grid_points * 1e-3,
    traced _LEVELS levels at a time (instability_intervals).
    """
    lams = scan_grid(lambda_range, grid_points)
    return instability_intervals(pot, lams, trace_curve(pot, lams, tol), tol)


def instability_intervals(pot, lams, traces, tol=1e-11):
    """Intervals of a scan from its grid (scan_grid) and the traces on it.

    Only the bisection probes at the interval edges are integrated here, so
    a caller that also needs the grid traces evaluates the grid once.  Each
    edge is bisected on |trace| > 2 until every bracket is below
    (hi - lo) / len(lams) * 1e-3 wide.  One trace_curve call takes the
    midpoints of the next _LEVELS levels of every edge's bisection tree
    (_bisection_tree), and the walk down it picks the same midpoints as
    one call per level would, so the edges are bisection's, bit for bit:
    a lambda's trace does not depend on its batch.
    """
    lo, hi = float(lams[0]), float(lams[-1])
    unstable = np.abs(traces) > 2.0
    # the class flips between lams[i] and lams[i + 1] for each i in flips
    flips = np.flatnonzero(unstable[1:] != unstable[:-1])
    inner = flips + ~unstable[flips]  # the grid index on the unstable side
    # bisect every edge as one batch, a on its stable side, bnd on the other
    a, bnd = lams[flips + unstable[flips]], lams[inner]
    width = (hi - lo) / lams.size * 1e-3
    cols, level = np.arange(flips.size), 0
    while flips.size and np.max(np.abs(bnd - a)) > width:
        if level == 0:  # trace the next _LEVELS levels of every edge's tree at once
            tree = _bisection_tree(a, bnd)
            inside = np.abs(trace_curve(pot, tree.ravel(), tol)).reshape(tree.shape) > 2.0
            node = np.zeros(flips.size, dtype=int)
        mid, ins = tree[node, cols], inside[node, cols]  # mid == 0.5 * (a + bnd)
        bnd = np.where(ins, mid, bnd)
        a = np.where(ins, a, mid)
        node = 2 * node + 2 - ins  # the child whose bracket is the new (a, bnd)
        level = (level + 1) % _LEVELS

    # the edges in order: start, end, start, end, ...
    edges = ([lo] if unstable[0] else []) + bnd.tolist() + ([hi] if unstable[-1] else [])
    return [InstabilityInterval(lambda_lo=lam_lo, lambda_hi=lam_hi,
                                max_abs_trace=float(np.abs(traces[k])),
                                witness_lambda=float(lams[k]))
            for lam_lo, lam_hi, k in zip(edges[0::2], edges[1::2], _witnesses(traces))]


def _witnesses(traces):
    """The grid index of each instability interval's witness, in order:
    the maximum of |trace| over each run of grid points with |trace| > 2."""
    mag = np.abs(traces)
    unstable = np.concatenate([[False], mag > 2.0, [False]])
    runs = np.flatnonzero(unstable[1:] != unstable[:-1]).reshape(-1, 2)  # [start, stop)
    return [i + int(np.argmax(mag[i:j])) for i, j in runs]


def _bisection_tree(a, bnd):
    """The midpoints of the first _LEVELS levels of bisection of every
    bracket (a, bnd), as a heap of shape (2^_LEVELS - 1, edges): node 0 is
    0.5 * (a + bnd), and the children of node i, whose bracket (a', bnd')
    has midpoint c, are node 2i + 1 on (a', c) and node 2i + 2 on
    (c, bnd').  Each midpoint is the one bisection computes from the same
    floats."""
    lo, hi, mids = a[None], bnd[None], []
    for _ in range(_LEVELS):
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        lo = np.stack([lo, mid], axis=1).reshape(-1, a.size)
        hi = np.stack([mid, hi], axis=1).reshape(-1, a.size)
    return np.concatenate(mids)


def find_good_lambda(pot, lams, tol=1e-11):
    """The Monodromy of a lambda interior to an instability interval of the
    scan grid lams (scan_grid) whose kind is 'unstable', with |b21| > 1e-6
    and |b22 - 1/mu| > 1e-6 (mu the signed expanding multiplier).

    One _fundamental sweep maps the grid, and each run of grid points with
    |trace| > 2 is an interval.  Per interval the candidates are its
    witness (the run's maximum of |trace|, _witnesses), then its midpoint.
    A witness's Monodromy is its map and step count from the sweep, those of
    monodromy(pot, witness, tol): a map does not depend on its batch.  The
    edges are bisected (instability_intervals, every edge in one pass)
    only once a witness is rejected, and each candidate is tried only once
    every earlier one has been rejected.  b21 vanishes at the one
    Dirichlet eigenvalue in each interval, so a witness fails the b21 test
    only next to that zero, and the midpoint is the second try.  The
    passing candidate's lambda is m.lam.  ExhaustedSearchError when no
    grid point is unstable or no candidate passes.
    """
    maps, steps = _fundamental(pot, lams, tol)
    traces = maps[:, 0, 0] + maps[:, 1, 1]
    witnesses = _witnesses(traces)
    if not witnesses:
        raise ExhaustedSearchError("no instability interval in the requested range", best=None)

    def candidates():
        intervals = None
        for r, k in enumerate(witnesses):
            (b11, b12), (b21, b22) = maps[k]
            yield Monodromy(b11=b11, b12=b12, b21=b21, b22=b22, lam=float(lams[k]),
                            pot=pot, tol=tol, steps=int(steps[k]))
            if intervals is None:
                intervals = instability_intervals(pot, lams, traces, tol)
            iv = intervals[r]
            yield monodromy(pot, 0.5 * (iv.lambda_lo + iv.lambda_hi), tol)

    best_b21 = 0.0
    for m in candidates():
        if m.kind != "unstable":
            continue
        best_b21 = max(best_b21, abs(m.b21))
        if abs(m.b21) > _B21_MIN and abs(m.b22 - 1.0 / m.expanding) > 1e-6:
            return m
    raise ExhaustedSearchError(
        f"no sample passed the b21/b22 conditions (max |b21| found: {best_b21!r})",
        best=best_b21,
    )


def periods(m, k, data):
    """X(1, 0)^k x0 = 10^e (w_t, w) for whole k >= 0 (an array) and x0 =
    (w0_t, w0) from data (w0, w0_t), floats or shaped like k: arrays
    (w, w_t, e) shaped like k.

    det X = 1 gives X^k = (a_k X - a_{k-1} I) / delta by Cayley-Hamilton,
    a_k = mu^k - mu^-k, delta = mu - 1/mu, mu = m.expanding (Magnus &
    Winkler, Hill's Equation, 1966), with one scalar mu^k per distinct k.
    e = floor(k log10 mu0) once k ln mu0 > 700, else 0; there the mu^-k
    terms drop, and 10^-e mu^k comes from the float mu^k up to k ln mu0 =
    709, then from 10^(k log10 mu0 - e), with an error like k log10 mu0 eps.
    k = 0 gives the data exactly, for any m.  ParameterError unless every k
    is whole and >= 0, and before any work when a k >= 1 meets an m whose
    kind is not 'unstable' (no real multipliers).
    """
    k = np.asarray(k, dtype=float)
    w0, w0_t = (np.broadcast_to(np.asarray(d, dtype=float), k.shape) for d in data)
    whole = (k >= 0.0) & (k == np.floor(k))
    if not whole.all():
        raise ParameterError(f"periods need whole k >= 0, got {np.extract(~whole, k)[0]}")
    past = k >= 1.0
    if not past.any():
        return np.array(w0), np.array(w0_t), np.zeros(k.shape, dtype=int)
    if m.kind != "unstable":
        raise ParameterError(f"k={np.extract(past, k)[0]} periods need real multipliers, "
                             f"and the monodromy at lambda={m.lam!r} is {m.kind}")
    mu, ln_mu = m.expanding, math.log(m.mu0)
    ks, inv = np.unique(k, return_inverse=True)
    coef = []  # (a_k, a_{k-1}, e) per distinct k
    for j in ks.astype(int).tolist():
        e = math.floor(j * math.log10(m.mu0)) if j * ln_mu > 700.0 else 0
        if j * ln_mu < 709.0:  # a_k as written, over 10^e
            muk, muk1 = mu**j, mu ** (j - 1)
            coef.append(((muk - 1.0 / muk) / 10.0**e, (muk1 - 1.0 / muk1) / 10.0**e, e))
        else:
            s = m.sign**j * 10.0 ** (j * math.log10(m.mu0) - e)
            coef.append((s, s / mu, e))
    ak, ak1, e = np.array(coef).T[:, inv.ravel()].reshape((3,) + k.shape)
    delta = mu - 1.0 / mu
    w = np.where(past, (ak * (m.b21 * w0_t + m.b22 * w0) - ak1 * w0) / delta, w0)
    w_t = np.where(past, (ak * (m.b11 * w0_t + m.b12 * w0) - ak1 * w0_t) / delta, w0_t)
    return w, w_t, e.astype(int)


class Propagator:
    """Solutions of the Hill system at m.lam from any data at t = 0.

    x(t) = X(frac, 0) X(1, 0)^k x0 with t = k + frac: the integer periods
    are periods(m, k, data), and X(frac, 0) comes from the m.steps equal
    Magnus steps that made m, on m.pot at m.lam.  Their prefix products
    X(j/N, 0), j = 0 .. N, are made once, by a log-depth scan; X(frac, 0)
    is one Magnus step of length frac - j/N < 1/N from the node j/N below
    frac, times X(j/N, 0).  That step is shorter than the accepted ones, so
    its local error is smaller (sixth order), and one of length 0 is I
    exactly, so a t on a node reads the node.
    """

    def __init__(self, m):
        self.m = m
        n = m.steps
        nodes = np.empty((n + 1, 2, 2))
        nodes[0] = np.identity(2)
        nodes[1:] = _step_maps(m.pot, m.lam, np.arange(n) / n, np.full(n, 1.0 / n))
        d = 1
        while d < n:  # nodes[j] becomes the product of steps j, j - 1, ..., 1
            nodes[d:] = nodes[d:] @ nodes[:-d]
            d *= 2
        self._nodes = nodes

    def __call__(self, t, data):
        """Solution (w, w_t) at each time t >= 0, a float or an array, from
        data (w0, w0_t), both shaped like t: X(frac, 0) times periods' state,
        times 10.0**e; OverflowError names the first t past a float.  The
        products are stacked, so every entry has the bits of a call at its t
        alone."""
        t = np.asarray(t, dtype=float)
        if not (t >= 0.0).all():
            raise ParameterError(
                f"propagate requires t >= 0, got {np.extract(~(t >= 0.0), t)[0]}")
        k = np.floor(t + 1e-13)
        frac = t - k
        frac = np.where(frac < 1e-13, 0.0, frac)
        w, w_t, e = periods(self.m, k, data)
        m, n = self.m, self.m.steps
        node = np.floor(frac * n).ravel()
        maps = (_step_maps(m.pot, m.lam, node / n, frac.ravel() - node / n)
                @ self._nodes[node.astype(int)]).reshape(k.shape + (2, 2))
        x = (maps @ np.stack([w_t, w], axis=-1)[..., None])[..., 0]
        with np.errstate(over="ignore", invalid="ignore"):
            x = x * 10.0 ** e[..., None]
        over = ~np.isfinite(x).all(axis=-1)
        if over.any():
            raise OverflowError(f"the solution overflows a float at t={np.extract(over, t)[0]}")
        return x[..., 1][()], x[..., 0][()]


def _step_maps(pot, lam, t0, h):
    """The Magnus step maps X(t0 + h, t0) at one lambda, for arrays t0 and
    h of one length: shape (len(t0), 2, 2).  h = 0 gives I exactly."""
    ts = t0[:, None] + h[:, None] * _NODES
    w = np.empty((6, t0.size, 1))
    for coef, row in zip(_omega(pot.q(ts), pot.alpha(ts), h), w):
        _horner(coef, np.array([lam]), row)
    return _exp(w)[..., 0].transpose(2, 0, 1)


def propagate(m, t, data):
    """Solution (w, w_t) at time t >= 0 from data (w0, w0_t) at t = 0.

    A fresh Propagator(m), whole periods by periods, at t; callers that
    evaluate many times at one lambda should keep one instead.
    """
    return Propagator(m)(t, data)
