"""Monodromy, multiplier and multi-period propagation checks."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cyclicwave import coeffs, floquet
from cyclicwave.errors import ExhaustedSearchError, IntegrationFailure, ParameterError

import magnus_reference
from conftest import LAM_WITNESS
from dop853_reference import FundamentalPair

# Frozen instability intervals for sqrt-sin eps=0.5, n=3 over (5, 17),
# 200 scan points (bisection-refined, so grid independent past ~100 pts).
IVAL_LO = 5.917536903266331
IVAL_HI = 16.14912452889447


@pytest.fixture(scope="module")
def mono_witness(pot3):
    return floquet.monodromy(pot3, LAM_WITNESS, tol=1e-12)


def test_constant_coefficient_closed_form():
    b = coeffs.constant()
    pot = coeffs.HillPotential(b, n=3)
    for lam in np.linspace(0.7, 80.0, 25):
        m = floquet.monodromy(pot, lam)
        root = math.sqrt(lam)
        assert m.trace == pytest.approx(2.0 * math.cos(root), abs=1e-9)
        assert m.b21 == pytest.approx(math.sin(root) / root, abs=1e-9)
        assert m.det == pytest.approx(1.0, abs=1e-9)


def test_n1_trace_closed_form_nonconstant_b(b05):
    """For n = 1 the time change tau = int b dt turns the mode equation into
    v_tautau + lam v = 0, so trace = 2 cos(sqrt(lam) int_0^1 b) for every
    b; the integral is a periodic trapezoid sum, exact to rounding here."""
    pot = coeffs.HillPotential(b05, n=1)
    lams = np.linspace(0.1, 60.0, 4000)
    integral = float(np.mean(b05.eval(np.arange(256) / 256.0)))
    want = 2.0 * np.cos(np.sqrt(lams) * integral)
    assert np.max(np.abs(floquet.trace_curve(pot, lams) - want)) <= 1e-10


def _hill_edges(pot):
    """The periodic (trace 2) and antiperiodic (trace -2) eigenvalues of
    -y'' + q y = lam alpha y, each sorted, by Hill's method (Deconinck &
    Kutz, J. Comput. Phys. 219, 2006): Galerkin on e^{i(2 pi k + theta) t},
    |k| <= 48, with K = diag((2 pi k + theta)^2) + Toeplitz(q^) and
    A = Toeplitz(alpha^) from 256-point FFTs; A = L L^H turns K c = lam A c
    into the Hermitian eigenproblem of L^-1 K L^-H."""
    t = np.arange(256) / 256.0
    k = np.arange(-48, 49)
    diff = k[:, None] - k[None, :]
    q_hat = (np.fft.fft(pot.q(t)) / 256.0)[diff]
    alpha_hat = (np.fft.fft(pot.alpha(t)) / 256.0)[diff]
    inv_l = np.linalg.inv(np.linalg.cholesky(alpha_hat))
    edges = []
    for theta in (0.0, np.pi):
        K = np.diag((2.0 * np.pi * k + theta) ** 2) + q_hat
        edges.append(np.linalg.eigvalsh(inv_l @ K @ inv_l.conj().T))
    return edges


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_interval_edges_match_hills_method(n, eps):
    """Hill's method takes no Magnus step.  Its eigenvalues, sorted together
    as e0 < e1 <= e2 < e3 <= e4 ..., bound the gaps (-inf, e0), (e1, e2),
    (e3, e4), ...  A 4000-point scan on (0.1, 60) puts every refined edge
    within the bisection width of an eigenvalue of its interval's trace
    sign (periodic above 2, antiperiodic below -2), and finds one interval
    in each gap that covers more than a grid spacing of the range.  n = 1
    has none: its trace is 2 cos(sqrt(lam) int b), so every gap is closed."""
    lo, hi, grid = 0.1, 60.0, 4000
    pot = coeffs.HillPotential(coeffs.sqrt_sin(eps), n)
    ivs = floquet.scan_instability(pot, (lo, hi), grid)
    periodic, antiperiodic = _hill_edges(pot)
    width = (hi - lo) / grid * 1e-3
    for iv in ivs:
        above = floquet.trace_curve(pot, [iv.witness_lambda])[0] > 0.0
        same_sign = periodic if above else antiperiodic
        for edge in (iv.lambda_lo, iv.lambda_hi):
            if lo < edge < hi:
                assert np.min(np.abs(same_sign - edge)) <= width, edge
    # eigenvalues run far past hi, so a gap that straddles hi is paired
    e = np.sort(np.concatenate([periodic, antiperiodic]))
    gaps = [(max(a, lo), min(b, hi))
            for a, b in [(-math.inf, e[0])] + list(zip(e[1::2], e[2::2]))]
    open_gaps = [(a, b) for a, b in gaps if b - a > (hi - lo) / (grid - 1)]
    for a, b in open_gaps:
        assert any(a - width <= iv.lambda_lo and iv.lambda_hi <= b + width
                   for iv in ivs), (a, b)
    assert len(ivs) == len(open_gaps)
    assert (n == 1) == (not ivs)


def test_determinant_is_one(pot3):
    for lam in np.linspace(0.3, 55.0, 40):
        assert floquet.monodromy(pot3, lam).det == pytest.approx(1.0, abs=1e-9)


def test_monodromy_against_direct_ode(pot3):
    """Independent oracle: build the fundamental matrix columns with a
    generic stiff integrator at tight tolerance."""
    lam = LAM_WITNESS

    def rhs(t, y):
        bt = float(pot3.b.eval(t))
        return [y[1], -(lam * bt * bt - float(pot3.q(t))) * y[0]]

    cols = []
    for y0 in ([1.0, 0.0], [0.0, 1.0]):
        s = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                      rtol=1e-12, atol=1e-14)
        cols.append(s.y[:, -1])
    m = floquet.monodromy(pot3, lam, tol=1e-12)
    # the package state is (w_t, w): the (1,0) data is w=0, w_t=1
    w_a, wt_a = cols[0]  # from w=1, w_t=0
    w_b, wt_b = cols[1]  # from w=0, w_t=1
    assert m.b22 == pytest.approx(w_a, rel=1e-9)
    assert m.b12 == pytest.approx(wt_a, rel=1e-9)
    assert m.b21 == pytest.approx(w_b, rel=1e-9)
    assert m.b11 == pytest.approx(wt_b, rel=1e-9)


def test_scan_finds_frozen_interval(pot3):
    ivals = floquet.scan_instability(pot3, (5.0, 17.0), 200)
    assert len(ivals) == 1
    iv = ivals[0]
    assert iv.lambda_lo == pytest.approx(IVAL_LO, rel=1e-8)
    assert iv.lambda_hi == pytest.approx(IVAL_HI, rel=1e-8)
    assert iv.max_abs_trace > 2.0 + 1e-3
    assert IVAL_LO < iv.witness_lambda < IVAL_HI


def _bisected_intervals(pot, lams, traces, tol=1e-11):
    """instability_intervals as it was with one trace_curve call per
    bisection level: the oracle for its edges."""
    lo, hi = float(lams[0]), float(lams[-1])
    unstable = np.abs(traces) > 2.0
    flips = np.flatnonzero(unstable[1:] != unstable[:-1])
    inner = flips + ~unstable[flips]
    a, bnd = lams[flips + unstable[flips]], lams[inner]
    width = (hi - lo) / lams.size * 1e-3
    while flips.size and np.max(np.abs(bnd - a)) > width:
        mid = 0.5 * (a + bnd)
        inside = np.abs(floquet.trace_curve(pot, mid, tol)) > 2.0
        bnd = np.where(inside, mid, bnd)
        a = np.where(inside, a, mid)
    edges = ([(0, lo)] if unstable[0] else []) + list(zip(inner, bnd.tolist())) \
        + ([(lams.size - 1, hi)] if unstable[-1] else [])
    intervals = []
    for (i, lam_lo), (j, lam_hi) in zip(edges[0::2], edges[1::2]):
        k = i + np.argmax(np.abs(traces[i:j + 1]))
        intervals.append(floquet.InstabilityInterval(
            lambda_lo=lam_lo, lambda_hi=lam_hi,
            max_abs_trace=float(np.abs(traces[k])), witness_lambda=float(lams[k])))
    return intervals


@pytest.mark.parametrize("b, n, lam_range, grid, count", [
    ("sqrt-sin", 3, (0.1, 60.0), 4000, 2),  # the reference chart
    ("sqrt-sin", 3, (0.1, 60.0), 400, 2),  # certify's scan
    ("constant", 3, (0.1, 60.0), 1000, 0),  # a --constant-b chart
    ("sqrt-sin", 3, (10.0, 40.0), 500, 2),  # both ends of the grid unstable
    ("eps0.8", 2, (0.1, 60.0), 1000, 2),
], ids=["chart", "certify", "constant-b", "open-ends", "n2-eps0.8"])
def test_edges_match_bisection(b05, b, n, lam_range, grid, count, monkeypatch):
    """The sidecar's intervals are those of one bisection level per
    trace_curve call, bit for bit, from two calls for the ten levels."""
    coef = {"sqrt-sin": b05, "constant": coeffs.constant(),
            "eps0.8": coeffs.sqrt_sin(0.8)}[b]
    pot = coeffs.HillPotential(coef, n)
    lams = floquet.scan_grid(lam_range, grid)
    traces = floquet.trace_curve(pot, lams)
    want = _bisected_intervals(pot, lams, traces)
    calls = []
    real = floquet.trace_curve

    def counted(pot, lams, tol=1e-11):
        calls.append(len(lams))
        return real(pot, lams, tol)

    monkeypatch.setattr(floquet, "trace_curve", counted)
    assert floquet.instability_intervals(pot, lams, traces) == want
    edges = np.count_nonzero(np.diff(np.abs(traces) > 2.0))
    assert calls == ([31 * edges] * 2 if edges else [])
    assert len(want) == count


def test_bisection_tree_is_bisections_midpoints():
    """Every node of the tree is 0.5 * (a + bnd) of the bracket that
    bisection reaches by the same choices."""
    rng = np.random.default_rng(3)
    a, bnd = rng.uniform(0.1, 60.0, 7), rng.uniform(0.1, 60.0, 7)
    tree = floquet._bisection_tree(a, bnd)
    assert tree.shape == (2**floquet._LEVELS - 1, 7)
    stack = [(0, a, bnd)]
    while stack:
        node, lo, hi = stack.pop()
        mid = 0.5 * (lo + hi)
        assert np.array_equal(tree[node], mid)
        if 2 * node + 2 < len(tree):
            stack += [(2 * node + 1, lo, mid), (2 * node + 2, mid, hi)]


def test_find_good_lambda(pot3):
    m = floquet.find_good_lambda(pot3, floquet.scan_grid((5.0, 17.0), 400))
    assert m.lam == pytest.approx(LAM_WITNESS, rel=1e-10)
    assert m.kind == "unstable"
    assert abs(m.b21) > 1e-6
    assert m.pot is pot3 and m.tol == 1e-11


def _count_calls(monkeypatch, name):
    """The argument tuples of the calls to floquet.<name>, in order."""
    calls = []
    real = getattr(floquet, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(floquet, name, counted)
    return calls


def test_find_good_lambda_is_lazy(pot3, monkeypatch):
    """A witness that passes is the sweep's own map: one _fundamental call,
    no monodromy call and no edge bisection, with the bits and step count
    of monodromy at the witness."""
    lams = floquet.scan_grid((5.0, 17.0), 400)
    alone = floquet.monodromy(pot3, LAM_WITNESS)
    sweeps = _count_calls(monkeypatch, "_fundamental")
    calls = _count_calls(monkeypatch, "monodromy")
    bisections = _count_calls(monkeypatch, "instability_intervals")
    m = floquet.find_good_lambda(pot3, lams)
    assert len(sweeps) == 1 and calls == [] and bisections == []
    assert m.lam == LAM_WITNESS
    assert m.matrix.tobytes() == alone.matrix.tobytes() and m.steps == alone.steps


def _candidate_order(intervals, lams, traces):
    """The grid indices of each interval's grid points (scan_instability's
    intervals), interval by interval, each interval's by decreasing |trace|
    with ties in grid order."""
    mag = np.abs(traces)
    order = []
    for iv in intervals:
        inside = np.flatnonzero((lams >= iv.lambda_lo) & (lams <= iv.lambda_hi))
        order += sorted(inside.tolist(), key=lambda k: -mag[k])
    return order


def _good_lambda_from_intervals(intervals, lams, pot, tol=1e-11):
    """The search on scan_instability's intervals, one monodromy call per
    grid point: per interval its grid points by decreasing |trace| of their
    own maps, the first that passes."""
    for iv in intervals:
        inside = lams[(lams >= iv.lambda_lo) & (lams <= iv.lambda_hi)]
        ms = sorted((floquet.monodromy(pot, lam, tol) for lam in inside),
                    key=lambda m: -abs(m.trace))
        for m in ms:
            if m.kind == "unstable" and abs(m.b21) > 1e-6 \
                    and abs(m.b22 - 1.0 / m.expanding) > 1e-6:
                return m
    return None


_KIND = floquet.Monodromy.kind.func  # the class rule, read before any patch


def _rejecting_kind(monkeypatch, rejected):
    """Monodromy.kind reads 'stable' for the first `rejected` reads; the
    Monodromies it is read on, in order."""
    seen = []

    def rejecting(m):
        seen.append(m)
        if len(seen) <= rejected:
            return "stable"
        return _KIND(m)

    monkeypatch.setattr(floquet.Monodromy, "kind", property(rejecting))
    return seen


@pytest.mark.parametrize("rejected", [1, 2, "first run"])
def test_find_good_lambda_tries_run_points_by_abs_trace(pot3, monkeypatch, rejected):
    """An interval's candidates are its grid points by decreasing |trace|,
    the witness first, and the next interval's follow once all of them are
    rejected.  Each candidate is the sweep's map, with the bits and step
    count of monodromy at its lambda: one _fundamental call, no monodromy
    call and no edge bisection, whichever candidate passes.  The first
    candidate not rejected passes."""
    lams = floquet.scan_grid((0.1, 60.0), 400)
    intervals = floquet.scan_instability(pot3, (0.1, 60.0), 400)
    order = _candidate_order(intervals, lams, floquet.trace_curve(pot3, lams))
    first = [k for k in order if intervals[0].lambda_lo <= lams[k] <= intervals[0].lambda_hi]
    assert len(intervals) == 2 and len(first) > 2
    assert lams[order[0]] == intervals[0].witness_lambda
    assert lams[order[len(first)]] == intervals[1].witness_lambda
    if rejected == "first run":
        rejected = len(first)
    seen = _rejecting_kind(monkeypatch, rejected)
    sweeps = _count_calls(monkeypatch, "_fundamental")
    calls = _count_calls(monkeypatch, "monodromy")
    bisections = _count_calls(monkeypatch, "instability_intervals")
    m = floquet.find_good_lambda(pot3, lams)
    assert [c.lam for c in seen] == lams[order[:rejected + 1]].tolist()
    assert len(sweeps) == 1 and calls == [] and bisections == []
    assert m is seen[-1] and m.lam == lams[order[rejected]]
    monkeypatch.undo()
    for c in seen:
        alone = floquet.monodromy(pot3, c.lam)
        assert c.matrix.tobytes() == alone.matrix.tobytes() and c.steps == alone.steps


@pytest.mark.parametrize("rejected", [0, 1, 2])
def test_find_good_lambda_keeps_the_interval_search_bits(pot3, monkeypatch, rejected):
    """The Monodromy is the one the search on scan_instability's intervals
    finds, monodromy call by monodromy call, bit for bit: a grid point's map
    from the sweep is its map alone, and the runs of the sweep are the
    grid points inside the bisected intervals."""
    lams = floquet.scan_grid((0.1, 60.0), 400)
    _rejecting_kind(monkeypatch, rejected)
    got = floquet.find_good_lambda(pot3, lams)
    intervals = floquet.scan_instability(pot3, (0.1, 60.0), 400)
    _rejecting_kind(monkeypatch, rejected)
    ref = _good_lambda_from_intervals(intervals, lams, pot3)
    assert (got.b11, got.b12, got.b21, got.b22, got.lam, got.steps) \
        == (ref.b11, ref.b12, ref.b21, ref.b22, ref.lam, ref.steps)
    assert got.pot is ref.pot and got.tol == ref.tol


def test_find_good_lambda_reports_the_largest_b21(pot3, monkeypatch):
    """With no grid point passing the b21 test, the search ends in
    ExhaustedSearchError whose best is the largest |b21| over the sweep's
    unstable points."""
    lams = floquet.scan_grid((0.1, 60.0), 400)
    maps = floquet._fundamental(pot3, lams, 1e-11)[0]
    unstable = floquet.trace_class(maps[:, 0, 0] + maps[:, 1, 1]) == "unstable"
    monkeypatch.setattr(floquet, "_B21_MIN", 1e300)
    with pytest.raises(ExhaustedSearchError, match="no sample passed the b21/b22") as info:
        floquet.find_good_lambda(pot3, lams)
    assert unstable.any()
    assert info.value.best == np.max(np.abs(maps[unstable, 1, 0]))


def test_find_good_lambda_without_an_unstable_point(pot3):
    with pytest.raises(ExhaustedSearchError, match="no instability interval"):
        floquet.find_good_lambda(pot3, floquet.scan_grid((1.0, 4.0), 100))


def test_multiplier_kinds(pot3):
    stable = floquet.monodromy(pot3, 3.0)
    unstable = floquet.monodromy(pot3, LAM_WITNESS)
    assert stable.kind == "stable" and stable.mu0 == 1.0
    assert unstable.kind == "unstable"
    assert unstable.mu0 > 1.0
    assert unstable.sign == -1  # trace is below -2 on this interval
    assert unstable.expanding == -unstable.mu0
    # the multipliers are the eigenvalues of X(1,0)
    assert sorted(np.linalg.eigvals(unstable.matrix).real) == pytest.approx(
        [unstable.expanding, 1.0 / unstable.expanding], rel=1e-9)


def test_boundary_kind():
    """b == 1 at lambda = 4 pi^2 has trace 2 cos(2 pi) = 2, computed as
    2 + 8e-15: the boundary class, not 'unstable'."""
    m = floquet.monodromy(coeffs.HillPotential(coeffs.constant(), 3), 4.0 * math.pi**2)
    assert abs(m.trace - 2.0) < 1e-13
    assert m.kind == "boundary"


def test_monodromy_refuses_det_off_one(pot3):
    """det X(1,0) = 1 is checked once, when a Monodromy is made."""
    with pytest.raises(ParameterError, match="determinant"):
        floquet.Monodromy(b11=1.0 + 2e-6, b12=0.0, b21=0.0, b22=1.0,
                          lam=LAM_WITNESS, pot=pot3, tol=1e-11, steps=64)
    floquet.Monodromy(b11=1.0 + 5e-7, b12=0.0, b21=0.0, b22=1.0,
                      lam=LAM_WITNESS, pot=pot3, tol=1e-11, steps=64)


def test_multi_period_closed_form(pot3, mono_witness):
    """W(10) and V(10), the w of periods from the data (w, w_t) = (0, 1)
    and (1, 0), against direct 10-period integration of the fundamental
    pair."""
    pair = FundamentalPair(pot3, LAM_WITNESS, tol=1e-12)
    (W, V), _, e = floquet.periods(mono_witness, [10, 10], ([0.0, 1.0], [1.0, 0.0]))
    assert e.tolist() == [0, 0]
    assert W == pytest.approx(pair.W(10.0), rel=1e-8)
    assert V == pytest.approx(pair.V(10.0), rel=1e-8)


def test_multi_period_m1_reduction(mono_witness):
    """One period is X(1, 0) itself; k = 0 gives the data bit for bit, at
    any lambda, and k >= 1 is refused where the multipliers are not real.
    A k that is not whole, not finite or at least 2^63 (where astype(int)
    wraps) is refused before any work, at any lambda."""
    (W, V), (W_t, V_t), _ = floquet.periods(mono_witness, [1, 1], ([0.0, 1.0], [1.0, 0.0]))
    assert [W, V, W_t, V_t] == pytest.approx(
        [mono_witness.b21, mono_witness.b22, mono_witness.b11, mono_witness.b12], rel=1e-12)
    stable = floquet.monodromy(coeffs.HillPotential(coeffs.sqrt_sin(0.3), 2), 7.25, tol=1e-9)
    data = (np.array([0.3, -0.0, 1e-300]), np.array([-1.2, 5.0, -0.0]))
    for m in (mono_witness, stable):
        w, w_t, e = floquet.periods(m, np.zeros(3), data)
        assert np.array([w, w_t]).tobytes() == np.array(data).tobytes()
        assert e.tolist() == [0, 0, 0]
    with pytest.raises(ParameterError, match=r"^k=2\.0 periods .* is stable$"):
        floquet.periods(stable, [0, 2, 3], (0.0, 1.0))
    with pytest.raises(ParameterError, match=r"got 1\.5$"):
        floquet.periods(mono_witness, [1, 1.5, -1], (0.0, 1.0))
    for bad in (math.inf, math.nan, 1e300, 2.0**63):
        for m in (mono_witness, stable):
            with pytest.raises(ParameterError, match=rf"0 <= k < 2\^63, got {re.escape(str(bad))}$"):
                floquet.periods(m, [1.0, bad], (0.0, 1.0))


def test_multi_period_overflow_guard(mono_witness):
    """Past k ln mu0 > 700, W(k) = 10^e w with a finite w: at k = 3000 its
    magnitude is the closed form's; at every k with 700 < k ln mu0 < 709,
    where the plain floats exist too, w 10^e is the unscaled closed form
    b21 (mu^k - mu^-k) / (mu - 1/mu) within 4 ulp."""
    m = mono_witness
    (W, V), _, (e, _) = floquet.periods(m, [3000, 3000], ([0.0, 1.0], [1.0, 0.0]))
    assert e > 0 and math.isfinite(W) and math.isfinite(V)
    # reconstructed magnitude: log10|W(3000)| = log10|w| + e
    mu0 = m.mu0
    expect = 3000.0 * math.log10(mu0) + math.log10(abs(m.b21) / (mu0 - 1.0 / mu0))
    assert math.log10(abs(W)) + e == pytest.approx(expect, abs=1e-6)

    ks = np.arange(math.floor(700.0 / math.log(mu0)) + 1, math.ceil(709.0 / math.log(mu0)))
    assert ks.size > 5 and ks[0] * math.log(mu0) > 700.0 > (ks[0] - 1) * math.log(mu0)
    w, _, e = floquet.periods(m, ks, (0.0, 1.0))
    mu, plain = m.expanding, []
    for k in ks.tolist():
        muk = mu**k
        plain.append(m.b21 * (muk - 1.0 / muk) / (mu - 1.0 / mu))
    assert np.all(e > 300)
    assert np.all(np.abs(w * 10.0**e - plain) <= 4.0 * np.spacing(np.abs(plain)))


@pytest.mark.parametrize("n", [2, 3])
def test_periods_stay_near_matrix_power(b05, n):
    """Every X(1, 0)^k of periods, up to the last k with k ln mu0 <= 700
    (882 at n = 3, 1774 at n = 2), lies within 6 k eps max|X^k| of numpy's
    matrix_power at the reference good lambda (measured: 5.42 at k = 880,
    n = 3): the Cayley-Hamilton coefficients carry mu's rounding k times."""
    m = floquet.find_good_lambda(coeffs.HillPotential(b05, n), floquet.scan_grid((0.1, 60.0), 400))
    ks = np.arange(1, math.floor(700.0 / math.log(m.mu0)) + 1)
    assert ks[-1] == {2: 1774, 3: 882}[n]
    (W, V), (W_t, V_t), e = floquet.periods(m, np.stack([ks, ks]), ([[0.0], [1.0]], [[1.0], [0.0]]))
    assert not e.any()
    for k, X in zip(ks.tolist(), np.array([[W_t, V_t], [W, V]]).transpose(2, 0, 1)):
        power = np.linalg.matrix_power(m.matrix, k)
        assert np.max(np.abs(X - power)) <= 6.0 * k * np.finfo(float).eps * np.max(np.abs(power))


def test_propagate_matches_direct(pot3, mono_witness):
    pair = FundamentalPair(pot3, LAM_WITNESS, tol=1e-12)
    for t in (0.25, 2.5, 7.75, 12.0):
        w, wt = floquet.propagate(mono_witness, t, (0.0, 1.0))
        X = pair.matrix(t)  # W = X[1, 0] and W_t = X[0, 0] from one run
        assert w == pytest.approx(X[1, 0], rel=1e-9, abs=1e-12)
        assert wt == pytest.approx(X[0, 0], rel=1e-9, abs=1e-12)


def test_propagate_linearity(pot3, mono_witness):
    rng = np.random.default_rng(3)
    a, b, c, d = rng.normal(size=4)
    t = 5.5
    w1 = floquet.propagate(mono_witness, t, (a, b))
    w2 = floquet.propagate(mono_witness, t, (c, d))
    w3 = floquet.propagate(mono_witness, t, (a + 2 * c, b + 2 * d))
    assert w3[0] == pytest.approx(w1[0] + 2 * w2[0], rel=1e-9, abs=1e-12)
    assert w3[1] == pytest.approx(w1[1] + 2 * w2[1], rel=1e-9, abs=1e-12)


def test_propagator_integrates_with_the_monodromys_pot_and_tol(monkeypatch):
    """Fractional maps come from m.pot at m.lam on the m.steps accepted
    steps of the monodromy's own integration, and no step controller runs
    again: nothing else is passed that could disagree with it.  At the
    stable lambda 7.25 that holds in the first period, and a t past it is
    refused before any step; at the unstable 10.0, past it too."""
    pot = coeffs.HillPotential(coeffs.sqrt_sin(0.3), 2)
    real = floquet._step_maps

    def no_controller(*args):
        raise AssertionError("Propagator ran the step controller")

    ms = [floquet.monodromy(pot, lam, tol=1e-9) for lam in (7.25, 10.0)]
    assert [m.kind for m in ms] == ["stable", "unstable"]
    monkeypatch.setattr(floquet, "_fundamental", no_controller)
    for m, t in zip(ms, ([0.5, 0.3, 0.0], [2.5, 3.3, 4.0])):
        seen = []

        def recorded(pot, lam, t0, h):
            seen.append((pot, lam, t0.copy(), h.copy()))
            return real(pot, lam, t0, h)

        monkeypatch.setattr(floquet, "_step_maps", recorded)
        prop = floquet.Propagator(m)
        prop(np.array(t), (0.0, 1.0))
        assert len(seen) == 2 and all(p is pot and lam == m.lam for p, lam, _, _ in seen)
        (_, _, t0, h), (_, _, t0_rest, h_rest) = seen
        assert np.array_equal(t0, np.arange(m.steps) / m.steps)
        assert np.all(h == 1.0 / m.steps)
        # 0.5 and 0.0 (2.5 and 4.0) are nodes (a step of length 0); 0.3 (3.3)
        # is one shorter step past the node below it
        assert np.all(h_rest[[0, 2]] == 0.0) and 0.0 < h_rest[1] < 1.0 / m.steps
        assert t0_rest + h_rest == pytest.approx([0.5, 0.3, 0.0], abs=1e-15)
    prop = floquet.Propagator(ms[0])
    seen.clear()
    with pytest.raises(ParameterError, match=r"^k=2\.0 periods"):
        prop(np.array([0.5, 2.5, 3.3]), (0.0, 1.0))
    assert seen == []


def test_propagator_takes_arrays_of_t(mono_witness, monkeypatch):
    """An array of t, here 2-D with t = 0, whole periods and repeated
    phases, and data of floats or shaped like t, gives (w, w_t) shaped like
    t with the bits of per-element float calls, and runs no step
    controller; an empty array gives empty arrays.  At the stable lambda
    7.25 the array stays in the first period, and a t past it is refused,
    naming its whole periods; at the unstable 10.0 it runs to 7.75.  The
    errors name the first negative t and the first t whose value is not a
    finite float."""
    pot = coeffs.HillPotential(coeffs.sqrt_sin(0.3), 2)
    stable, unstable = (floquet.monodromy(pot, lam, tol=1e-9) for lam in (7.25, 10.0))
    data = (0.3, -1.2)

    def no_controller(*args):
        raise AssertionError("Propagator ran the step controller")

    monkeypatch.setattr(floquet, "_fundamental", no_controller)
    for m, t in ((stable, [[0.0, 0.5, 0.25, 0.125], [0.0, 0.75, 0.25, 0.75]]),
                 (unstable, [[0.0, 2.0, 2.25, 5.25], [3.0, 0.75, 0.25, 7.75]])):
        t = np.array(t)
        # data of floats, then data shaped like t, an entry's own per t
        for d in (data, (0.3 + t, -1.2 - t)):
            w, w_t = floquet.Propagator(m)(t, d)
            assert w.shape == w_t.shape == t.shape
            for i in np.ndindex(t.shape):
                one_d = tuple(np.broadcast_to(x, t.shape)[i] for x in d)
                one = floquet.Propagator(m)(float(t[i]), one_d)
                assert all(isinstance(v, float) for v in one)
                assert np.array([w[i], w_t[i]]).tobytes() == np.array(one).tobytes()
    with pytest.raises(ParameterError, match=r"^k=2\.0 periods .* is stable$"):
        floquet.Propagator(stable)(np.array([0.5, 2.25, 5.0]), data)
    empty = floquet.Propagator(stable)(np.array([]), data)
    assert [v.shape for v in empty] == [(0,), (0,)]
    with pytest.raises(ParameterError, match=r"got -0\.5$"):
        floquet.Propagator(stable)(np.array([1.0, -0.5, -2.0]), data)
    # an infinite t has infinitely many whole periods: refused, not an IndexError
    with pytest.raises(ParameterError, match=r"got inf$"):
        floquet.Propagator(mono_witness)(np.array([1.0, math.inf]), data)
    t_over = 800.0 / math.log(mono_witness.mu0)
    with pytest.raises(OverflowError, match=rf"at t={t_over + 0.5}$"):
        floquet.Propagator(mono_witness)(np.array([1.0, t_over + 0.5, 2 * t_over]), data)


@pytest.fixture(scope="module")
def shared_propagator(pot3, mono_witness):
    return floquet.Propagator(mono_witness)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(t=st.floats(0.0, 12.0),
       data=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_propagator_property(pot3, mono_witness, shared_propagator, t, data):
    """X(frac,0) X(1,0)^k x0 against direct integration from t = 0, and a
    Propagator that has been called before against a fresh one."""
    w0, w0_t = data
    X = FundamentalPair(pot3, LAM_WITNESS, tol=1e-12).matrix(t)
    w, wt = floquet.propagate(mono_witness, t, data)
    # relative to the size of the two terms, so cancellation in the sum
    # cannot make the bound meaningless
    for got, (c_wt, c_w) in ((wt, X[0]), (w, X[1])):
        scale = abs(c_wt * w0_t) + abs(c_w * w0)
        assert abs(got - (c_wt * w0_t + c_w * w0)) <= 1e-9 * scale + 1e-12
    # propagate is a fresh Propagator; the shared one keeps no state
    # between calls
    assert shared_propagator(t, data) == (w, wt)
    assert shared_propagator(t, data) == (w, wt)


# tol drawn log-uniformly over [1e-13, 1e-9]
_TOLS = st.floats(-13.0, -9.0).map(lambda e: min(max(10.0**e, 1e-13), 1e-9))
# The property tests' DOP853 oracle: well below the smallest drawn tol, so a
# 10 tol bound measures the Magnus map rather than the oracle, and above
# scipy's 100 eps floor on rtol, whose warning is an error here.
_ORACLE_TOL = 3e-14


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.1, 60.0, exclude_min=True, exclude_max=True),
       tol=_TOLS)
def test_monodromy_property(pot3, lam, tol):
    """det X(1,0) = 1 by construction, and the map agrees with the DOP853
    oracle within 10 times its error estimate."""
    m = floquet.monodromy(pot3, lam, tol)
    assert abs(m.det - 1.0) <= 1e-12
    X = FundamentalPair(pot3, lam, tol=_ORACLE_TOL).matrix(1.0)
    assert np.max(np.abs(m.matrix - X)) <= 10.0 * tol * (1.0 + np.max(np.abs(X)))


@pytest.fixture(scope="module")
def full_curve(pot3):
    lams = np.linspace(0.1, 60.0, 400)
    return lams, floquet.trace_curve(pot3, lams)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(idx=st.lists(st.integers(0, 399), min_size=1, max_size=40,
                    unique=True))
def test_trace_curve_independent_of_batch(pot3, full_curve, idx):
    """Any sub-batch, in any order, gives the traces of the full batch, bit
    for bit."""
    lams, traces = full_curve
    sub = floquet.trace_curve(pot3, lams[idx])
    assert np.array_equal(sub, traces[idx])


@pytest.mark.parametrize("size", [1, 37, 999])
def test_chart_traces_independent_of_batch_width(pot3, size):
    """Sub-batches of the 4000-lambda chart grid run in blocks of other
    widths, so in chunks of other step counts, and give the same traces bit
    for bit: the kernel is elementwise in lambda, and the chunk products
    merge into the one pairwise tree over all the steps."""
    lams = np.linspace(0.1, 60.0, 4000)
    traces = floquet.trace_curve(pot3, lams)
    idx = np.arange(3999, -1, -(4000 // size))[:size]
    assert np.array_equal(floquet.trace_curve(pot3, lams[idx]), traces[idx])


_EPS = np.finfo(float).eps


def _omega_size(m, h):
    """The closed forms of floquet._omega with every node value replaced by
    m >= |c| and every sign made positive: the size of the terms each entry
    sums, which bounds its rounding error."""
    m1, m2, m3 = m[:, 0], m[:, 1], m[:, 2]
    d, e, H = m3 + m1, m3 + 2.0 * m2 + m1, h * h
    return (math.sqrt(15.0) * H * d * (12.0 * m2 * H + e * H + 180.0) / 6480.0,
            h * (3.0 * m2 * d * d * H * H + 120.0 * m2 * e * H + 6480.0 * m2
                 + 90.0 * d * d * H + 20.0 * e * e * H + 1800.0 * e) / 6480.0,
            h * (d * d * H * H + 40.0 * e * H + 2160.0) / 2160.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), log2_h=st.integers(-14, 0),
       lam_scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_omega_matches_commutator_oracle(seed, log2_h, lam_scale):
    """The exponent as polynomials in lambda, evaluated by Horner, against
    the commutator algebra at random node values c = q - lambda alpha:
    within 16 ulp of the size of the terms each entry sums."""
    rng = np.random.default_rng(seed)
    h = 2.0**log2_h
    q, alpha = rng.uniform(-50.0, 50.0, (8, 3)), rng.uniform(0.1, 3.0, (8, 3))
    lams = rng.uniform(0.0, 1e3, 5) * lam_scale
    want = magnus_reference.omega(q[..., None] - alpha[..., None] * lams, h)
    size = _omega_size(np.abs(q)[..., None] + alpha[..., None] * lams, h)
    for coef, ref, s in zip(floquet._omega(q, alpha, h), want, size):
        got = np.empty_like(ref)
        floquet._horner(coef, lams, got)
        assert np.all(np.abs(got - ref) <= 16.0 * _EPS * s)


def _exp(p, q, r):
    """floquet._exp of the elements (p, q, r), as a (2, 2, elements) copy."""
    w = np.empty((6, 1, np.size(p)))
    w[:3, 0] = p, q, r
    with np.errstate(over="ignore", invalid="ignore"):
        return floquet._exp(w)[:, :, 0].copy()


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["grows", "turns"])
@pytest.mark.parametrize("delta", [0.0, 1e-300, 2.0**-7 * (1.0 - 2.0**-20), 2.0**-7,
                                   2.0**-7 * (1.0 + 2.0**-20), 0.35, 60.0, 1e4])
def test_exp_matches_trig_oracle(delta, sign):
    """exp(Omega) from one Taylor series with scaling and squaring against
    cos/cosh and sin/sinh of sqrt|delta|, for 64 random Omega with
    p^2 + qr = sign * delta: entries within 4 ulp (1 + |entry|) times
    1 + sqrt|delta|, the condition number of exp(Omega) in delta, and det
    within 1e-14 of 1 relative to the products it subtracts."""
    rng = np.random.default_rng(7)
    p = rng.uniform(-1.0, 1.0, 64)
    q = rng.uniform(0.5, 2.0, 64) * rng.choice([-1.0, 1.0], 64)
    r = (sign * delta - p * p) / q
    got = _exp(p, q, r)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        want = np.reshape(magnus_reference.exp((p, q, r)), (2, 2, 64))
    bound = 4.0 * _EPS * (1.0 + np.abs(want)) * (1.0 + math.sqrt(delta))
    assert np.all(np.abs(got - want) <= bound)
    ad, bc = got[0, 0] * got[1, 1], got[0, 1] * got[1, 0]
    assert np.all(np.abs(ad - bc - 1.0) <= 1e-14 * (1.0 + np.abs(ad) + np.abs(bc)))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_exp_of_non_finite_delta_is_non_finite(bad):
    """A non-finite delta gives a non-finite map, so no controller test
    passes it; its neighbours, one scaled (delta = 0.35) and one not, keep
    the entries they have alone."""
    p, q, r = np.array([0.1, 0.2, 0.03]), np.ones(3), np.array([0.35 - 0.01, bad, 1e-3])
    got = _exp(p, q, r)
    assert not np.all(np.isfinite(got[:, :, 1]))
    for i in (0, 2):
        assert np.array_equal(got[:, :, i], _exp(p[i:i + 1], q[i:i + 1], r[i:i + 1])[:, :, 0])


def test_exp_past_resolvable_angle_is_nan():
    """A step with |delta| >= 2^57 turns through an angle sqrt|delta| that
    its doublings resolve to no digit: its entries are nan (finite and
    meaningless at delta = -2^200 before), while its neighbour at -2^56
    keeps the finite entries it has alone."""
    p, q, r = np.zeros(3), -np.ones(3), np.array([2.0**200, 2.0**57, 2.0**56])  # delta = -r
    got = _exp(p, q, r)
    assert np.all(np.isnan(got[:, :, :2]))
    assert np.all(np.isfinite(got[:, :, 2]))
    assert np.array_equal(got[:, :, 2], _exp(p[2:], q[2:], r[2:])[:, :, 0])


def test_lambda_past_the_step_cap_fails_with_its_message(pot3):
    """lambda = 1e60, whose steps all have |delta| >= 2^57, still fails at
    the step cap, naming the cap, tol and lambda."""
    with pytest.raises(IntegrationFailure) as info:
        floquet.monodromy(pot3, 1e60)
    assert str(info.value) == (f"{floquet._MAX_STEPS} Magnus steps leave X(1, 0) "
                               f"above tol=1e-11 at lambda 1e+60")


def test_product_tree_is_the_reference_tree():
    """The pairwise tree in its buffers multiplies exactly as the reference
    tree: same pairs, same order of terms, the same bits."""
    step = np.random.default_rng(3).normal(size=(4, 64, 5))
    work = np.empty((8, 64, 5))
    work[:4, floquet._bit_reversal(64)] = step
    got = floquet._product(work[:4].reshape(2, 2, 64, 5), work)
    assert np.array_equal(got.transpose(2, 0, 1), magnus_reference.product(tuple(step)))


@pytest.mark.parametrize("steps", [16, 64, 256])
def test_magnus_matches_reference_kernel(pot3, steps):
    """The whole step, lambda blocks and step chunks included, against the
    reference kernel over 1000 lambda: within 1e-13 (1 + |entry|)."""
    lams = np.linspace(0.1, 60.0, 1000)
    want = magnus_reference.magnus(pot3, lams, 1.0, steps)
    got = floquet._magnus(pot3, lams, steps)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


def _map(prop, t):
    """X(t, 0) as prop reads it: its columns are the solutions from the data
    (w, w_t) = (0, 1) and (1, 0), each as (w_t, w)."""
    (w_a, wt_a), (w_b, wt_b) = prop(t, (0.0, 1.0)), prop(t, (1.0, 0.0))
    return np.array([[wt_a, wt_b], [w_a, w_b]])


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([2, 3]),
       lam=st.floats(0.1, 60.0, exclude_min=True, exclude_max=True),
       t1=st.floats(0.0, 3.0, exclude_min=True, exclude_max=True),
       tol=_TOLS)
def test_fractional_map_property(b05, n, lam, t1, tol):
    """X(t1, 0) over three periods, as Propagator reads it, agrees with the
    DOP853 oracle within 10 times its error estimate.  Where the lambda is
    not unstable, X(t1, 0) is refused past the first period, and t1 / 4,
    inside it, is checked instead."""
    pot = coeffs.HillPotential(b05, n)
    prop = floquet.Propagator(floquet.monodromy(pot, lam, tol))
    if prop.m.kind != "unstable":
        if t1 >= 1.0:
            with pytest.raises(ParameterError, match="periods need real multipliers"):
                _map(prop, t1)
        t1 /= 4.0
    X = _map(prop, t1)
    ref = FundamentalPair(pot, lam, tol=_ORACLE_TOL).matrix(t1)
    assert np.max(np.abs(X - ref)) <= 10.0 * tol * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("tol", [1e-11, 1e-9])
def test_fractional_map_meets_the_power_at_the_period(pot3, tol, k):
    """Just before t = k + 1 the fractional path (node N - 1 and a step of
    nearly 1/N) and at t = k + 1 the power path (X(1, 0)^(k + 1), by
    periods) agree within 100 tol (1 + max|X(1, 0)^(k + 1)|).  The power is
    numpy's matrix_power within 6 (k + 1) eps max|X^(k + 1)| (at most 2.3
    here)."""
    m = floquet.monodromy(pot3, LAM_WITNESS, tol)
    prop = floquet.Propagator(m)
    before, at = _map(prop, k + 1 - 2e-13), _map(prop, k + 1.0)
    power = np.linalg.matrix_power(m.matrix, k + 1)
    assert np.max(np.abs(at - power)) <= 6.0 * (k + 1) * np.finfo(float).eps * np.max(np.abs(power))
    assert np.max(np.abs(before - at)) <= 100.0 * tol * (1.0 + np.max(np.abs(at)))


def _count_magnus(monkeypatch):
    """Record (steps, number of lambdas) of every _magnus call."""
    calls = []
    magnus = floquet._magnus

    def counted(pot, lams, steps):
        calls.append((steps, np.size(lams)))
        return magnus(pot, lams, steps)

    monkeypatch.setattr(floquet, "_magnus", counted)
    return calls


def test_controller_work_per_lambda(pot3, monkeypatch):
    """The 4000-lambda chart grid at tol 1e-11 costs at most 336 Magnus
    step-lambda units per lambda: 16 + 64 + 256, every lambda accepted at
    the first step count its estimate predicts."""
    calls = _count_magnus(monkeypatch)
    floquet.trace_curve(pot3, np.linspace(0.1, 60.0, 4000), tol=1e-11)
    assert sum(steps * size for steps, size in calls) <= 336 * 4000


def test_unresolvable_lambda_raises(pot3, monkeypatch):
    """A lambda the step cap cannot resolve fails instead of refining on,
    and only after it has been tried at the cap."""
    calls = _count_magnus(monkeypatch)
    with pytest.raises(IntegrationFailure):
        floquet.monodromy(pot3, 1e9, tol=1e-13)
    assert max(steps for steps, _ in calls) == floquet._MAX_STEPS


def test_stability_dichotomy_trace(pot3):
    """Inside the frozen interval |trace| > 2, outside (gap) |trace| < 2."""
    inside = floquet.trace_curve(pot3, np.linspace(7.0, 15.0, 9))
    outside = floquet.trace_curve(pot3, np.array([1.0, 3.0, 5.0, 17.0, 20.0]))
    assert np.all(np.abs(inside) > 2.0)
    assert np.all(np.abs(outside) < 2.0)


def test_scan_validation(pot3):
    with pytest.raises(ParameterError):
        floquet.scan_instability(pot3, (5.0, 17.0), 10)
    with pytest.raises(ParameterError):
        floquet.scan_instability(pot3, (17.0, 5.0), 200)
