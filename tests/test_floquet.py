"""Monodromy, multiplier and multi-period propagation checks."""
import math

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


def _count_monodromies(monkeypatch):
    lams = []
    real = floquet.monodromy

    def counted(pot, lam, tol=1e-11):
        lams.append(lam)
        return real(pot, lam, tol)

    monkeypatch.setattr(floquet, "monodromy", counted)
    return lams


def _count_bisections(monkeypatch):
    calls = []
    real = floquet.instability_intervals

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(floquet, "instability_intervals", counted)
    return calls


def test_find_good_lambda_is_lazy(pot3, monkeypatch):
    """A witness that passes is the sweep's own map: no monodromy call and
    no edge bisection, with the bits of monodromy at the witness."""
    lams = floquet.scan_grid((5.0, 17.0), 400)
    alone = floquet.monodromy(pot3, LAM_WITNESS)
    calls = _count_monodromies(monkeypatch)
    bisections = _count_bisections(monkeypatch)
    m = floquet.find_good_lambda(pot3, lams)
    assert calls == [] and bisections == []
    assert m.lam == LAM_WITNESS
    assert m.matrix.tobytes() == alone.matrix.tobytes()


def _good_lambda_from_intervals(intervals, pot, tol=1e-11):
    """The search as it ran on scan_instability's intervals: per interval
    monodromy at the witness, then at the midpoint, the first that passes."""
    for iv in intervals:
        for lam in (iv.witness_lambda, 0.5 * (iv.lambda_lo + iv.lambda_hi)):
            m = floquet.monodromy(pot, lam, tol)
            if m.kind == "unstable" and abs(m.b21) > 1e-6 \
                    and abs(m.b22 - 1.0 / m.expanding) > 1e-6:
                return m
    return None


_KIND = floquet.Monodromy.kind.func  # the class rule, read before any patch


def _rejecting_kind(monkeypatch, rejected):
    """Monodromy.kind reads 'stable' for the first `rejected` reads; the
    lambdas it is read at, in order."""
    seen = []

    def rejecting(m):
        seen.append(m.lam)
        if len(seen) <= rejected:
            return "stable"
        return _KIND(m)

    monkeypatch.setattr(floquet.Monodromy, "kind", property(rejecting))
    return seen


@pytest.mark.parametrize("rejected", [1, 2])
def test_find_good_lambda_tries_witness_then_midpoint(pot3, monkeypatch, rejected):
    """An interval's candidates are its witness, then its midpoint, and
    nothing else: with the witness rejected the midpoint is integrated
    next; with both rejected the next candidate is the second interval's
    witness, from the sweep.  The first candidate not rejected passes, and
    the edges are bisected once, all of them in one pass."""
    lams = floquet.scan_grid((0.1, 60.0), 400)
    first, second = floquet.scan_instability(pot3, (0.1, 60.0), 400)
    order = [first.witness_lambda, 0.5 * (first.lambda_lo + first.lambda_hi),
             second.witness_lambda]
    seen = _rejecting_kind(monkeypatch, rejected)
    calls = _count_monodromies(monkeypatch)
    bisections = _count_bisections(monkeypatch)
    m = floquet.find_good_lambda(pot3, lams)
    assert seen == order[:rejected + 1]
    assert calls == [order[1]]  # the witnesses are the sweep's maps
    assert len(bisections) == 1
    assert m.lam == order[rejected]


@pytest.mark.parametrize("rejected", [0, 1, 2])
def test_find_good_lambda_keeps_the_interval_search_bits(pot3, monkeypatch, rejected):
    """The Monodromy is the one the search on scan_instability's intervals
    finds, monodromy call by monodromy call, bit for bit: a witness's map
    from the sweep is its map alone, and a midpoint comes from the same
    bisected edges."""
    lams = floquet.scan_grid((0.1, 60.0), 400)
    _rejecting_kind(monkeypatch, rejected)
    got = floquet.find_good_lambda(pot3, lams)
    intervals = floquet.scan_instability(pot3, (0.1, 60.0), 400)
    _rejecting_kind(monkeypatch, rejected)
    ref = _good_lambda_from_intervals(intervals, pot3)
    assert (got.b11, got.b12, got.b21, got.b22, got.lam) \
        == (ref.b11, ref.b12, ref.b21, ref.b22, ref.lam)
    assert got.pot is ref.pot and got.tol == ref.tol


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
                          lam=LAM_WITNESS, pot=pot3, tol=1e-11)
    floquet.Monodromy(b11=1.0 + 5e-7, b12=0.0, b21=0.0, b22=1.0,
                      lam=LAM_WITNESS, pot=pot3, tol=1e-11)


def test_multi_period_closed_form(pot3, mono_witness):
    """W(10), V(10) from the multiplier closed forms against direct
    10-period integration of the fundamental pair."""
    pair = FundamentalPair(pot3, LAM_WITNESS, tol=1e-12)
    vals = floquet.multi_period_values(mono_witness, 10)
    assert vals.log10_scale == 0.0
    assert vals.W == pytest.approx(pair.W(10.0), rel=1e-8)
    assert vals.V == pytest.approx(pair.V(10.0), rel=1e-8)


def test_multi_period_m1_reduction(mono_witness):
    vals = floquet.multi_period_values(mono_witness, 1)
    assert vals.W == pytest.approx(mono_witness.b21, rel=1e-12)
    assert vals.V == pytest.approx(mono_witness.b22, rel=1e-12)


def test_multi_period_overflow_guard(mono_witness):
    vals = floquet.multi_period_values(mono_witness, 3000)
    assert vals.log10_scale > 0.0
    assert math.isfinite(vals.W) and math.isfinite(vals.V)
    # reconstructed magnitude: log10|W(3000)| = log10|W| + scale
    mu0 = mono_witness.mu0
    expect = 3000.0 * math.log10(mu0) + math.log10(
        abs(mono_witness.b21) / (mu0 - 1.0 / mu0))
    got = math.log10(abs(vals.W)) + vals.log10_scale
    assert got == pytest.approx(expect, abs=1e-6)


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
    """Fractional maps come from m.pot at m.lam and m.tol; nothing else is
    passed that could disagree with the monodromy's own integration."""
    pot = coeffs.HillPotential(coeffs.sqrt_sin(0.3), 2)
    m = floquet.monodromy(pot, 7.25, tol=1e-9)
    seen = []
    real = floquet._fundamental

    def recorded(pot, lams, t1, tol):
        seen.append((pot, list(lams), t1, tol))
        return real(pot, lams, t1, tol)

    monkeypatch.setattr(floquet, "_fundamental", recorded)
    prop = floquet.Propagator(m)
    prop(2.5, (0.0, 1.0))
    prop(3.5, (1.0, 0.0))  # the same phase: no second integration
    prop(4.0, (1.0, 0.0))  # whole periods: the monodromy alone
    assert seen == [(pot, [7.25], 0.5, 1e-9)]
    assert seen[0][0] is pot


def test_propagator_takes_arrays_of_t(mono_witness, monkeypatch):
    """An array of t, here 2-D with t = 0, whole periods and repeated
    phases, gives (w, w_t) shaped like t with the bits of per-element float
    calls, and integrates each distinct fraction once.  The errors name
    the first negative t and the first t whose monodromy power overflows."""
    pot = coeffs.HillPotential(coeffs.sqrt_sin(0.3), 2)
    m = floquet.monodromy(pot, 7.25, tol=1e-9)
    t = np.array([[0.0, 2.0, 2.25, 5.25], [3.0, 0.75, 0.25, 7.75]])
    data = (0.3, -1.2)
    seen = []
    real = floquet._fundamental

    def recorded(pot, lams, t1, tol):
        seen.append(t1)
        return real(pot, lams, t1, tol)

    monkeypatch.setattr(floquet, "_fundamental", recorded)
    w, w_t = floquet.Propagator(m)(t, data)
    assert sorted(seen) == [0.25, 0.75]
    assert w.shape == w_t.shape == t.shape
    for i in np.ndindex(t.shape):
        one = floquet.Propagator(m)(float(t[i]), data)
        assert all(isinstance(v, float) for v in one)
        assert np.array([w[i], w_t[i]]).tobytes() == np.array(one).tobytes()
    with pytest.raises(ParameterError, match=r"got -0\.5$"):
        floquet.Propagator(m)(np.array([1.0, -0.5, -2.0]), data)
    t_over = 800.0 / math.log(mono_witness.mu0)
    with pytest.raises(OverflowError, match=rf"at t={t_over + 0.5} "):
        floquet.Propagator(mono_witness)(np.array([1.0, t_over + 0.5, 2 * t_over]), data)


@pytest.fixture(scope="module")
def shared_propagator(pot3, mono_witness):
    return floquet.Propagator(mono_witness)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(t=st.floats(0.0, 12.0),
       data=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_propagator_property(pot3, mono_witness, shared_propagator, t, data):
    """X(frac,0) X(1,0)^k x0 against direct integration from t = 0, and a
    Propagator that has already cached fractional maps against a fresh one."""
    w0, w0_t = data
    X = FundamentalPair(pot3, LAM_WITNESS, tol=1e-12).matrix(t)
    w, wt = floquet.propagate(mono_witness, t, data)
    # relative to the size of the two terms, so cancellation in the sum
    # cannot make the bound meaningless
    for got, (c_wt, c_w) in ((wt, X[0]), (w, X[1])):
        scale = abs(c_wt * w0_t) + abs(c_w * w0)
        assert abs(got - (c_wt * w0_t + c_w * w0)) <= 1e-9 * scale + 1e-12
    # propagate is a fresh Propagator; the shared one may fill its cache on
    # the first call and reads it on the second
    assert shared_propagator(t, data) == (w, wt)
    assert shared_propagator(t, data) == (w, wt)


# tol drawn log-uniformly over [1e-13, 1e-9]
_TOLS = st.floats(-13.0, -9.0).map(lambda e: min(max(10.0**e, 1e-13), 1e-9))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.1, 60.0, exclude_min=True, exclude_max=True),
       tol=_TOLS)
def test_monodromy_property(pot3, lam, tol):
    """det X(1,0) = 1 by construction, and the map agrees with the DOP853
    oracle within 100 times its error estimate."""
    m = floquet.monodromy(pot3, lam, tol)
    assert abs(m.det - 1.0) <= 1e-12
    X = FundamentalPair(pot3, lam, tol=1e-12).matrix(1.0)
    assert np.max(np.abs(m.matrix - X)) <= 100.0 * tol * (1.0 + np.max(np.abs(X)))


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
    got = floquet._magnus(pot3, lams, 1.0, steps)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.1, 60.0, exclude_min=True, exclude_max=True),
       t1=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       tol=_TOLS)
def test_fractional_map_property(pot3, lam, t1, tol):
    """X(t1, 0) inside the period, as Propagator reads it, agrees with the
    DOP853 oracle within 100 times its error estimate."""
    X = floquet._fundamental(pot3, [lam], t1, tol)[0]
    ref = FundamentalPair(pot3, lam, tol=1e-12).matrix(t1)
    assert np.max(np.abs(X - ref)) <= 100.0 * tol * (1.0 + np.max(np.abs(ref)))


def _count_magnus(monkeypatch):
    """Record (steps, number of lambdas) of every _magnus call."""
    calls = []
    magnus = floquet._magnus

    def counted(pot, lams, t1, steps):
        calls.append((steps, np.size(lams)))
        return magnus(pot, lams, t1, steps)

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
