"""Acceptance criteria for the whole pipeline.

Each test states its tolerance and (where bounded) its runtime budget
explicitly.  Frozen constants are regression values computed by the
independent oracle noted next to them.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cyclicwave import blowup, coeffs, floquet, geometry, pdesim, transform
from cyclicwave.errors import NotApplicableError

from conftest import LAM_WITNESS, f_ray, periodic_integral
from dop853_reference import FundamentalPair
from printed_q import q_variant

B_G = math.pi / (2.0 * math.sqrt(2.0))
# Frozen full-range instability intervals (eps=0.5, n=3, 4000 grid points).
INTERVALS = [(5.917530871975806, 16.149139824018505),
             (37.47098793741404, 47.93879004419074)]
# Crossing time of int_0^t b^3 = B_G (quadrature + brentq oracle).
T_CROSS = 1.0557944882184789


@pytest.fixture(scope="module")
def cert(pot3, tp1):
    return blowup.certify_blowup(tp1, pot3, (5.0, 17.0), 1e-3)


def test_criterion_1_monodromy_constant_coefficient():
    """trace = 2 cos(sqrt(lam)) within 1e-9 on 100 lambdas; det within
    1e-9; runtime < 5 s."""
    start = time.monotonic()
    b = coeffs.constant()
    pot = coeffs.HillPotential(b, n=3)
    lams = np.linspace(1.0, 100.0, 100)
    for lam in lams:
        m = floquet.monodromy(pot, float(lam), tol=1e-9)
        assert m.trace == pytest.approx(2.0 * math.cos(math.sqrt(lam)),
                                        abs=1e-9)
        assert m.det == pytest.approx(1.0, abs=1e-9)
    assert time.monotonic() - start < 5.0


def test_criterion_2_instability_interval_realized(pot3):
    """The scan over (0.1, 60] at 4000 points finds the frozen intervals
    with max |trace| > 2 + 1e-3; runtime < 60 s."""
    start = time.monotonic()
    ivals = floquet.scan_instability(pot3, (0.1, 60.0), 4000)
    elapsed = time.monotonic() - start
    assert len(ivals) == len(INTERVALS)
    for iv, (lo, hi) in zip(ivals, INTERVALS):
        assert iv.lambda_lo == pytest.approx(lo, rel=1e-8)
        assert iv.lambda_hi == pytest.approx(hi, rel=1e-8)
        assert iv.max_abs_trace > 2.0 + 1e-3
    assert elapsed < 60.0


def test_criterion_3_multi_period_closed_forms(pot3):
    """W(10), V(10) closed forms vs direct 10-period integration, rel 1e-8,
    at the witness lambda."""
    m = floquet.monodromy(pot3, LAM_WITNESS, tol=1e-12)
    pair = FundamentalPair(pot3, LAM_WITNESS, tol=1e-12)
    vals = floquet.multi_period_values(m, 10)
    assert vals.W == pytest.approx(pair.W(10.0), rel=1e-8)
    assert vals.V == pytest.approx(pair.V(10.0), rel=1e-8)


def _substitution_residual(pot, qfun, lam, w0, wt0):
    b = pot.b
    n = pot.n

    def rhs_w(t, y):
        return [y[1], -(lam * float(b.eval(t)) ** 2 - float(qfun(t))) * y[0]]

    def rhs_v(t, y):
        bt = float(b.eval(t))
        return [y[1], n * float(b.d1(t)) / bt * y[1] - lam * bt ** 2 * y[0]]

    b0, b10 = float(b.eval(0.0)), float(b.d1(0.0))
    v0 = b0 ** (n / 2.0) * w0
    vt0 = b0 ** (n / 2.0) * wt0 + (n / 2.0) * b0 ** (n / 2.0 - 1) * b10 * w0
    ts = np.linspace(0.0, 3.0, 31)
    sw = solve_ivp(rhs_w, (0, 3.0), [w0, wt0], method="DOP853",
                   rtol=1e-12, atol=1e-14, t_eval=ts)
    sv = solve_ivp(rhs_v, (0, 3.0), [v0, vt0], method="DOP853",
                   rtol=1e-12, atol=1e-14, t_eval=ts)
    lifted = np.asarray(b.eval(ts)) ** (n / 2.0) * sw.y[0]
    scale = float(np.max(np.abs(sv.y[0]))) or 1.0
    return float(np.max(np.abs(lifted - sv.y[0]))) / scale


def test_criterion_4_potential_pinned_down(b05, tmp_path):
    """The substitution check passes (residual < 1e-9) for n in {1,2,3}
    and 5 random lambdas with the implemented q; the printed variants fail
    at some n; a diagnostic report is written."""
    rng = np.random.default_rng(23)
    report = ["substitution-check diagnostic",
              "residual = relative sup distance between b^{n/2} w and the"
              " directly integrated v over t in [0, 3]", ""]
    for n in (1, 2, 3):
        pot = coeffs.HillPotential(b05, n=n)
        for lam in rng.uniform(0.5, 40.0, size=5):
            w0, wt0 = rng.normal(size=2)
            res = _substitution_residual(pot, pot.q, float(lam), w0, wt0)
            report.append(f"n={n} lam={lam:.4f} q=implemented "
                          f"residual={res:.3e}")
            assert res < 1e-9
    failures = 0
    for n in (1, 2, 3):
        pot = coeffs.HillPotential(b05, n=n)
        for which in ("intro", "alpha-form"):
            res = _substitution_residual(
                pot, lambda t: q_variant(pot, t, which), 7.3, 0.7, -0.2)
            report.append(f"n={n} lam=7.3000 q={which} residual={res:.3e}")
            if res > 1e-3:
                failures += 1
    # 'intro' fails at every n; 'alpha-form' coincides only at n = 2
    assert failures == 5
    out = tmp_path / "substitution_report.txt"
    out.write_text("\n".join(report) + "\n")
    assert out.exists() and "q=intro" in out.read_text()


def test_criterion_5_geometry():
    """Diagonal geodesic sinh(s)/sqrt(2) to 1e-6; vertical geodesic
    e^s - 1 to 1e-6; K == 8 with drift < 1e-8 at alpha = -2."""
    M = geometry.conformal_power(-1.0, (2, 2))
    d = np.array([1.0, 1.0])
    v0 = d / math.sqrt(d @ M.h(np.zeros(2)) @ d)
    geo = geometry.geodesic_full(M, np.zeros(2), v0, 3.0, tol=1e-12)
    for s, u, _ in geo:
        assert abs(u[0] - math.sinh(s) / math.sqrt(2)) < 1e-6
        assert abs(u[1] - math.sinh(s) / math.sqrt(2)) < 1e-6

    H = geometry.half_plane_power(2.0)
    d = np.array([0.0, 1.0])
    v0 = d / math.sqrt(d @ H.h(np.zeros(2)) @ d)
    geo = geometry.geodesic_full(H, np.zeros(2), v0, 3.0, tol=1e-12)
    for s, u, _ in geo:
        assert abs(u[1] - (math.exp(s) - 1.0)) < 1e-6

    K2 = geometry.conformal_power(-2.0, (2, 2))
    rng = np.random.default_rng(1)
    drift = max(abs(geometry.gaussian_curvature(K2, rng.normal(size=2)) - 8.0)
                for _ in range(30))
    assert drift < 1e-8


def _ex1(alpha):
    return lambda t: 4 * alpha * np.asarray(t, float) / (
        1 + 2 * np.asarray(t, float) ** 2), (-math.inf, math.inf)


def _ex2(ell):
    return lambda t: -ell / (2 * (1 + np.asarray(t, float))), \
        (-1.0, math.inf)


def _ex3a(alpha):
    return lambda t: alpha * np.asarray(t, float) / (
        1 + np.asarray(t, float) ** 2), (-math.inf, math.inf)


def _ex3b(alpha):
    return lambda t: 2 * alpha * np.asarray(t, float) ** 3 / (
        1 + np.asarray(t, float) ** 4), (-math.inf, math.inf)


def _ex4(alpha, m=3):
    return lambda t: m * alpha * np.asarray(t, float) / (
        1 + m * np.asarray(t, float) ** 2), (-math.inf, math.inf)


# The four families at distance 0.25 on both sides of each threshold:
# (family, parameter, expected forward, backward, holds)
NOC_CASES = [
    (_ex1, -0.75, "convergent", "convergent", "no"),
    (_ex1, -0.25, "divergent", "divergent", "yes"),
    (_ex2, 2.25, "convergent", "divergent", "no"),
    (_ex2, 1.75, "divergent", "convergent", "no"),
    (_ex3a, -1.25, "convergent", "convergent", "no"),
    (_ex3a, -0.75, "divergent", "divergent", "yes"),
    (_ex3b, -0.75, "convergent", "convergent", "no"),
    (_ex3b, -0.25, "divergent", "divergent", "yes"),
    (_ex4, -1.25, "convergent", "convergent", "no"),
    (_ex4, -0.75, "divergent", "divergent", "yes"),
]


def test_criterion_6_noc_thresholds():
    """Verdicts on all four families, sampling the threshold parameter at
    distance 0.25 on both sides; zero misclassifications, no inconclusive
    outside the 0.05 band."""
    for fam, p, fwd, bwd, holds in NOC_CASES:
        f, dom = fam(p)
        v = transform.noc_check(f, domain=dom)
        assert (v.forward, v.backward, v.holds) == (fwd, bwd, holds), \
            (fam.__name__, p, v)


def test_noc_verdict_agrees_with_endpoints():
    """On the criterion-6 families the verdict holds exactly when both
    endpoints of G are infinite, and every convergent side has a finite
    endpoint: the certificate's endpoint check alone decides exit 4."""
    for fam, p, *_ in NOC_CASES:
        f, dom = fam(p)
        v = transform.noc_check(f, domain=dom)
        ep = transform.build_transform(f, domain=dom).endpoints()
        case = (fam.__name__, p, v, ep)
        assert (v.holds == "yes") == (not ep.b_finite and not ep.a_finite), case
        assert v.forward != "convergent" or ep.b_finite, case
        assert v.backward != "convergent" or ep.a_finite, case


def test_criterion_7_certificate_for_every_delta(cert, pot3, tp1):
    """certify_blowup succeeds at delta = 1e-3 and again at 1e-5 with a
    larger M; smallness <= delta in both runs."""
    assert cert.plan.M == 35
    assert cert.smallness <= 1e-3
    assert math.isfinite(cert.t_star) and 0 < cert.t_star < cert.plan.M
    assert cert.tp.endpoints().target == pytest.approx(B_G, abs=1e-9)

    tight = blowup.certify_blowup(tp1, pot3, (5.0, 17.0), 1e-5)
    assert tight.smallness <= 1e-5
    assert tight.plan.M > cert.plan.M
    assert math.isfinite(tight.t_star)


def test_criterion_8_end_to_end_torus_oracle(cert):
    """1-D nonlinear run of the certified scenario (blowup.torus_scenario, as
    blowup-demo --simulate yes runs it): blow-up detected within 15% of
    t_star, and sup |G(u) - v| < 1e-5 up to 90% of t_star against the
    closed-form transformed solution v of blowup.exact_local_solution at
    x = (x, 0, 0).  Runtime < 10 min at 1024 points."""
    start = time.monotonic()
    grid, u0, u1 = blowup.torus_scenario(cert)
    x = grid.axis()
    G = cert.tp.G

    ru = pdesim.evolve_nonlinear(cert.m.pot, grid, u0, u1, cert.tp, n_snapshots=128)
    assert ru.termination == "blowup_detected"
    t_detect = ru.diagnostics["t_final"]
    assert abs(t_detect - cert.t_star) <= 0.15 * cert.t_star

    # torus points have |x| <= L/2 < M^1.5 and t <= 0.9 t_star < M: inside
    # the region where the closed form holds
    v = blowup.exact_local_solution(cert.plan, cert.tp, cert.m)
    points3 = np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=-1)
    horizon = 0.9 * cert.t_star
    sup = 0.0
    matched = 0
    for t, u in ru.snapshots:
        if t > horizon:
            break
        sup = max(sup, float(np.max(np.abs(G(u) - v(t, points3)))))
        matched += 1
    assert matched >= 50
    assert sup < 1e-5
    assert time.monotonic() - start < 600.0


def test_criterion_9_uniform_solutions(b05, pot3):
    """Linear uniform v(t) = b(0)^{-3} int_0^t b^3 to 1e-8 on [0, 20]; the
    alpha = -1 transformed uniform u blows up at the frozen crossing time
    where the integral reaches pi/(2 sqrt 2)."""
    res = pdesim.evolve_uniform(pot3, lambda u: np.zeros_like(u),
                                0.0, 1.0, 20.0, tol=1e-13)
    b0 = float(b05.eval(0.0))
    for t, u in res[::20]:
        ref = periodic_integral(lambda s: float(b05.eval(s)) ** 3, t) / b0 ** 3
        assert abs(u - ref) < 1e-8

    res_nl = pdesim.evolve_uniform(pot3, f_ray, 0.0, 1.0, 2.0, tol=1e-12)
    t_last, u_last = res_nl[-1]
    assert abs(u_last) > 1e7
    assert t_last == pytest.approx(T_CROSS, abs=1e-6)


def test_criterion_10_stability_dichotomy(pot3):
    """Plane-wave modes: bounded (<= 10x envelope) over 30 periods in a
    stable gap; growth >= mu0^25 * 0.5 in the certified interval."""
    # stable gap: lambda = 4 (below the first interval); mode k = 2 on 2 pi
    grid = pdesim.GridSpec(L=2 * math.pi, points=64,
                           dt=30.0 / 4096, t_end=30.0)
    x = grid.axis()
    res = pdesim.evolve_linear(pot3, grid, np.cos(2 * x), np.zeros_like(x),
                               n_snapshots=256)
    peak = max(float(np.max(np.abs(v))) for _, v in res.snapshots)
    assert peak <= 10.0

    # certified interval: lambda = LAM_WITNESS as the k = 1 mode
    L = 2.0 * math.pi / math.sqrt(LAM_WITNESS)
    dt = 30.0 / 8192
    grid = pdesim.GridSpec(L=L, points=64, dt=dt, t_end=30.0)
    x = grid.axis()
    res = pdesim.evolve_linear(pot3, grid, np.cos(2 * math.pi * x / L),
                               np.zeros_like(x), n_snapshots=256)
    mu0 = floquet.monodromy(pot3, LAM_WITNESS).mu0
    final = float(np.max(np.abs(res.snapshots[-1][1])))
    assert final >= 0.5 * mu0 ** 25
