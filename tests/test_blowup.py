"""Seed-data family, Sobolev smallness, exact local solution and the
certificate search."""
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad, simpson
from scipy.special import j0

from cyclicwave import blowup, coeffs, floquet, transform
from cyclicwave.errors import (ExhaustedSearchError, NotApplicableError,
                               ParameterError, ResolutionError)

from conftest import LAM_WITNESS, f_ray

# Frozen n=1 smallness values of the FFT oracle (S=3, lam = LAM_WITNESS,
# 4096 points); stable to ten digits across 2048/4096/8192-point grids.
N1_SMALLNESS = {2: 13.81763244, 4: 2.972487088, 8: 0.740670709}
# Frozen n=2 smallness of the FFT oracle at M = 8 (S=4.5, lam = LAM_N2,
# 1024^2 points); it matches the envelope estimate ||g0|| + (1+lam)^{3/2}
# ||g1|| / sqrt 2 to four digits.
N2_SMALLNESS_M8 = 0.3857277303694335
LAM_N2 = 10.308521303258145  # the n = 2 good lambda of the reference run
EPS = np.finfo(float).eps


def seed_profiles(plan, tp):
    """The radial profiles g0 = M^-S chi(r / M^2) and g1 = A g0 exp(-Phi(g0))
    of the plan's data, supported in r <= R = 2 M^2."""
    amp, msq = plan.amplitude, float(plan.M) ** 2

    def g0(r):
        return amp * blowup.chi_radial(r / msq)

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
        return g0(np.sqrt(np.sum(x * x, axis=-1)))

    def u1(x):
        phase = np.cos(np.tensordot(x, y, axes=([-1], [0])))
        return g1(np.sqrt(np.sum(x * x, axis=-1))) * phase

    return u0, u1


def torus_norm(values, L, s):
    """H^s norm of a field sampled on the torus [-L/2, L/2)^n, continuum
    convention: ||u||^2 = L^n sum_k |c_k|^2 (1 + |xi_k|^2)^s over the Fourier
    coefficients c_k at xi_k = 2 pi k / L.  ResolutionError when the top
    octave holds more than 1% of that sum."""
    n, points = values.ndim, values.shape[0]
    dx = L / points
    k = np.fft.fftfreq(points, d=dx) * 2.0 * np.pi
    k2 = sum(kk**2 for kk in np.meshgrid(*[k] * n, indexing="ij"))
    power = np.abs(np.fft.fftn(values) / values.size) ** 2
    weight = (1.0 + k2) ** s
    total = L**n * float(np.sum(power * weight))
    octave = k2 >= (np.pi / dx / 2.0) ** 2
    top = L**n * float(np.sum(power[octave] * weight[octave]))
    if total > 0 and top > 0.01 * total:
        raise ResolutionError(f"top-octave energy fraction {top / total:.3g}")
    return math.sqrt(total)


def fft_smallness(plan, tp, s, points):
    """The FFT oracle: ||u0||_{H^{s+1}} + ||u1||_{H^s} of the plan's data on
    the n-torus of side 5 M^2 with `points` per axis.  ResolutionError when
    sqrt(lambda) lies in the grid's top octave, where cos(x.y) aliases."""
    L = 2.0 * plan.support_radius * 1.25
    dx = L / points
    if math.sqrt(plan.lam) >= math.pi / (2.0 * dx):
        raise ResolutionError(f"the FFT grid at M={plan.M} does not resolve cos(x.y)")
    axis = -L / 2 + dx * np.arange(points)
    x = np.stack(np.meshgrid(*[axis] * plan.n, indexing="ij"), axis=-1)
    u0, u1 = make_data(plan, tp)
    return torus_norm(u0(x), L, s + 1.0) + torus_norm(u1(x), L, s)


def test_cutoff_shape():
    r = np.linspace(0.0, 3.0, 301)
    c = blowup.chi_radial(r)
    assert np.all(c[r <= 1.0] == 1.0)
    assert np.all(c[r >= 2.0] == 0.0)
    mid = (r > 1.0) & (r < 2.0)
    # in floating point the transition saturates to exactly 1 (resp. 0)
    # very close to the junctions, so only bound it on [0, 1] there ...
    assert np.all((c[mid] >= 0.0) & (c[mid] <= 1.0))
    # ... and require strict interior values in the bulk of the transition
    bulk = (r > 1.2) & (r < 1.8)
    assert np.all((c[bulk] > 0.0) & (c[bulk] < 1.0))
    assert c[np.argmin(np.abs(r - 1.5))] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(c) <= 1e-12)  # non-increasing


def test_cutoff_is_flat_at_junctions():
    # the transition joins the plateau and the zero region to all orders;
    # low-order finite differences across the junctions must vanish as the
    # stencil shrinks (they would converge to +-2 for a C^1-only bump)
    for r0 in (1.0, 2.0):
        h = 1e-2
        probe = blowup.chi_radial(np.array([r0 - h, r0, r0 + h]))
        d1 = (probe[2] - probe[0]) / (2 * h)
        d2 = (probe[2] - 2 * probe[1] + probe[0]) / (h * h)
        assert abs(d1) < 1e-10 and abs(d2) < 1e-8, (r0, h)


def test_cutoff_vector_argument():
    c = blowup.chi_radial(np.array([0.5, 1.5, 2.5]))
    assert c[0] == 1.0 and 0.0 < c[1] < 1.0 and c[2] == 0.0


def test_plan_invariants():
    p = blowup.BlowupPlan(3, LAM_WITNESS, 6.5, 4)
    assert p.amplitude == pytest.approx(4.0 ** -6.5)
    assert p.support_radius == 32.0
    assert p.cone_radius == 8.0
    assert p.y == (math.sqrt(LAM_WITNESS), 0.0, 0.0)
    for S in (5.0, math.nan):  # S must exceed 2n
        with pytest.raises(ParameterError):
            blowup.BlowupPlan(3, LAM_WITNESS, S, 4)
    with pytest.raises(ParameterError):
        blowup.BlowupPlan(3, LAM_WITNESS, 6.5, 0)
    with pytest.raises(ParameterError):
        blowup.BlowupPlan(3, LAM_WITNESS, 6.5, 4, 0.5)


def test_data_point_values(tp1):
    plan = blowup.BlowupPlan(3, LAM_WITNESS, 6.5, 3, A=-1.0)
    u0, u1 = make_data(plan, tp1)
    amp = plan.amplitude
    origin = np.zeros((1, 3))
    assert u0(origin)[0] == pytest.approx(amp, rel=1e-14)
    assert u1(origin)[0] == pytest.approx(
        -amp * math.exp(-float(tp1.Phi(amp))), rel=1e-12)
    far = np.array([[2 * 9.0 + 1.0, 0.0, 0.0]])
    assert u0(far)[0] == 0.0 and u1(far)[0] == 0.0
    # velocity oscillates at frequency y along the first axis
    x = np.zeros((5, 3))
    x[:, 0] = np.linspace(0.0, 2.0, 5)
    expect = -amp * np.exp(-float(tp1.Phi(amp))) * np.cos(
        math.sqrt(LAM_WITNESS) * x[:, 0])
    assert np.allclose(u1(x), expect, rtol=1e-12)


def test_torus_sobolev_cosine_closed_form():
    # || A cos(k x) ||_{H^s}^2 = L * A^2/2 * (1+k^2)^s  (continuum convention)
    L, pts, s, A = 10.0, 256, 2.0, 0.7
    k = 2.0 * math.pi * 3 / L
    x = -L / 2 + L / pts * np.arange(pts)
    got = torus_norm(A * np.cos(k * x), L, s)
    expect = math.sqrt(L * A * A / 2.0 * (1 + k * k) ** s)
    assert got == pytest.approx(expect, rel=1e-12)


def test_radial_pair_norm_gaussian_oracle():
    """Exact 3-D H^{s+1} x H^s computation for Gaussian data via spherical
    quadrature of the known transform (2 pi)^{3/2} e^{-rho^2/2}."""
    lam, s, R = 16.0, 3.0, 14.0
    g = lambda r: np.exp(-r * r / 2.0)
    hat = blowup._radial_hat(g, R, 3)[1]
    got = blowup.radial_pair_norm(blowup.radial_head(hat), hat, lam, s, R, 3)
    ghat = lambda rho: (2 * math.pi) ** 1.5 * math.exp(-rho * rho / 2.0)
    inv = (2 * math.pi) ** -3
    sq = math.sqrt(lam)
    n0sq = inv * 4 * math.pi * quad(
        lambda r: (1 + r * r) ** (s + 1) * ghat(r) ** 2 * r * r, 0, 40,
        limit=200)[0]
    plus = dblquad(
        lambda c, rho: ghat(rho) ** 2
        * (1 + lam + rho * rho + 2 * sq * rho * c) ** s * rho * rho,
        0, 40, -1, 1, epsabs=1e-12, epsrel=1e-12)[0]

    def cross(c, rho):
        dm = math.sqrt(max(rho * rho + lam - 2 * sq * rho * c, 0.0))
        dp = math.sqrt(rho * rho + lam + 2 * sq * rho * c)
        return ghat(dm) * ghat(dp) * (1 + rho * rho) ** s * rho * rho

    crs = dblquad(cross, 0, 40, -1, 1, epsabs=1e-14, epsrel=1e-12)[0]
    exact = math.sqrt(n0sq) + math.sqrt(
        inv * (2 * 2 * math.pi * plus + 2 * 2 * math.pi * crs) / 4.0)
    # the implementation upper-bounds the cross term, so got >= exact - eps
    assert got >= exact * (1.0 - 1e-6)
    assert got == pytest.approx(exact, rel=0.01)


def test_radial_pair_norm_gaussian_oracle_n2():
    """The same for n = 2: polar quadrature of the known transform
    2 pi e^{-rho^2/2}, over theta in [0, pi] twice by symmetry."""
    lam, s, R = 16.0, 3.0, 14.0
    g = lambda r: np.exp(-r * r / 2.0)
    hat = blowup._radial_hat(g, R, 2)[1]
    got = blowup.radial_pair_norm(blowup.radial_head(hat), hat, lam, s, R, 2)
    ghat = lambda rho: 2 * math.pi * math.exp(-rho * rho / 2.0)
    inv = (2 * math.pi) ** -2
    sq = math.sqrt(lam)
    n0sq = inv * 2 * math.pi * quad(
        lambda r: (1 + r * r) ** (s + 1) * ghat(r) ** 2 * r, 0, 40,
        limit=200)[0]
    plus = 2 * dblquad(
        lambda th, rho: ghat(rho) ** 2
        * (1 + lam + rho * rho + 2 * sq * rho * math.cos(th)) ** s * rho,
        0, 40, 0, math.pi, epsabs=1e-12, epsrel=1e-12)[0]

    def cross(th, rho):
        c = math.cos(th)
        dm = math.sqrt(max(rho * rho + lam - 2 * sq * rho * c, 0.0))
        dp = math.sqrt(rho * rho + lam + 2 * sq * rho * c)
        return ghat(dm) * ghat(dp) * (1 + rho * rho) ** s * rho

    crs = 2 * dblquad(cross, 0, 40, 0, math.pi, epsabs=1e-14, epsrel=1e-12)[0]
    exact = math.sqrt(n0sq) + math.sqrt(inv * (2 * plus + 2 * crs) / 4.0)
    assert got >= exact * (1.0 - 1e-6)
    assert got == pytest.approx(exact, rel=0.01)


def test_radial_vs_fft_cross_check(tp1):
    """At s=0 the 3-D FFT norm is computable; the radial path must bound it
    from above and agree closely once the data is not cone-limited."""
    for M, max_ratio in ((1, 1.30), (2, 1.02)):
        plan = blowup.BlowupPlan(3, LAM_WITNESS, 6.5, M)
        rad = blowup.plan_smallness(plan, tp1, s=0.0)
        fft = fft_smallness(plan, tp1, 0.0, 128)
        assert rad >= fft * (1.0 - 1e-9)
        assert rad <= fft * max_ratio


@pytest.mark.parametrize("M", [4, 8])
def test_radial_bounds_fft_n2(tp1, M):
    """Where the 1024^2 FFT grid resolves cos(x.y), the n = 2 radial value
    bounds the FFT oracle from above, within a relative 1e-4."""
    plan = blowup.BlowupPlan(2, LAM_N2, 4.5, M)
    rad = blowup.plan_smallness(plan, tp1)
    fft = fft_smallness(plan, tp1, 3.0, 1024)
    assert fft <= rad <= fft * (1.0 + 1e-4)


def test_radial_hat_matches_outer_product_formula(tp1):
    """The sine transform against 4 pi simpson(sinc(rho r / pi) g r^2, r) on
    a fine r grid, for a Gaussian and for the plan profiles, at the first
    257 rho of the transform's grid."""
    plan = blowup.BlowupPlan(3, LAM_WITNESS, 6.5, 2)
    amp, msq = plan.amplitude, float(plan.M) ** 2

    def g_plan0(r):
        return amp * blowup.chi_radial(r / msq)

    def g_plan1(r):
        return plan.A * g_plan0(r) * np.exp(-tp1.Phi(g_plan0(r)))

    def gauss(r):
        return np.exp(-r * r / 2.0)

    for g, R in ((gauss, 14.0), (g_plan0, plan.support_radius),
                 (g_plan1, plan.support_radius)):
        rho, got = blowup._radial_hat(g, R, 3)
        rho, got = rho[:257], got[:257]
        r = np.linspace(0.0, R, 2**14 + 1)
        kern = np.sinc(np.outer(rho, r) / np.pi)
        want = 4.0 * np.pi * simpson(kern * (g(r) * r * r), x=r, axis=-1)
        # tail values are cancellation-limited, so the scale is the peak
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_radial_hat_n2_matches_hankel_integral(tp1):
    """The n = 2 projection transform against 2 pi simpson(J0(rho r) g r, r)
    on a fine r grid at the first 257 rho of the transform's grid, for chi
    and the plan profiles; and for a Gaussian against its closed form
    2 pi e^{-rho^2/2} on the whole grid."""
    plan = blowup.BlowupPlan(2, LAM_N2, 4.5, 2)
    g0, g1 = seed_profiles(plan, tp1)
    for g, R in ((blowup.chi_radial, 2.0), (g0, plan.support_radius),
                 (g1, plan.support_radius)):
        rho, got = blowup._radial_hat(g, R, 2)
        rho, got = rho[:257], got[:257]
        r = np.linspace(0.0, R, 2**14 + 1)
        want = 2.0 * np.pi * simpson(j0(np.outer(rho, r)) * (g(r) * r), x=r, axis=-1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    rho, got = blowup._radial_hat(lambda r: np.exp(-r * r / 2.0), 14.0, 2)
    want = 2.0 * np.pi * np.exp(-rho * rho / 2.0)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


@pytest.mark.parametrize("M", [1, 7, 100])
def test_scaled_chi_head_matches_direct_transform(tp1, M):
    """g0's transform at M is M^-S M^6 times chi's on the M = 1 grid: the
    head plan_smallness uses against a direct transform of g0, with the
    same cut."""
    plan = blowup.BlowupPlan(3, LAM_WITNESS, 6.5, M)
    g0, _ = seed_profiles(plan, tp1)
    direct = blowup.radial_head(blowup._radial_hat(g0, plan.support_radius, 3)[1])
    scaled = plan.amplitude * float(M) ** 6 * blowup.radial_head(blowup._chi_hat(3, 0))
    assert scaled.size == direct.size
    assert np.max(np.abs(scaled - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_certify_transforms_chi_once(pot3, tp1, monkeypatch):
    """The seed-0 certificates' whole M scans make one radial transform per
    process, chi's: at every M they scan, exp(-Phi(g0)) is proven to be 1,
    so g1's transform is chi's, scaled, as g0's is."""
    radial_hat, plan_smallness = blowup._radial_hat, blowup.plan_smallness
    profiles, plans = [], []

    def counted_hat(g, R, n):
        profiles.append(g)
        return radial_hat(g, R, n)

    def counted_smallness(plan, *args, **kwargs):
        plans.append(plan)
        return plan_smallness(plan, *args, **kwargs)

    monkeypatch.setattr(blowup, "_radial_hat", counted_hat)
    monkeypatch.setattr(blowup, "plan_smallness", counted_smallness)
    blowup._chi_hat.cache_clear()
    certs = [blowup.certify_blowup(tp1, pot3, (0.1, 60.0), delta)
             for delta in (1e-3, 1e-5)]
    assert [cert.plan.M for cert in certs] == [35, 100]
    assert len(plans) > 1
    assert profiles == [blowup.chi_radial]


@pytest.mark.parametrize("M, A", [(30, 1.0), (35, -1.0), (100, 1.0)])
def test_scaled_g1_matches_direct_transform(tp1, M, A):
    """Where |Phi(g0)| <= 2^-60 is proven, the smallness from chi's scaled
    transform equals the one from a direct transform of g1."""
    plan = blowup.BlowupPlan(3, LAM_WITNESS, 6.5, M, A=A)
    assert tp1.phi_bound(plan.amplitude) <= blowup._PHI_SKIP
    _, g1 = seed_profiles(plan, tp1)
    R = plan.support_radius
    h0 = plan.amplitude * float(M) ** 6 * blowup.radial_head(blowup._chi_hat(3, 0))
    direct = blowup.radial_pair_norm(h0, blowup._radial_hat(g1, R, 3)[1],
                                     plan.lam, 3.0, R, 3)
    assert blowup.plan_smallness(plan, tp1, 3.0) == pytest.approx(direct,
                                                                  rel=1e-15)


def _f_shifted(t):
    """The reference ray's f plus 1/2, so f(0) != 0 and Phi(s) ~ s / 2."""
    return 0.5 + f_ray(t)


@pytest.mark.parametrize("n, lam, M, f", [
    (3, LAM_WITNESS, 1, f_ray), (3, LAM_WITNESS, 35, _f_shifted),
    (2, LAM_N2, 56, f_ray), (2, LAM_N2, 87, f_ray),
], ids=["M1", "f0-nonzero", "n2-M56", "n2-M87"])
def test_radial_smallness_fallback_transforms_g1(n, lam, M, f, monkeypatch):
    """Where the bound does not prove exp(-Phi(g0)) = 1 (amp = 1 at M = 1,
    f(0) != 0, or n = 2, whose M^-4.5 leaves Phi(g0) above 2^-60), g1's
    transform is the Chebyshev series over the cached chi terms: no g1
    transform is made, and the series is within 1e-15 of the peak of a
    direct transform of g1."""
    tp = transform.TransformPair(f)
    plan = blowup.BlowupPlan(n, lam, 2 * n + 0.5, M)
    assert tp.phi_bound(plan.amplitude) > blowup._PHI_SKIP
    _, g1 = seed_profiles(plan, tp)
    direct = blowup._radial_hat(g1, plan.support_radius, n)[1]
    for k in range(blowup._exp_phi_series(tp, plan.amplitude).size):
        blowup._chi_hat(n, k)
    radial_hat, pair_norm, profiles, h1s = (blowup._radial_hat,
                                            blowup.radial_pair_norm, [], [])

    def counted_hat(g, R, n):
        profiles.append(g)
        return radial_hat(g, R, n)

    def kept_h1(h0, h1, *args):
        h1s.append(h1)
        return pair_norm(h0, h1, *args)

    monkeypatch.setattr(blowup, "_radial_hat", counted_hat)
    monkeypatch.setattr(blowup, "radial_pair_norm", kept_h1)
    blowup.plan_smallness(plan, tp)
    assert profiles == [] and len(h1s) == 1
    assert np.max(np.abs(h1s[0] - direct)) <= 1e-15 * np.max(np.abs(direct))


def test_phi_bound_covers_sampled_phi(tp1):
    """The Markov bound on |Phi| over [0, M^-6.5] is at least the sampled
    max |Phi(g0)|, within a factor 2 of it, and proves the skip, at every M
    from 30 to 100."""
    for M in range(30, 101):
        plan = blowup.BlowupPlan(3, LAM_WITNESS, 6.5, M)
        g0, _ = seed_profiles(plan, tp1)
        s = np.concatenate([np.linspace(0.0, plan.amplitude, 1025),
                            g0(np.linspace(0.0, plan.support_radius, 4097))])
        bound = tp1.phi_bound(plan.amplitude)
        sampled = np.max(np.abs(tp1.Phi(s)))
        assert sampled <= bound <= min(2.0 * sampled, blowup._PHI_SKIP)


def test_sine_transform_matches_scipy_dst():
    from scipy.fft import dst

    x = np.random.default_rng(5).standard_normal(32767)
    want = dst(x, type=1)
    got = blowup._dst1(x)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [3, 5, 1025, 4097, 32769])
def test_simpson_weights_match_scipy(n):
    y = np.random.default_rng(n).standard_normal(n)
    h = np.pi / 16.0
    want = simpson(y, x=h * np.arange(n))
    got = float(blowup._simpson_weights(n, h) @ y)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("M, value", [(35, 3.853241529914803e-04),
                                      (100, 9.773812333676975e-06)])
def test_radial_smallness_regression(tp1, M, value):
    """H^4 x H^3 smallness of the plan data at the reference witness, as
    the earlier Simpson-kernel quadrature computed it."""
    plan = blowup.BlowupPlan(3, LAM_WITNESS, 6.5, M)
    assert blowup.plan_smallness(plan, tp1, 3.0) == pytest.approx(value,
                                                                   rel=1e-9)


def test_radial_smallness_memory_is_blocked(tp1):
    import tracemalloc

    plan = blowup.BlowupPlan(3, LAM_WITNESS, 6.5, 100)
    tracemalloc.start()
    try:
        blowup.plan_smallness(plan, tp1, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_radial_pair_norm_unresolved_spectrum_raises():
    """An indicator profile's transform decays only like 1/rho^2, so no
    cut inside the transform's rho range reaches the 1e-10 tail."""
    def g(r):
        return (r < 5.0).astype(float)

    hat = blowup._radial_hat(g, 10.0, 3)[1]
    with pytest.raises(ResolutionError):
        blowup.radial_pair_norm(blowup.radial_head(hat), hat, LAM_WITNESS,
                                3.0, 10.0, 3)


def test_n1_smallness_regression(tp1):
    """The FFT oracle on 4096 points keeps its frozen n = 1 values."""
    for M, val in N1_SMALLNESS.items():
        plan = blowup.BlowupPlan(1, LAM_WITNESS, 3.0, M)
        got = fft_smallness(plan, tp1, 3.0, 4096)
        assert got == pytest.approx(val, rel=1e-8)
    vals = [fft_smallness(blowup.BlowupPlan(1, LAM_WITNESS, 3.0, M), tp1, 3.0, 4096)
            for M in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_fft_smallness_refuses_aliased_modulation(tp1):
    """The n = 2 FFT oracle on the 1024-point grid of side 5 M^2: at M = 8
    cos(x.y) is resolved and the norm is the frozen value; at M = 10 it lies
    just below the top octave, whose energy budget then fails; at M = 56,
    where blowup-demo --n 2 first has growth, sqrt(lambda) >= pi/(2 dx) and
    the modulation would alias, so ResolutionError.  The radial path has no
    grid and gives a value there."""
    plan = blowup.BlowupPlan(2, LAM_N2, 4.5, 8)
    assert fft_smallness(plan, tp1, 3.0, 1024) == pytest.approx(N2_SMALLNESS_M8,
                                                                rel=1e-12)
    with pytest.raises(ResolutionError, match="top-octave"):
        fft_smallness(blowup.BlowupPlan(2, LAM_N2, 4.5, 10), tp1, 3.0, 1024)
    plan = blowup.BlowupPlan(2, LAM_N2, 4.5, 56)
    with pytest.raises(ResolutionError, match=r"does not resolve cos\(x.y\)"):
        fft_smallness(plan, tp1, 3.0, 1024)
    assert 0.0 < blowup.plan_smallness(plan, tp1) < math.inf


@pytest.fixture(scope="module")
def local_solution(pot3, tp1):
    plan = blowup.BlowupPlan(3, LAM_WITNESS, 6.5, 8)
    m = floquet.monodromy(pot3, LAM_WITNESS, tol=1e-12)
    return plan, blowup.exact_local_solution(plan, tp1, m)


def test_local_solution_initial_values(local_solution, tp1):
    plan, sol = local_solution
    amp = plan.amplitude
    assert sol(0.0, np.zeros(3)) == pytest.approx(float(tp1.G(amp)),
                                                  rel=1e-12)
    # d/dt at 0 equals the transformed initial velocity A*amp*cos(x.y)
    rng = np.random.default_rng(9)
    for _ in range(4):
        x = rng.uniform(-1.0, 1.0, size=3)
        dt = 1e-4
        grid_vals = [sol(t, x) for t in (dt, 2 * dt)]
        v0 = sol(0.0, x)
        deriv = (-3 * v0 + 4 * grid_vals[0] - grid_vals[1]) / (2 * dt)
        expect = plan.A * amp * math.cos(float(np.dot(x, plan.y)))
        assert deriv == pytest.approx(expect, rel=1e-5, abs=1e-12)


def test_local_solution_multi_period_value(local_solution, tp1, pot3):
    plan, sol = local_solution
    m = floquet.monodromy(pot3, LAM_WITNESS, tol=1e-12)
    (W_M,), _, (e,) = floquet.periods(m, [plan.M], (0.0, 1.0))
    expect = float(tp1.G(plan.amplitude)) + plan.A * plan.amplitude * W_M * 10.0**e
    assert sol(float(plan.M), np.zeros(3)) == pytest.approx(expect, rel=1e-9)


def test_local_solution_needs_the_plans_lambda_and_n(pot3, tp1, b05):
    """The monodromy supplies lambda, b and n; a monodromy of another lambda
    or dimension than the plan's is refused."""
    plan = blowup.BlowupPlan(3, LAM_WITNESS, 6.5, 8)
    for m in (floquet.monodromy(pot3, 10.0),
              floquet.monodromy(coeffs.HillPotential(b05, 2), LAM_WITNESS)):
        with pytest.raises(ParameterError, match="must be the plan's"):
            blowup.exact_local_solution(plan, tp1, m)


def test_local_solution_satisfies_pde(local_solution, b05, tp1):
    """Finite-difference residual of v_tt - n (b'/b) v_t - b^2 Lap v = 0.

    Inside the cone v(t,x) = G(amp) + D(t) cos(x.y), so the Laplacian is
    available in closed form: Lap v = -lam * (v - G(amp))."""
    plan, sol = local_solution
    x = np.array([0.3, -0.2, 0.5])
    lam = plan.lam
    level = float(tp1.G(plan.amplitude))
    dt = 1e-3
    for t0 in (0.7, 1.9, 3.4):
        vm2, vm1, v0, vp1, vp2 = (sol(t0 + j * dt, x)
                                  for j in (-2, -1, 0, 1, 2))
        vtt = (-vm2 + 16 * vm1 - 30 * v0 + 16 * vp1 - vp2) / (12 * dt * dt)
        vt = (vm2 - 8 * vm1 + 8 * vp1 - vp2) / (12 * dt)
        bt = float(b05.eval(t0))
        b1 = float(b05.d1(t0))
        lap = -lam * (v0 - level)
        resid = vtt - 3 * b1 / bt * vt - bt * bt * lap
        scale = max(abs(vtt), abs(bt * bt * lap), 1e-30)
        assert abs(resid) / scale < 1e-5


def test_local_solution_domain_checks(local_solution):
    plan, sol = local_solution
    with pytest.raises(ParameterError):
        sol(-0.5, np.zeros(3))
    with pytest.raises(ParameterError):
        sol(plan.M + 1.0, np.zeros(3))
    with pytest.raises(ParameterError):
        sol(1.0, np.array([plan.cone_radius + 1.0, 0.0, 0.0]))
    # an array of t names its first t outside [0, M]
    t = np.array([1.0, plan.M + 1.5, -1.0, plan.M + 4.0])
    with pytest.raises(ParameterError, match=rf"^t={plan.M + 1.5} outside"):
        sol(t, np.zeros(3))


def test_certify_blowup_frozen(pot3, tp1):
    cert = blowup.certify_blowup(tp1, pot3, (5.0, 17.0), 1e-3)
    assert cert.plan.M == 35
    assert cert.plan.lam == pytest.approx(LAM_WITNESS, rel=1e-10)
    assert cert.smallness <= 1e-3
    assert cert.t_star == pytest.approx(32.1072635173914, rel=1e-6)
    assert cert.tp is tp1 and cert.m.pot is pot3 and cert.m.lam == cert.plan.lam
    assert cert.tp.endpoints().target == pytest.approx(math.pi / (2 * math.sqrt(2)),
                                                       abs=1e-9)
    assert cert.m.mu0 == pytest.approx(2.210821071436652, rel=1e-9)
    assert abs(cert.plan.A) == 1.0
    assert 0.0 < cert.t_star < cert.plan.M
    # the predicted trajectory reaches the endpoint by construction
    ts = [t for t, _ in cert.trajectory]
    assert ts == sorted(ts)


def test_certify_requires_finite_endpoint(pot3):
    tp0 = transform.build_transform(
        lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    with pytest.raises(NotApplicableError):
        blowup.certify_blowup(tp0, pot3, (5.0, 17.0), 1e-3)


@pytest.mark.parametrize("delta, S", [(math.nan, None), (-0.5, None),
                                      (0.0, None), (math.inf, None),
                                      (1e-3, math.nan), (1e-3, math.inf),
                                      (1e-3, 5.0)])
def test_certify_checks_delta_and_s_before_work(pot3, tp1, monkeypatch,
                                                delta, S):
    """delta must be positive and finite and S finite and above 2n; a bad
    value used to surface only after the Floquet scan and the M search."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("the Floquet sweep ran before delta and S were checked")

    monkeypatch.setattr(floquet, "_fundamental", no_sweep)
    with pytest.raises(ParameterError):
        blowup.certify_blowup(tp1, pot3, (5.0, 17.0), delta, S=S)


def test_certify_refuses_n_above_3_before_work(b05, tp1, monkeypatch):
    """n >= 4 is refused before the lambda scan, with a message that names
    n; it used to fail only after the scan, on the torus grid's dimension."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("the Floquet sweep ran before n was checked")

    monkeypatch.setattr(floquet, "_fundamental", no_sweep)
    with pytest.raises(ParameterError, match="n = 4"):
        blowup.certify_blowup(tp1, coeffs.HillPotential(b05, 4), (5.0, 17.0), 1e-3)


def test_certificate_json(pot3, tp1):
    import json

    cert = blowup.certify_blowup(tp1, pot3, (5.0, 17.0), 1e-3)
    data = json.loads(cert.to_json())
    for key in ("S", "M", "A", "lambda", "y", "mu0", "b21", "b_G", "t_star",
                "smallness", "delta", "sobolev_order", "predicted_v_M",
                "trajectory"):
        assert key in data
    assert data["M"] == 35
    assert data["delta"] == 1e-3
    assert (data["mu0"], data["b21"]) == (cert.m.mu0, cert.m.b21)
    assert data["b_G"] == tp1.endpoints().target


def test_torus_scenario(pot3, tp1):
    """The certified plane wave on one wavelength: whole periods are whole
    steps inside the CFL limit, and the run ends at min(M, ceil(1.2 t*))."""
    cert = blowup.certify_blowup(tp1, pot3, (5.0, 17.0), 1e-3)
    grid, u0, u1 = blowup.torus_scenario(cert)
    assert grid.points == 1024
    assert grid.L == pytest.approx(2 * math.pi / math.sqrt(cert.plan.lam), rel=1e-15)
    assert (1.0 / grid.dt).is_integer()
    grid.check_cfl(pot3.b)
    assert grid.t_end == min(cert.plan.M, math.ceil(1.2 * cert.t_star))
    assert np.all(u0 == cert.plan.amplitude)
    assert abs(u1[grid.points // 2]) == pytest.approx(cert.plan.amplitude, rel=1e-12)


def test_certify_reports_trajectory_that_never_crosses(pot3, tp1, monkeypatch):
    monkeypatch.setattr(blowup, "exact_local_solution",
                        lambda *args: lambda t, x: np.zeros_like(t))
    with pytest.raises(ExhaustedSearchError) as info:
        blowup.certify_blowup(tp1, pot3, (5.0, 17.0), 1e-3)
    assert info.value.best == (35, 0.0)


def test_certify_scans_every_m(pot3, tp1, monkeypatch):
    """Smallness that passes at one M only, with failures on both sides of
    it, is found by the ascending scan."""
    def only_at_40(plan, tp):
        return 0.0 if plan.M == 40 else 1.0

    monkeypatch.setattr(blowup, "plan_smallness", only_at_40)
    cert = blowup.certify_blowup(tp1, pot3, (5.0, 17.0), 1e-3)
    assert cert.plan.M == 40
    assert cert.smallness == 0.0


def test_certify_exhausted_search_reports_best(pot3, tp1):
    with pytest.raises(ExhaustedSearchError) as info:
        blowup.certify_blowup(tp1, pot3, (5.0, 17.0), 1e-12, M_max=40)
    assert "still exceeds" in str(info.value)
    M, small = info.value.best
    assert M == 40 and small > 1e-12
    with pytest.raises(ExhaustedSearchError) as info:
        blowup.certify_blowup(tp1, pot3, (5.0, 17.0), 1e-3, M_max=3)
    assert "growth never reaches" in str(info.value)
    # (M_max, log10|W(M_max)|): a plain tuple of the last M's growth
    m = floquet.find_good_lambda(pot3, floquet.scan_grid((5.0, 17.0), 400))
    (w,), _, _ = floquet.periods(m, [3], (0.0, 1.0))
    assert info.value.best == (3, math.log10(abs(w)))
    assert type(info.value.best[1]) is float


def _skip_plans(tp, n, S, lam, Ms):
    """The plans of the Ms on the phi-skip path, with either sign A."""
    plans = [blowup.BlowupPlan(n, lam, S, int(M), A=(-1) ** int(M)) for M in Ms]
    return [plan for plan in plans if tp.phi_bound(plan.amplitude) <= blowup._PHI_SKIP]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("s_above", [0.5, 2.0], ids=["S=2n+0.5", "S=2n+2"])
@pytest.mark.parametrize("lam", [LAM_WITNESS, 42.0], ids=["first", "second"])
def test_skip_polynomial_matches_direct_sum(tp1, monkeypatch, n, s_above, lam):
    """On the phi-skip path plan_smallness's polynomial in M^-4 is
    radial_pair_norm's direct sum over chi's scaled transform to 8 eps, for
    s = 0, 3 and 7, at the first phi-skip M and 40 log-spaced M up to 1e9.
    lam lies in the first and the second reference instability interval.
    chi's transform has a far factor near 1e-15 of its peak, which leaves
    the cross term below rounding, so the check runs again with a decaying
    tail of 1e-3 of the peak added past the cut, where only it reads."""
    first = _skip_plans(tp1, n, 2 * n + s_above, lam, range(1, 257))[0].M
    Ms = np.unique(np.round(np.geomspace(first, 1e9, 40)))
    chi = blowup._chi_hat(n, 0)
    cut = blowup.radial_head(chi).size
    k = np.arange(chi.size - cut)
    tail = chi.copy()
    tail[cut:] += 1e-3 * np.max(np.abs(chi)) * np.exp(-k / 4096.0)
    try:
        for hat in (chi, tail):
            monkeypatch.setattr(blowup, "_chi_hat", lambda *args: hat)
            blowup._skip_polynomial.cache_clear()
            for s in (0.0, 3.0, 7.0):
                for plan in _skip_plans(tp1, n, 2 * n + s_above, lam, Ms):
                    scale, R = plan.hat_scale, plan.support_radius
                    direct = blowup.radial_pair_norm(scale * blowup.radial_head(hat),
                                                     plan.A * scale * hat, lam, s, R, n)
                    got = blowup.plan_smallness(plan, tp1, s)
                    assert abs(got - direct) <= 8.0 * EPS * direct, (s, plan.M)
    finally:
        blowup._skip_polynomial.cache_clear()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lam", [LAM_WITNESS, 42.0], ids=["first", "second"])
def test_skip_smallness_falls_strictly_with_m(tp1, n, lam):
    """The smallness falls at every phi-skip M up to 4096, also where the
    cross term's far index passes the end of the transform (M = 45 in the
    first interval, 32 in the second)."""
    plans = _skip_plans(tp1, n, 2 * n + 0.5, lam, range(1, 4097))
    assert plans[0].M == {2: 113, 3: 27}[n] and plans[-1].M == 4096
    small = [blowup.plan_smallness(plan, tp1) for plan in plans]
    assert all(b < a for a, b in zip(small, small[1:]))


def _sphere_mean_oracle(s, a, b, n):
    """The mean of (a + b cos theta)^s over S^{n-1} to 40 digits, by
    quadrature in theta: the S^2 measure is sin theta d theta / 2, the
    circle's d theta / pi on [0, pi]."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if n == 3:
            mean = mpmath.quad(lambda th: (a + b * mpmath.cos(th)) ** s
                               * mpmath.sin(th), [0, mpmath.pi]) / 2
        else:
            mean = mpmath.quad(lambda th: (a + b * mpmath.cos(th)) ** s,
                               [0, mpmath.pi]) / mpmath.pi
        return float(mean)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("s", [0, 1, 2, 3, 4, 7])
def test_sphere_mean_weight_matches_mpmath(n, s):
    """The binomial sum is the sphere mean to 4 eps for b/a from 1e-14 to
    0.99: no term is negative, so nothing cancels as b/a falls."""
    a = np.full(40, 1.0 + LAM_WITNESS)
    b = a * np.logspace(-14.0, math.log10(0.99), 40)
    got = blowup._sphere_mean_weight(float(s), a, b, n)
    ref = np.array([_sphere_mean_oracle(s, x, y, n) for x, y in zip(a, b)])
    assert np.all(np.abs(got - ref) <= 4.0 * EPS * ref)


@pytest.mark.parametrize("s", [2.5, -1.0])
def test_sphere_mean_weight_refuses_non_integer_order(s):
    with pytest.raises(ParameterError, match="integer s >= 0"):
        blowup._sphere_mean_weight(s, np.array([2.0]), np.array([1.0]), 3)


def _count_calls(monkeypatch, owner, name):
    """The first argument of each call of owner.name, in order."""
    firsts = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        firsts.append(args[0] if args else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return firsts


@pytest.mark.parametrize("delta, M_max, M, small", [
    (1e-5, 256, 100, 9.829764928615337e-06),
    (1e-6, 256, 193, 9.842208139262333e-07),
    (1e-12, 40, 40, 0.0002414650356514646),
], ids=["1e-05-100", "1e-06-193", "exhausted-40"])
def test_phi_skip_scan_makes_no_direct_sum(pot3, tp1, monkeypatch, delta, M_max,
                                           M, small):
    """Growth first holds at M = 35, on the phi-skip path, so the M scan
    computes the smallness at every M from there, by the polynomial alone:
    no radial_pair_norm call.  It keeps the certified M and its smallness
    (regression constants), or, exhausted, reports the last M's.  For the
    certificates the witness passes, so its map is the sweep's: no
    monodromy call and no edge bisection."""
    plans = _count_calls(monkeypatch, blowup, "plan_smallness")
    sums = _count_calls(monkeypatch, blowup, "radial_pair_norm")
    monodromies = _count_calls(monkeypatch, floquet, "monodromy")
    bisections = _count_calls(monkeypatch, floquet, "instability_intervals")
    if M < M_max:
        cert = blowup.certify_blowup(tp1, pot3, (0.1, 60.0), delta)
        assert (cert.plan.M, cert.smallness) == (M, small)
        assert monodromies == [] and bisections == []
    else:
        with pytest.raises(ExhaustedSearchError) as info:
            blowup.certify_blowup(tp1, pot3, (5.0, 17.0), delta, M_max=M_max)
        assert info.value.best == (M, small)
    assert plans[0].M == 35 and plans[-1].M == M and sums == []


def test_certify_classes_the_good_lambda_once(pot3, tp1, monkeypatch):
    """Monodromy.kind is made once per Monodromy: the M scan's periods
    call and every Propagator call read the good lambda's class, made by
    the search, without recomputing it."""
    classes = _count_calls(monkeypatch, floquet, "trace_class")
    cert = blowup.certify_blowup(tp1, pot3, (0.1, 60.0), 1e-5)
    assert cert.plan.M == 100 and len(classes) <= 2


# (n, delta): M, smallness and predicted_v_M of certify_blowup(tp1,
# sqrt-sin 0.5, (0.1, 60), delta) with one G call per M (regression
# constants), and t_star of the bisection that the section search replaced.
CERTIFIED = {
    (3, 1e-3): (35, 0.00038753003459878236, 1.7391866930778275, 32.10653022007318),
    (3, 1e-5): (100, 9.829764928615337e-06, 4.6961555099254194e+19, 39.34250890635303),
    (2, 1e-3): (87, 0.0009887876095654735, 39916.262041163944, 54.332152357237646),
}


@pytest.fixture(scope="module", params=list(CERTIFIED), ids=["n3-1e-3", "n3-1e-5", "n2-1e-3"])
def certified(request, b05, tp1):
    """A certificate with every _fundamental call it made, as the number of
    lambdas of each."""
    n, delta = request.param
    sizes = []
    real = floquet._fundamental

    def recorded(pot, lams, tol):
        sizes.append(np.size(lams))
        return real(pot, lams, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floquet, "_fundamental", recorded)
        cert = blowup.certify_blowup(tp1, coeffs.HillPotential(b05, n), (0.1, 60.0), delta)
    return request.param, cert, sizes


def _crossing(cert):
    """(v, crossed) of the certificate's plan: its exact local solution and
    the test of reaching the endpoint within 1e-9 |b_G|."""
    target = cert.tp.endpoints().target
    margin = abs(target) * 1e-9
    if target > 0:
        return blowup.exact_local_solution(cert.plan, cert.tp, cert.m), \
            lambda val: val >= target - margin
    return blowup.exact_local_solution(cert.plan, cert.tp, cert.m), \
        lambda val: val <= target + margin


def _bisected_t_star(cert):
    """The first crossing time as bisection finds it: the oracle for
    t_star."""
    v, crossed = _crossing(cert)
    origin = np.zeros(cert.plan.n)
    hit = next(t for t, val in cert.trajectory if crossed(val))
    lo, hi = max(0.0, hit - 0.5), hit
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if crossed(float(v(mid, origin))):
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return hi


def test_t_star_matches_bisection(certified):
    """The section search's t_star is within the stopping width
    1e-12 max(1, t*) of bisection's, has crossed, and one width earlier has
    not: the first crossing.  The whole certificate runs the step
    controller once, on the 400-lambda grid."""
    key, cert, sizes = certified
    t_star = cert.t_star
    width = 1e-12 * max(1.0, t_star)
    assert t_star == pytest.approx(CERTIFIED[key][3], rel=0.0, abs=width)
    assert abs(t_star - _bisected_t_star(cert)) <= width
    v, crossed = _crossing(cert)
    origin = np.zeros(cert.plan.n)
    assert crossed(float(v(t_star, origin)))
    assert not crossed(float(v(t_star - width, origin)))
    assert sizes == [400]


def test_m_scan_makes_one_g_call(certified, monkeypatch):
    """G(M^-S) for every M comes from one G call before the scan; the
    accepted M's value is the one a call at that M alone gives, so M,
    smallness and predicted_v_M are unchanged."""
    key, cert, _ = certified
    M, small, predicted, _ = CERTIFIED[key]
    assert (cert.plan.M, cert.smallness, cert.predicted_v_M) == (M, small, predicted)
    plan = cert.plan
    g0 = cert.tp.G(np.array([M ** -plan.S]))[0]
    (w,), _, (e,) = floquet.periods(cert.m, [M], (0.0, 1.0))
    assert cert.predicted_v_M == g0 + plan.A * plan.amplitude * w * 10.0**int(e)

    sizes = []
    real = transform.TransformPair.G

    def counted(self, u):
        sizes.append(np.size(u))
        return real(self, u)

    monkeypatch.setattr(transform.TransformPair, "G", counted)
    again = blowup.certify_blowup(cert.tp, cert.m.pot, (0.1, 60.0), key[1])
    assert sizes == [256, 1]  # the M scan's one call, then exact_local_solution's
    assert again.t_star == cert.t_star and again.plan.M == M


def test_trajectory_reads_the_scans_w(certified):
    """One W(M): the Propagator at t = M gives, bit for bit, the W(M) =
    10^e w of the M scan's periods call, which the growth test reads, and
    predicted_v_M is G(M^-S) + A M^-S times it."""
    key, cert, _ = certified
    plan = cert.plan
    ws, _, es = floquet.periods(cert.m, np.arange(1, 257), (0.0, 1.0))
    W = ws[plan.M - 1] * 10.0 ** int(es[plan.M - 1])
    got = floquet.Propagator(cert.m)(float(plan.M), (0.0, 1.0))[0]
    assert np.float64(got).tobytes() == np.float64(W).tobytes()
    g0 = cert.tp.G(np.array([plan.M ** -plan.S]))[0]
    assert cert.predicted_v_M == g0 + plan.A * plan.amplitude * got


def test_trajectory_is_one_array_call(certified, monkeypatch):
    """The trajectory is v(t, 0) at every half-integer t from one call:
    each entry is within 8 ulp of a float call at its t (only the array
    power (b/b0)^{n/2} may round differently), and certify_blowup enters
    Propagator.__call__ at most 8 times: once for the trajectory, then once
    per pass of the section search, at its 63 inner points."""
    key, cert, _ = certified
    v, _ = _crossing(cert)
    origin = np.zeros(cert.plan.n)
    times = [t for t, _ in cert.trajectory]
    assert times == [k / 2.0 for k in range(2 * cert.plan.M + 1)]
    for t, val in cert.trajectory:
        one = float(v(t, origin))
        assert abs(val - one) <= 8.0 * np.spacing(abs(one))

    calls = []
    real = floquet.Propagator.__call__

    def counted(self, t, data):
        calls.append(np.size(t))
        return real(self, t, data)

    monkeypatch.setattr(floquet.Propagator, "__call__", counted)
    again = blowup.certify_blowup(cert.tp, cert.m.pot, (0.1, 60.0), key[1])
    assert again.trajectory == cert.trajectory and again.t_star == cert.t_star
    assert calls[0] == len(cert.trajectory) and set(calls[1:]) == {63}
    assert len(calls) <= 8
