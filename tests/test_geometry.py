"""Metric charts, Christoffel symbols, distinguished lines, geodesics
and curvature against closed-form oracles."""
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cyclicwave import geometry
from cyclicwave.errors import ParameterError, SingularMetricError

from conftest import gaussian_curvature


def _christoffel_fd(M, u, eps=1e-6):
    """Independent oracle: central finite differences of the metric."""
    m = len(u)
    h0 = M.h(u)
    dh = np.zeros((m, m, m))
    for k in range(m):
        up, um = np.array(u, float), np.array(u, float)
        up[k] += eps
        um[k] -= eps
        dh[:, :, k] = (M.h(up) - M.h(um)) / (2 * eps)
    hinv = np.linalg.inv(h0)
    gamma = np.zeros((m, m, m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                s = 0.0
                for l in range(m):
                    s += hinv[i, l] * (dh[l, j, k] + dh[l, k, j] - dh[j, k, l])
                gamma[i, j, k] = 0.5 * s
    return gamma


def _off_diagonal(c):
    """H_ij = c (u_i - u_j)^2 / (1 + |u|^2): zero with zero gradient on
    the diagonal."""
    def H(u):
        u = np.asarray(u, dtype=float)
        return c * (u[..., :, None] - u[..., None, :]) ** 2 \
            / (1.0 + np.sum(u * u, axis=-1))[..., None, None]

    return H


@pytest.mark.parametrize("make", [
    lambda: geometry.conformal_power(-1.0, (2, 2)),
    lambda: geometry.conformal_power(-0.6, (2, 4)),
    lambda: geometry.half_plane_power(3.0),
    lambda: geometry.conformal_power(-1.0, (2, 2)).perturbed(_off_diagonal(0.3)),
])
def test_christoffel_against_finite_differences(make):
    M = make()
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.uniform(0.1, 1.2, size=2)
        got = geometry.christoffel(M, u)
        ref = _christoffel_fd(M, u)
        assert np.allclose(got, ref, rtol=1e-6, atol=1e-8)


def test_christoffel_conformal_closed_form():
    # for h = phi(u) I: Gamma^i_jk = (d_ij d_k phi + d_ik d_j phi
    #                                 - d_jk d_i phi) / (2 phi)
    alpha = -1.3
    M = geometry.conformal_power(alpha, (2, 2))
    u = np.array([0.4, -0.9])
    phi = (1 + u @ u) ** alpha
    grad = 2 * alpha * u * (1 + u @ u) ** (alpha - 1)
    m = 2
    ref = np.zeros((m, m, m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                ref[i, j, k] = ((i == j) * grad[k] + (i == k) * grad[j]
                                - (j == k) * grad[i]) / (2 * phi)
    assert np.allclose(geometry.christoffel(M, u), ref,
                       rtol=1e-10, atol=1e-12)


def test_diagonal_line_is_distinguished():
    M = geometry.conformal_power(-1.0, (2, 2))
    line = geometry.check_self_coherence(M, np.array([1.0, 1.0]), (0.0, 3.0))
    assert line.max_residual < 1e-10
    # the least-squares coherence factor along the diagonal
    for t, fval in line.f_samples:
        assert fval == pytest.approx(2 * (-1.0) * t / (1 + 2 * t * t),
                                     abs=1e-10)


def test_ray_log_derivative_is_twice_coherence_factor():
    """The log-derivative of h along the ray is exactly twice the
    coherence factor for a conformal power metric on the diagonal."""
    M = geometry.conformal_power(-1.0, (2, 2))
    fray = M.ray(np.array([1.0, 1.0]))[0]
    for t in (0.2, 0.7, 1.9):
        assert fray(t) == pytest.approx(4 * (-1.0) * t / (1 + 2 * t * t),
                                        abs=1e-12)


_LINE = (-math.inf, math.inf)


@pytest.mark.parametrize("a, domain", [
    ((0.0, 1.0), (-1.0, math.inf)),
    ((0.0, -1.0), (-math.inf, 1.0)),
    ((0.0, 0.5), (-2.0, math.inf)),
    ((1.0, 0.0), _LINE),
], ids=["up", "down", "up-half", "horizontal"])
def test_half_plane_ray_domain_is_exact(a, domain):
    """The ray t*a leaves v > -1 where 1 + a2 t = 0, at exactly -1/a2; it
    is the domain edge: in_domain holds one ulp inside it and fails one ulp
    outside."""
    a = np.array(a)
    M = geometry.half_plane_power(4.0)
    assert M.ray(a)[1] == domain
    for edge, inward in ((domain[0], math.inf), (domain[1], -math.inf)):
        if math.isfinite(edge):
            assert M.in_domain(a * np.nextafter(edge, inward))
            assert not M.in_domain(a * edge)
            assert not M.in_domain(a * np.nextafter(edge, -inward))


@pytest.mark.parametrize("M", [
    geometry.conformal_power(-1.0, (2, 2)),
    geometry.conformal_power(-1.0, (2, 4)),
    geometry.conformal_power(-1.0, (2, 2)).perturbed(lambda u: np.zeros((2, 2))),
], ids=["conformal", "quartic", "perturbed"])
def test_conformal_ray_domain_is_the_line(M):
    for a in ((1.0, 1.0), (0.0, 1.0), (1.0, -0.5)):
        assert M.ray(np.array(a))[1] == _LINE
    assert M.in_domain(np.array([-1e300, 1e300]))


def test_axis_lines_of_mixed_powers():
    # h = (1 + u^2 + v^4)^alpha: both axes are distinguished, with
    # coherence factors alpha t/(1+t^2) and 2 alpha t^3/(1+t^4)
    alpha = -0.75
    M = geometry.conformal_power(alpha, (2, 4))
    ax1 = geometry.check_self_coherence(M, np.array([1.0, 0.0]), (0.0, 2.0))
    ax2 = geometry.check_self_coherence(M, np.array([0.0, 1.0]), (0.0, 2.0))
    assert ax1.max_residual < 1e-10
    assert ax2.max_residual < 1e-10
    for t, fval in ax1.f_samples:
        assert fval == pytest.approx(alpha * t / (1 + t * t), abs=1e-10)
    for t, fval in ax2.f_samples:
        assert fval == pytest.approx(2 * alpha * t ** 3 / (1 + t ** 4),
                                     abs=1e-10)


def test_non_coherent_direction_reports_residual():
    # the diagonal of the mixed-power metric is not distinguished
    M = geometry.conformal_power(-1.0, (2, 4))
    line = geometry.check_self_coherence(M, np.array([1.0, 1.0]), (0.0, 2.0))
    assert line.max_residual > 1e-3


def test_half_plane_vertical_line():
    ell = 2.0
    M = geometry.half_plane_power(ell)
    line = geometry.check_self_coherence(M, np.array([0.0, 1.0]), (0.0, 3.0))
    assert line.max_residual < 1e-10
    for t, fval in line.f_samples:
        assert fval == pytest.approx(-ell / (2 * (1 + t)), abs=1e-10)


def test_perturbed_diagonal_metric():
    # adding c*(u_i - u_j)^2/(1+|u|^2) off-diagonal terms keeps the
    # diagonal distinguished with the conformal coherence factor
    alpha, m, c = -1.0, 3, 0.4
    base = geometry.conformal_power(alpha, (2,) * m)

    def H(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1] + (m, m))
        den = 1.0 + np.sum(u * u, axis=-1)
        for i in range(m):
            for j in range(m):
                if i != j:
                    out[..., i, j] = c * (u[..., i] - u[..., j]) ** 2 / den
        return out

    M = base.perturbed(H)
    a = np.ones(m)
    line = geometry.check_self_coherence(M, a, (0.0, 2.0))
    assert line.max_residual < 1e-8
    for t, fval in line.f_samples:
        assert fval == pytest.approx(m * alpha * t / (1 + m * t * t),
                                     abs=1e-8)


def _coherence_per_point(M, a, t_range):
    """check_self_coherence as a loop of one-point christoffel calls:
    (f_samples, max_residual), raising as it did before the stacked pass."""
    a = np.asarray(a, dtype=float)
    out, worst = [], 0.0
    for t in np.linspace(t_range[0], t_range[1], 64):
        u = a * t
        if not M.in_domain(u):
            raise ParameterError(f"line leaves the metric domain at t={t}")
        c = np.einsum("ijk,j,k->i", geometry.christoffel(M, u), a, a)
        f_t = float(a @ c) / float(a @ a)
        worst = max(worst, float(np.max(np.abs(c - a * f_t))))
        out.append((float(t), f_t))
    return out, worst


def _singular_below(v):
    """H = -I (so h = 0) where u^2 < v, else 0."""
    return lambda u: np.where((u[..., 1] < v)[..., None, None], -np.eye(2), 0.0)


@pytest.mark.parametrize("M, a", [
    (geometry.conformal_power(-1.0, (2, 2)), (1.0, 1.0)),
    (geometry.conformal_power(-1.0, (2, 4)), (1.0, 1.0)),
    (geometry.conformal_power(-0.75, (2, 4)), (0.0, 1.0)),
    (geometry.half_plane_power(2.0), (0.0, 1.0)),
    (geometry.half_plane_power(2.0), (0.7, -0.3)),
    (geometry.conformal_power(-1.0, (2, 2)).perturbed(_off_diagonal(0.3)), (1.0, 1.0)),
    (geometry.conformal_power(-1.0, (2, 2)).perturbed(_off_diagonal(0.3)), (1.0, 0.2)),
], ids=["conformal", "quartic-diagonal", "quartic-axis", "halfplane-up",
        "halfplane-oblique", "perturbed-diagonal", "perturbed-off"])
def test_coherence_matches_per_point_christoffel(M, a):
    """The stacked pass over the 64 points gives the per-point loop's
    factors and worst residual up to rounding."""
    line = geometry.check_self_coherence(M, np.array(a), (0.0, 2.0))
    f_ref, worst_ref = _coherence_per_point(M, a, (0.0, 2.0))
    assert [t for t, _ in line.f_samples] == [t for t, _ in f_ref]
    assert [f for _, f in line.f_samples] == pytest.approx(
        [f for _, f in f_ref], rel=1e-13, abs=1e-15)
    assert line.max_residual == pytest.approx(worst_ref, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("H, error", [
    (None, ParameterError),
    (_singular_below(-0.5), SingularMetricError),
    (_singular_below(-1.5), ParameterError),
], ids=["leaves-domain", "singular-first", "leaves-domain-first"])
def test_coherence_raises_for_the_first_failing_t(H, error):
    """Down the half-plane's vertical line, the domain ends at t = 1: the
    first point that is singular or outside raises, with the per-point
    loop's message."""
    M = geometry.half_plane_power(2.0)
    M = M if H is None else M.perturbed(H)
    a = np.array([0.0, -1.0])
    with pytest.raises(error) as ref:
        _coherence_per_point(M, a, (0.0, 2.0))
    with pytest.raises(error, match=re.escape(str(ref.value))):
        geometry.check_self_coherence(M, a, (0.0, 2.0))


def geodesic_reduced(f, xi_hat, s_max, tol=1e-10, n_samples=200):
    """Oracle: the scalar reduced geodesic u'' + f(u) u'^2 = 0 from u = 0
    with chart speed xi_hat, as [(s, u, u'), ...] at n_samples points."""
    sol = solve_ivp(lambda s, y: [y[1], -f(y[0]) * y[1] ** 2], (0.0, s_max),
                    [0.0, xi_hat], method="DOP853", rtol=tol, atol=tol,
                    t_eval=np.linspace(0.0, s_max, n_samples))
    assert sol.success, sol.message
    return [(float(s), float(sol.y[0, i]), float(sol.y[1, i]))
            for i, s in enumerate(sol.t)]


def h_speed_drift(M, samples):
    """Max relative drift of the h-speed along [(s, u, udot), ...] from its
    value at the first sample."""
    speeds = [float(du @ M.h(u) @ du) for _, u, du in samples]
    return max(abs(sp - speeds[0]) / abs(speeds[0]) for sp in speeds)


def test_geodesic_diagonal_sinh():
    M = geometry.conformal_power(-1.0, (2, 2))
    d = np.array([1.0, 1.0])
    v0 = d / math.sqrt(d @ M.h(np.zeros(2)) @ d)
    geo = geometry.geodesic_full(M, np.zeros(2), v0, 3.0, tol=1e-12)
    for s, u, _ in geo:
        ref = math.sinh(s) / math.sqrt(2)
        assert u[0] == pytest.approx(ref, abs=1e-6)
        assert u[1] == pytest.approx(ref, abs=1e-6)


def test_geodesic_vertical_exponential():
    M = geometry.half_plane_power(2.0)
    d = np.array([0.0, 1.0])
    v0 = d / math.sqrt(d @ M.h(np.zeros(2)) @ d)
    geo = geometry.geodesic_full(M, np.zeros(2), v0, 3.0, tol=1e-12)
    for s, u, _ in geo:
        assert u[0] == pytest.approx(0.0, abs=1e-10)
        assert u[1] == pytest.approx(math.exp(s) - 1.0, abs=1e-6)


def test_geodesic_h_speed_conserved():
    M = geometry.conformal_power(-0.8, (2, 4))
    v0 = np.array([0.3, 0.8])
    geo = geometry.geodesic_full(M, np.array([0.1, 0.2]), v0, 2.0, tol=1e-12)
    assert h_speed_drift(M, geo) < 1e-9


def test_geodesic_full_tol_checked_before_work(no_ode_solve):
    """geodesic_full checks tol as the CLI does, before the solver runs."""
    with pytest.raises(ParameterError, match=r"tol must lie in \[1e-13, 1e-6\]"):
        geometry.geodesic_full(geometry.conformal_power(-1.0, (2, 2)),
                               np.zeros(2), np.ones(2), 3.0, tol=0.0)


@pytest.mark.parametrize("s_max", [0.0, -1.0, math.nan, math.inf])
def test_geodesic_full_s_max_checked_before_work(no_ode_solve, s_max):
    """A nan or infinite s_max would reach the solver: it is refused first."""
    with pytest.raises(ParameterError, match=r"s_max must lie in \(0, inf\)"):
        geometry.geodesic_full(geometry.conformal_power(-1.0, (2, 2)),
                               np.zeros(2), np.ones(2), s_max)


def test_reduced_matches_full():
    """The scalar reduced equation x'' + f(x) x'^2 = 0 reproduces the full
    geodesic along a distinguished line."""
    alpha = -1.0
    M = geometry.conformal_power(alpha, (2, 2))
    a = np.array([1.0, 1.0])
    f_exact = lambda t: 2 * alpha * t / (1 + 2 * t * t)
    red = geodesic_reduced(f_exact, 1.0 / math.sqrt(2), 2.5, tol=1e-12)
    v0 = a / math.sqrt(a @ M.h(np.zeros(2)) @ a)
    full = geometry.geodesic_full(M, np.zeros(2), v0, 2.5, tol=1e-12)
    full_by_s = {round(s, 12): u for s, u, _ in full}
    matched = 0
    for s, x, _ in red:
        key = round(s, 12)
        if key in full_by_s:
            assert x == pytest.approx(full_by_s[key][0], abs=1e-7)
            matched += 1
    assert matched >= 10


def test_gaussian_curvature_constant_alpha_minus_2():
    M = geometry.conformal_power(-2.0, (2, 2))
    rng = np.random.default_rng(2)
    ks = [gaussian_curvature(M, rng.normal(size=2)) for _ in range(25)]
    assert max(abs(k - 8.0) for k in ks) < 1e-8


def test_gaussian_curvature_closed_forms():
    rng = np.random.default_rng(4)
    for alpha in (-1.0, -0.7, 0.5):
        M = geometry.conformal_power(alpha, (2, 2))
        u = rng.normal(size=2)
        ref = -4 * alpha * (1 + u @ u) ** (-alpha - 2)
        assert gaussian_curvature(M, u) == pytest.approx(ref,
                                                                  rel=1e-8)
    # mixed powers h = (1+u^2+v^4)^alpha
    alpha = -1.0
    M = geometry.conformal_power(alpha, (2, 4))
    uu, vv = 0.4, -0.8
    ref = -2 * alpha * (uu ** 2 * (6 * vv ** 2 - 1) - 2 * vv ** 6 + vv ** 4
                        + 6 * vv ** 2 + 1) * (uu ** 2 + vv ** 4 + 1) ** (-alpha - 2)
    got = gaussian_curvature(M, np.array([uu, vv]))
    assert got == pytest.approx(ref, rel=1e-8)


def test_domain_validation():
    M = geometry.half_plane_power(2.0)
    assert M.in_domain(np.array([0.0, 0.5]))
    assert not M.in_domain(np.array([0.0, -1.5]))
    with pytest.raises(ParameterError):
        geometry.christoffel(M, np.array([0.0, -1.5]))
