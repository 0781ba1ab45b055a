"""Integral transform, inverse, endpoints and convergence classifier."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicwave import geometry, transform
from cyclicwave.cli import F_FAMILIES
from cyclicwave.errors import ParameterError

import transform_reference
from conftest import f_ray

B_G_REF = math.pi / (2.0 * math.sqrt(2.0))  # endpoint for f_ray


def _families():
    return [
        ("zero", lambda t: np.zeros_like(np.asarray(t, dtype=float)),
         (-math.inf, math.inf)),
        ("ray", f_ray, (-math.inf, math.inf)),
        ("soft", lambda t: -0.3 * np.tanh(np.asarray(t, dtype=float)),
         (-math.inf, math.inf)),
        ("poly", lambda t: np.asarray(t, dtype=float) /
         (1.0 + np.asarray(t, dtype=float) ** 4), (-math.inf, math.inf)),
        ("shifted", lambda t: -2.0 / (1.0 + np.asarray(t, dtype=float)),
         (-1.0, math.inf)),
    ]


def test_roundtrip_h_of_g():
    for name, f, dom in _families():
        tp = transform.build_transform(f, domain=dom)
        lo = max(dom[0] + 0.05, -3.0)
        for u in np.linspace(lo, 3.0, 13):
            assert tp.H(tp.G(u)) == pytest.approx(u, abs=1e-9), name


def test_g_is_increasing_and_odd_for_even_weight(tp1):
    us = np.linspace(-4.0, 4.0, 33)
    gs = np.array([tp1.G(u) for u in us])
    assert np.all(np.diff(gs) > 0)
    # f_ray is odd, so exp(F) is even and G is odd
    assert np.allclose(gs + gs[::-1], 0.0, atol=1e-12)


# |u| <= 1e5 keeps G(u) = atan(sqrt2 u)/sqrt2 at least 1/(2|u|) = 5e-6 from
# its endpoint, far from where H clamps (|u| near 4.5e7).  Near the endpoint
# H = G^-1 amplifies the rounding of v by dH/dv = 1 + 2u^2, a relative error
# of about 2|u| eps, so from |u| ~ 1e6 on, 1e-10 is out of reach.
_U = st.floats(-1e5, 1e5)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(u=_U)
def test_h_inverts_g_property(tp1, u):
    assert tp1.H(tp1.G(u)) == pytest.approx(u, rel=1e-10, abs=1e-300)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(u=_U, gap=st.floats(1e-6, 10.0))
def test_g_strictly_increasing_property(tp1, u, gap):
    """G(u) < G(v) for v above u by at least 1e-6 (1 + |u|), a gap that
    changes G by far more than its rounding."""
    v = u + gap * (1.0 + abs(u))
    assert tp1.G(u) < tp1.G(v)


def test_phi_and_g_closed_form(tp1):
    # F(s) = -ln(1 + 2 s^2); G(u) = arctan(sqrt(2) u)/sqrt(2)
    for s in (-2.0, -0.5, 0.1, 1.7):
        assert float(tp1.Phi(s)) == pytest.approx(-math.log(1 + 2 * s * s),
                                                  abs=1e-10)
        assert tp1.G(s) == pytest.approx(math.atan(math.sqrt(2) * s)
                                         / math.sqrt(2), abs=1e-10)


def test_endpoints_reference_value(tp1):
    ep = tp1.endpoints()
    assert ep.b_finite and ep.a_finite
    assert ep.b == pytest.approx(B_G_REF, abs=1e-9)
    assert ep.a == pytest.approx(-B_G_REF, abs=1e-9)


@pytest.mark.parametrize("alpha", [-1.25, -1.1, -1.0, -0.9, -0.75])
def test_endpoint_error_bar_covers_closed_form(alpha):
    """On the diagonal ray of conformal:alpha, F = (1 + 2 s^2)^alpha and
    int_0^inf F = sqrt(pi/8) Gamma(-alpha - 1/2) / Gamma(-alpha); each
    endpoint lies within its own error bar (plus rounding) of that."""
    f = geometry.conformal_power(alpha).ray(np.ones(2))[0]
    ep = transform.build_transform(f).endpoints()
    ref = math.sqrt(math.pi / 8.0) * math.gamma(-alpha - 0.5) / math.gamma(-alpha)
    assert abs(ep.b - ref) <= ep.b_err + 4e-15 * abs(ep.b)
    assert abs(ep.a + ref) <= ep.a_err + 4e-15 * abs(ep.a)


def test_endpoints_divergent():
    tp = transform.build_transform(lambda t: np.zeros_like(np.asarray(t, float)))
    ep = tp.endpoints()
    assert not ep.a_finite and not ep.b_finite


def test_endpoints_half_line_domain():
    # f = -ell/(2(1+t)) on (-1, inf): weight (1+s)^(-ell/2)
    # weight (1+s)^(-ell/2): forward converges iff ell > 2; toward the
    # domain edge -1 the integral converges iff ell < 2
    for ell, b_fin, a_fin in ((4.0, True, False), (1.0, False, True)):
        f = lambda t: -ell / (2.0 * (1.0 + np.asarray(t, dtype=float)))
        tp = transform.build_transform(f, domain=(-1.0, math.inf))
        ep = tp.endpoints()
        assert ep.b_finite == b_fin
        assert ep.a_finite == a_fin
        if b_fin:
            assert ep.b == pytest.approx(2.0 / (ell - 2.0), abs=1e-9)
        if a_fin:
            # the edge value is resolution-limited by the geometric approach
            # to the singularity; 1e-5 reflects the achievable accuracy there
            assert ep.a == pytest.approx(-2.0 / (2.0 - ell), abs=1e-5)


@pytest.mark.parametrize("ell", [0.5, 0.75])
def test_half_plane_ray_endpoint_within_error_bar(ell):
    """The vertical ray of halfplane:ell has F = (1 + s)^-ell on (-1, inf),
    so G's lower endpoint is -1/(1 - ell).  With the ray's exact edge -1
    the endpoint lies within its own error bar; a bisected edge one ulp
    short of -1 put it 3.7e-12 (ell = 0.5) and 9.7e-10 (ell = 0.75) off,
    outside a_err."""
    f, domain = geometry.half_plane_power(ell).ray(np.array([0.0, 1.0]))
    ep = transform.TransformPair(f, domain=domain).endpoints()
    assert ep.a_finite
    assert abs(ep.a + 1.0 / (1.0 - ell)) <= ep.a_err


def test_classifier_calibration():
    """Weight (1+s)^p one-sided families: convergence iff p < -1, with the
    local exponent recovered; the margin band flags near-threshold p."""
    for p in (-2.0, -1.5, -1.2, -0.8, -0.5, 0.5):
        f = lambda t, p=p: p / (1.0 + np.abs(np.asarray(t, dtype=float)))
        v = transform.noc_check(f)
        expect = "convergent" if p < -1.0 else "divergent"
        assert v.forward == expect, p
        assert v.p_hat_fwd == pytest.approx(p, abs=2e-3)
    # inside the margin band the verdict must be inconclusive
    f = lambda t: -1.02 / (1.0 + np.abs(np.asarray(t, dtype=float)))
    assert transform.noc_check(f).forward == "inconclusive"


def test_noc_holds_requires_both_sides():
    yes = transform.noc_check(lambda t: np.zeros_like(np.asarray(t, float)))
    assert yes.holds == "yes"
    no = transform.noc_check(f_ray)
    assert (no.forward, no.backward, no.holds) == ("convergent", "convergent",
                                                   "no")
    mixed = transform.noc_check(
        lambda t: -4.0 / (2.0 * (1.0 + np.asarray(t, dtype=float))),
        domain=(-1.0, math.inf))
    assert mixed.forward == "convergent"
    assert mixed.backward == "divergent"
    assert mixed.holds == "no"


def test_h_clamps_near_endpoint(tp1):
    with pytest.warns(transform.EndpointProximityWarning):
        u = tp1.H(B_G_REF * (1.0 - 1e-15))
    assert math.isfinite(u)


def test_h_clamps_out_of_range(tp1):
    with pytest.warns(transform.EndpointProximityWarning):
        u = tp1.H(B_G_REF * 1.5)
    assert math.isfinite(u)
    assert tp1.G(u) == pytest.approx(B_G_REF, abs=1e-6)


def test_tol_checked_before_work():
    """TransformPair checks tol as the CLI does, before construction's first
    panel (which an unchecked tol=0.0 made hang): f is never evaluated."""
    def no_work(t):
        raise AssertionError("f was evaluated before tol was checked")

    with pytest.raises(ParameterError, match=r"tol must lie in \[1e-13, 1e-6\]"):
        transform.TransformPair(no_work, tol=0.0)


@pytest.mark.parametrize("bad", [{"s_max": math.nan}, {"s_max": math.inf},
                                 {"margin": -1.0}, {"margin": math.nan},
                                 {"margin": math.inf}])
def test_noc_check_rejects_out_of_range_before_work(bad, monkeypatch):
    """A nan s_max failed inside a panel lookup, an infinite one never
    returned, and a negative or nan margin turned every verdict around or
    inconclusive: each is a ParameterError before any panel is built."""
    def no_panels(*args):
        raise AssertionError("a panel was built before the options were checked")

    monkeypatch.setattr(transform._Side, "reach", no_panels)
    with pytest.raises(ParameterError):
        transform.noc_check(f_ray, **bad)


def test_verdict_json_roundtrip():
    import json

    v = transform.noc_check(f_ray)
    j = json.loads(v.to_json())
    assert set(j) == {"forward", "backward", "holds", "p_hat_fwd", "p_hat_bwd"}
    assert all(isinstance(x, (str, float)) for x in j.values())


def _rays():
    """(f, domain) of every --f family and of the conformal and half-plane
    rays."""
    return [F_FAMILIES["zero"](), F_FAMILIES["example1"](-1.0),
            F_FAMILIES["example2"](1.75), F_FAMILIES["example3"](-0.7),
            F_FAMILIES["example3"](-0.7, 2), F_FAMILIES["example4"](-1.01),
            geometry.conformal_power(-1.0).ray(np.ones(2)),
            geometry.half_plane_power(0.5).ray(np.array([0.0, 1.0]))]


def test_maps_match_reference_fit():
    """c = V^T y / scale keeps chebinterpolate's bits, m = D c agrees with
    chebdiv(chebint(c)) to 16 ulp of its largest coefficient, and the
    resolution test agrees, on panels of both sides of each ray."""
    x, V, scale, _ = transform._maps()
    ulp = 16.0 * np.finfo(float).eps
    for f, domain in _rays():
        for d, edge in ((1, domain[1]), (-1, domain[0])):
            for s0, w in ((0.0, 1.0), (1.0, 2.0), (1023.0, 1024.0), (0.5, 1e-3)):
                if s0 + w >= abs(edge):
                    continue
                y = d * f(d * (s0 + 0.5 * w * (x + 1.0)))
                c_ref = np.polynomial.chebyshev.chebinterpolate(lambda _: y, transform._DEG)
                m_ref, ok_ref = transform_reference.mean_value(lambda _: y, 1e-12)
                m, ok = transform._mean_value(y, 1e-12)
                assert (V.T @ y / scale).tobytes() == c_ref.tobytes()
                assert np.max(np.abs(m - m_ref)) <= ulp * np.max(np.abs(m_ref))
                assert ok == ok_ref


@pytest.mark.parametrize("f, domain", [
    (f_ray, (-math.inf, math.inf)),
    geometry.half_plane_power(0.5).ray(np.array([0.0, 1.0])),
    F_FAMILIES["example2"](1.75),
    (lambda t: -0.3 * np.tanh(np.asarray(t, dtype=float)), (-math.inf, math.inf)),
], ids=["reference-ray", "halfplane-0.5-vertical", "example2-1.75", "soft"])
def test_panel_boundaries_match_reference(f, domain, monkeypatch):
    """The maps build the same panels (s0, s1) as the numpy.polynomial
    fits, exactly, on both sides out to the endpoint integration.  On the
    soft ray F underflows near |s| = 2500, where tol * max|c| underflows
    too: there coefficients an ulp off chebinterpolate's fail the
    resolution test and halve the panels down to _MIN_WIDTH."""
    def bounds(tp):
        tp.endpoints()
        return [[(p[0], p[1]) for p in side.panels] + [side.terminated]
                for side in (tp._pos, tp._neg)]

    got = bounds(transform.TransformPair(f, domain=domain))
    monkeypatch.setattr(transform._Side, "reach", transform_reference.reach)
    assert got == bounds(transform.TransformPair(f, domain=domain))


def test_eval_matches_reference_bitwise():
    """One Clenshaw pass over all points gives the bits of a pass per panel
    and series, for points on many panels, beyond the frontier and 0-d."""
    for f, domain in _rays():
        tp = transform.TransformPair(f, domain=domain)
        tp.endpoints()
        for side in (tp._pos, tp._neg):
            s = np.concatenate([np.linspace(0.0, side.frontier[0], 257),
                                np.logspace(-9.0, 7.0, 64)])
            got = side.eval(s)
            ref = transform_reference.evaluate(side, s)
            for a, b in zip(got, ref):
                assert a.tobytes() == b.tobytes()
            for s0 in (0.0, 0.3, side.frontier[0]):
                assert [float(v) for v in side.eval(s0)] == [
                    float(v) for v in transform_reference.evaluate(side, s0)]
