"""Coefficient and potential checks against a CAS oracle and the
substitution identity that pins the potential down."""
import math

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import solve_ivp

from cyclicwave import coeffs
from cyclicwave.errors import ParameterError

from printed_q import q_variant


def _sympy_sqrt_sin(eps):
    t = sp.Symbol("t", real=True)
    b = sp.sqrt(1 + eps * sp.sin(2 * sp.pi * t))
    return t, b


def test_builtin_derivatives_match_cas():
    eps = 0.5
    bnum = coeffs.sqrt_sin(eps)
    t, b = _sympy_sqrt_sin(eps)
    d1 = sp.lambdify(t, sp.diff(b, t), "numpy")
    d2 = sp.lambdify(t, sp.diff(b, t, 2), "numpy")
    ts = np.linspace(-1.3, 2.7, 41)
    assert np.allclose(bnum.eval(ts), np.sqrt(1 + eps * np.sin(2 * np.pi * ts)),
                       rtol=0, atol=1e-14)
    assert np.allclose(bnum.d1(ts), d1(ts), rtol=1e-12, atol=1e-12)
    assert np.allclose(bnum.d2(ts), d2(ts), rtol=1e-12, atol=1e-12)


def test_builtin_periodicity(b05):
    ts = np.linspace(0.0, 1.0, 17)
    for fn in (b05.eval, b05.d1, b05.d2):
        assert np.allclose(fn(ts), fn(ts + 3.0), rtol=0, atol=1e-13)


def test_potential_matches_cas(b05):
    eps = 0.5
    t, b = _sympy_sqrt_sin(eps)
    for n in (1, 2, 3):
        pot = coeffs.HillPotential(b05, n=n)
        qsym = (sp.Rational(n * n, 4) + sp.Rational(n, 2)) * (sp.diff(b, t) / b) ** 2 \
            - sp.Rational(n, 2) * sp.diff(b, t, 2) / b
        qfun = sp.lambdify(t, sp.simplify(qsym), "numpy")
        ts = np.linspace(0.05, 0.95, 19)
        assert np.allclose(pot.q(ts), qfun(ts), rtol=1e-11, atol=1e-11)


def test_substitution_identity_symbolic():
    """CAS proof of the reduction: with q as implemented, v = b^{n/2} w
    solves v'' - n (b'/b) v' + lam b^2 v = 0 whenever
    w'' + (lam b^2 - q) w = 0.  The two printed variants do not."""
    t = sp.Symbol("t", real=True)
    lam = sp.Symbol("lam", positive=True)
    b = sp.Function("b", positive=True)(t)
    w = sp.Function("w")(t)
    for n in (1, 2, 3):
        q_good = (sp.Rational(n * n, 4) + sp.Rational(n, 2)) * (sp.diff(b, t) / b) ** 2 \
            - sp.Rational(n, 2) * sp.diff(b, t, 2) / b
        q_intro = sp.Rational(n, 4) * (sp.Rational(n, 4) - 1) * (sp.diff(b, t) / b) ** 2 \
            - sp.Rational(n, 2) * sp.diff(b, t, 2) / b
        a = b ** 2
        ar = sp.diff(a, t) / a
        add = sp.diff(a, t, 2) / a
        q_alpha = sp.Rational(n, 4) * (sp.Rational(3, 2) * ar ** 2 - add) \
            - sp.Rational(n, 8) * (sp.Rational(n, 2) - 1) * ar ** 2
        for q, expect_zero in ((q_good, True), (q_intro, False),
                               (q_alpha, n == 2)):
            v = b ** sp.Rational(n, 2) * w
            resid = sp.diff(v, t, 2) - n * sp.diff(b, t) / b * sp.diff(v, t) \
                + lam * b ** 2 * v
            resid = resid.subs(sp.diff(w, t, 2), -(lam * b ** 2 - q) * w)
            resid = sp.simplify(resid)
            if expect_zero:
                assert resid == 0, (n, resid)
            else:
                assert resid != 0, (n,)


def _substitution_residual(pot, qfun, lam, rng):
    """Numeric substitution check: integrate the reduced equation with the
    candidate q, lift by b^{n/2}, and compare with the direct solution of
    the unreduced equation from the matching initial data."""
    b = pot.b
    n = pot.n

    def rhs_w(t, y):
        return [y[1], -(lam * float(b.eval(t)) ** 2 - float(qfun(t))) * y[0]]

    def rhs_v(t, y):
        bt = float(b.eval(t))
        return [y[1], n * float(b.d1(t)) / bt * y[1] - lam * bt ** 2 * y[0]]

    w0, wt0 = rng.normal(size=2)
    b0, b10 = float(b.eval(0.0)), float(b.d1(0.0))
    v0 = b0 ** (n / 2.0) * w0
    vt0 = b0 ** (n / 2.0) * wt0 + (n / 2.0) * b0 ** (n / 2.0 - 1.0) * b10 * w0
    T = 3.0
    sw = solve_ivp(rhs_w, (0, T), [w0, wt0], method="DOP853",
                   rtol=1e-12, atol=1e-14, dense_output=True)
    sv = solve_ivp(rhs_v, (0, T), [v0, vt0], method="DOP853",
                   rtol=1e-12, atol=1e-14, dense_output=True)
    ts = np.linspace(0.0, T, 31)
    lifted = np.asarray(b.eval(ts)) ** (n / 2.0) * sw.sol(ts)[0]
    scale = float(np.max(np.abs(sv.sol(ts)[0]))) or 1.0
    return float(np.max(np.abs(lifted - sv.sol(ts)[0]))) / scale


def test_substitution_identity_numeric(b05):
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        pot = coeffs.HillPotential(b05, n=n)
        for lam in rng.uniform(0.5, 40.0, size=5):
            assert _substitution_residual(pot, pot.q, lam, rng) < 1e-9


def test_variants_fail_substitution(b05):
    rng = np.random.default_rng(11)
    lam = 7.3
    for n in (1, 3):
        pot = coeffs.HillPotential(b05, n=n)
        for which in ("intro", "alpha-form"):
            qv = lambda t: q_variant(pot, t, which)
            assert _substitution_residual(pot, qv, lam, rng) > 1e-3


def test_alpha_form_coincides_at_n2(b05):
    pot = coeffs.HillPotential(b05, n=2)
    ts = np.linspace(0.0, 1.0, 21)
    assert np.allclose(pot.q(ts), q_variant(pot, ts, "alpha-form"),
                       rtol=1e-12, atol=1e-12)


def test_alpha_is_b_squared(pot3, b05):
    ts = np.linspace(0.0, 1.0, 13)
    assert np.allclose(pot3.alpha(ts), b05.eval(ts) ** 2, rtol=0, atol=1e-14)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        coeffs.sqrt_sin(1.5)
    with pytest.raises(ParameterError):
        coeffs.HillPotential(coeffs.constant(), 0)
