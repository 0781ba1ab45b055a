"""Shared fixtures: the standard coefficient, potentials and transform.

Frozen regression constants live next to the tests that assert them; the
fixtures here only cache objects that several files rebuild identically,
plus one guard that several files install the same way.
"""
import math

import numpy as np
import pytest

from cyclicwave import coeffs, transform

# Witness spectral parameter inside the first instability interval of
# b = sqrt(1 + 0.5 sin 2 pi t) at n = 3, as returned by find_good_lambda
# on the (5, 17) window with 400 scan points (regression constant).
LAM_WITNESS = 10.413533834586467


def periodic_integral(g, t):
    """int_0^t g for a 1-periodic g: k int_0^1 g + int_0^{t-k} g with
    k = floor(t), each by quad to a relative 1.2e-14."""
    from scipy.integrate import quad

    k = math.floor(t)
    period, rest = (quad(g, 0.0, end, epsabs=0.0, epsrel=1.2e-14, limit=800)[0]
                    for end in (1.0, t - k))
    return k * period + rest


def f_ray(t):
    """Log-derivative of h along the diagonal ray of the reference
    conformal metric (alpha = -1, two quadratic powers)."""
    t = np.asarray(t, dtype=float)
    return -4.0 * t / (1.0 + 2.0 * t * t)


@pytest.fixture(scope="session")
def b05():
    return coeffs.sqrt_sin(0.5)


@pytest.fixture(scope="session")
def pot3(b05):
    return coeffs.HillPotential(b05, n=3)


@pytest.fixture(scope="session")
def tp1():
    return transform.build_transform(f_ray)


@pytest.fixture
def no_ode_solve(monkeypatch):
    """Fail any scipy solve_ivp call: for checks that must come before work."""
    def no_work(*args, **kwargs):
        raise AssertionError("solve_ivp ran before tol was checked")

    monkeypatch.setattr("scipy.integrate.solve_ivp", no_work)
