"""Periodic scale functions b(t) and derived Hill-equation coefficients.

All builtin coefficients are normalized to period 1, so the one-period map
X(1,0) of the associated Hill system is taken literally over [0, 1].
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class PeriodicCoefficient:
    """A 1-periodic, smooth, positive scale function with two derivatives.

    Each evaluator is one numpy formula, taking a scalar or an array t.
    Immutable after construction; the evaluators are pure and safe to share
    across threads.
    """

    eval: Callable = field(repr=False)
    d1: Callable = field(repr=False)
    d2: Callable = field(repr=False)


def constant():
    """The constant coefficient b == 1."""
    def const(value):
        return lambda t: np.zeros_like(t, dtype=float) + value

    return PeriodicCoefficient(eval=const(1.0), d1=const(0.0), d2=const(0.0))


def sqrt_sin(eps):
    """b(t) = sqrt(1 + eps*sin(2*pi*t)), eps in (0, 1); period 1."""
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"sqrt-sin coefficient requires eps in (0, 1), "
                             f"got eps={eps}")
    w = 2.0 * np.pi

    def b(t):
        return np.sqrt(1.0 + eps * np.sin(w * np.asarray(t, dtype=float)))

    def bdot(t):
        return eps * np.pi * np.cos(w * np.asarray(t, dtype=float)) / b(t)

    def bddot(t):
        wt = w * np.asarray(t, dtype=float)
        s = np.sin(wt)
        g = 1.0 + eps * s
        return (-2.0 * eps * np.pi**2 * s / np.sqrt(g)
                - (eps * np.pi * np.cos(wt)) ** 2 / g**1.5)

    return PeriodicCoefficient(eval=b, d1=bdot, d2=bddot)


@dataclass(frozen=True)
class HillPotential:
    """Coefficients alpha(t) = b(t)^2 and q(t) of the reduced Hill equation

        y'' + (lambda*alpha(t) - q(t))*y = 0.

    q is the zero-order coefficient produced by substituting v = b^{n/2} w
    into the damped wave operator v'' - n (b'/b) v' + lambda b^2 v = 0 for
    spatial dimension n >= 1.
    """

    b: PeriodicCoefficient
    n: int

    def __post_init__(self):
        if not self.n >= 1:
            raise ParameterError(f"spatial dimension must satisfy n >= 1, got {self.n}")

    def alpha(self, t):
        return self.b.eval(t) ** 2

    def q(self, t):
        n = self.n
        bt = self.b.eval(t)
        r = self.b.d1(t) / bt
        return (n * n / 4.0 + n / 2.0) * r * r - (n / 2.0) * self.b.d2(t) / bt

