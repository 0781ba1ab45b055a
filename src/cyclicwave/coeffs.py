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


def make_builtin(name, **params):
    """Construct a builtin coefficient: 'constant' (c) or 'sqrt-sin' (eps).

    sqrt-sin is b(t) = sqrt(1 + eps*sin(2*pi*t)), eps in (0, 1); period 1.
    """
    if name == "constant":
        c = float(params.pop("c", 1.0))
        if params:
            raise ParameterError(f"unknown parameters for 'constant': {params}")
        if not c > 0:
            raise ParameterError(f"constant coefficient requires c > 0, got c={c}")

        def const(value):
            return lambda t: np.zeros_like(t, dtype=float) + value

        return PeriodicCoefficient(eval=const(c), d1=const(0.0), d2=const(0.0))
    if name == "sqrt-sin":
        eps = float(params.pop("eps", np.nan))
        if params:
            raise ParameterError(f"unknown parameters for 'sqrt-sin': {params}")
        if not (0.0 < eps < 1.0):
            raise ParameterError(
                f"sqrt-sin coefficient requires eps in (0, 1), got eps={eps}"
            )
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
    raise ParameterError(f"unknown builtin coefficient {name!r}")


@dataclass(frozen=True)
class HillPotential:
    """Coefficients alpha(t) = b(t)^2 and q(t) of the reduced Hill equation

        y'' + (lambda*alpha(t) - q(t))*y = 0.

    q is the zero-order coefficient produced by substituting v = b^{n/2} w
    into the damped wave operator; see `hill_potential`.
    """

    b: PeriodicCoefficient
    n: int

    def alpha(self, t):
        return self.b.eval(t) ** 2

    def q(self, t):
        n = self.n
        bt = self.b.eval(t)
        r = self.b.d1(t) / bt
        return (n * n / 4.0 + n / 2.0) * r * r - (n / 2.0) * self.b.d2(t) / bt


def hill_potential(b, n):
    """Hill potential for scale function b and spatial dimension n >= 1."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"spatial dimension must satisfy n >= 1, got {n}")
    return HillPotential(b=b, n=n)
