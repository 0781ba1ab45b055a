"""The Hill system's fundamental matrix from scipy's DOP853, independent
of floquet's Magnus propagator.  Tests compare monodromy, trace_curve,
Propagator and the whole periods of floquet.periods against it.
"""
from scipy.integrate import solve_ivp

from cyclicwave.errors import IntegrationFailure


class FundamentalPair:
    """Solutions W, V with W(0)=0, W_t(0)=1 and V(0)=1, V_t(0)=0.

    The tests' independent oracle for the Magnus maps: scipy's DOP853 at
    rtol = atol = tol, straight from t=0.  The package itself reads
    `monodromy`, `trace_curve` and `Propagator` instead.
    """

    def __init__(self, pot, lam, tol=1e-11):
        self.pot = pot
        self.lam = lam
        self.tol = tol

    def matrix(self, t):
        """X(t, 0) acting on (w_t, w): columns (W_t, W) and (V_t, V)."""
        def rhs(s, x):
            c = self.pot.q(s) - self.lam * self.pot.alpha(s)
            return [c * x[2], c * x[3], x[0], x[1]]

        sol = solve_ivp(rhs, (0.0, float(t)), [1.0, 0.0, 0.0, 1.0],
                        method="DOP853", rtol=self.tol, atol=self.tol)
        if not sol.success:
            raise IntegrationFailure(f"oracle integration failed: {sol.message}")
        return sol.y[:, -1].reshape(2, 2)

    def W(self, t):
        return self.matrix(t)[1, 0]

    def V(self, t):
        return self.matrix(t)[1, 1]
