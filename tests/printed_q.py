"""The two q formulas printed alongside the implemented one, kept as test
oracles: neither is consistent with the substitution v = b^{n/2} w, and
the tests show that the implemented `HillPotential.q` is.
"""


def q_variant(pot, t, which):
    """Alternative printed q formulas for the potential `pot`.

    'intro':      (n/4)(n/4 - 1)(b'/b)^2 - (n/2) b''/b
    'alpha-form': (n/4)[(3/2)(a'/a)^2 - a''/a] - (n/8)(n/2 - 1)(a'/a)^2
                  with a = b^2.
    """
    n = pot.n
    bv = pot.b.eval(t)
    r = pot.b.d1(t) / bv
    dd = pot.b.d2(t) / bv
    if which == "intro":
        return (n / 4.0) * (n / 4.0 - 1.0) * r * r - (n / 2.0) * dd
    if which == "alpha-form":
        ar = 2.0 * r  # alpha'/alpha
        add = 2.0 * dd + 2.0 * r * r  # alpha''/alpha
        return (n / 4.0) * (1.5 * ar * ar - add) - (n / 8.0) * (
            n / 2.0 - 1.0
        ) * ar * ar
    raise ValueError(f"unknown q variant {which!r}")
